#include "exec/aggregate_exec.h"

#include <optional>
#include <string_view>
#include <unordered_map>

#include "catalyst/codegen/compiled_expression.h"
#include "catalyst/expr/literal.h"
#include "util/spill_file.h"

namespace ssql {

namespace {

/// Hashable grouping key.
struct GroupKey {
  std::vector<Value> values;

  bool operator==(const GroupKey& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!values[i].Equals(other.values[i])) return false;
    }
    return true;
  }
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    uint64_t h = 1469598103934665603ULL;
    for (const auto& v : k.values) h = h * 1099511628211ULL + v.Hash();
    return static_cast<size_t>(h);
  }
};

using GroupMap = std::unordered_map<GroupKey, std::vector<Value>, GroupKeyHash>;

/// Number of hash buckets a spilled group table is scattered into; the
/// drain phase needs only one bucket's groups in memory at a time.
constexpr size_t kAggSpillFanout = 16;

/// Map node + bucket-array overhead per group beyond the boxed values.
constexpr int64_t kGroupEntryOverhead = 64;

/// The memory grant and Grace-style bucket files of one partition task's
/// group table, shared by the generic map and the typed table. The table
/// charges its footprint with Reserve(); when a grant is denied it scatters
/// every group into kAggSpillFanout spill files by (mixed) key hash, as
/// [key..., accumulator...] rows, and restarts empty. Drain() reads the
/// buckets back one at a time — all rows of a group share a bucket — and
/// the table re-aggregates each bucket on its own, merging partial
/// accumulators exactly as the Final stage merges shuffled ones.
class AggSpill {
 public:
  AggSpill(QueryContext& ctx, std::string consumer)
      : ctx_(ctx),
        consumer_(std::move(consumer)),
        reservation_(ctx.memory().CreateReservation()) {}

  /// Grows the grant to `total_bytes`; false when denied, and the caller
  /// must spill. Throws the over-budget error when spilling is disabled.
  bool Reserve(int64_t total_bytes) {
    if (reservation_.EnsureReserved(total_bytes)) return true;
    if (!ctx_.memory().spill_enabled()) {
      throw ExecutionError(ctx_.memory().OverBudgetMessage(consumer_));
    }
    return false;
  }

  /// Grows the grant to `total_bytes` past the budget if need be: for the
  /// irreducible working set (a single group, or one spilled bucket, whose
  /// overshoot is 1/kAggSpillFanout of the spilled working set).
  void Force(int64_t total_bytes) {
    reservation_.ForceGrow(total_bytes - reservation_.reserved());
  }

  int64_t reserved() const { return reservation_.reserved(); }
  bool spilled() const { return !buckets_.empty(); }

  /// True once Drain() has begun: a bucket is re-aggregated whole, so the
  /// table admits its groups over budget instead of spilling again.
  bool draining() const { return draining_; }

  /// Appends one group's [key..., acc...] row to the bucket of `key_hash`.
  void Scatter(uint64_t key_hash, const Row& row) {
    ctx_.CheckCancelledEvery(&cancel_check_);
    if (buckets_.empty()) buckets_.resize(kAggSpillFanout);
    std::optional<SpillFile>& bucket =
        buckets_[MixHash64(key_hash) % kAggSpillFanout];
    if (!bucket) {
      bucket.emplace(ctx_.MakeSpillFile(consumer_));
      ++files_created_;
    }
    wrote_ += bucket->Append(row);
  }

  /// Ends one scatter: the table has dropped its groups, so the grant goes
  /// back, and the spill event is metered.
  void EndScatter() {
    ctx_.RecordSpill(files_created_, wrote_);
    files_created_ = 0;
    wrote_ = 0;
    reservation_.Release();
  }

  /// Reads the buckets back one at a time: `row_fn` for each row, then
  /// `bucket_done`, where the table emits the bucket's groups and restarts
  /// empty. The grant is released and the bucket's file deleted after each
  /// bucket (and by RAII on any unwind).
  void Drain(const std::function<void(const Row&)>& row_fn,
             const std::function<void()>& bucket_done) {
    draining_ = true;
    for (std::optional<SpillFile>& bucket : buckets_) {
      if (!bucket) continue;
      bucket->FinishWrites();
      SpillFile::Reader reader(*bucket);
      Row row;
      while (reader.Next(&row)) {
        ctx_.CheckCancelledEvery(&cancel_check_);
        row_fn(row);
      }
      bucket_done();
      reservation_.Release();
      bucket.reset();
    }
    buckets_.clear();
  }

 private:
  QueryContext& ctx_;
  std::string consumer_;
  MemoryReservation reservation_;
  std::vector<std::optional<SpillFile>> buckets_;
  size_t cancel_check_ = 0;
  int64_t files_created_ = 0;
  int64_t wrote_ = 0;
  bool draining_ = false;
};

/// The hash-aggregation working set of one partition task on the generic
/// path (multi-column keys, decimal sums, CountDistinct and UDAFs, string
/// min/max, codegen off): boxed keys and accumulator banks in an
/// unordered_map, charged per group and spilled through AggSpill. Used by
/// both the Partial and Final generic paths; callers choose how a new
/// group's bank is built and how rows fold into an existing bank.
class SpillingGroupMap {
 public:
  SpillingGroupMap(QueryContext& ctx, std::string consumer, size_t key_width,
                   const std::vector<AggregatePtr>& aggs)
      : spill_(ctx, std::move(consumer)), key_width_(key_width), aggs_(aggs) {}

  /// Returns the accumulator bank for `key`, inserting the bank built by
  /// `init` when the key is new (spilling first if over budget). The
  /// pointer is valid until the next FindOrInsert call.
  std::vector<Value>* FindOrInsert(
      GroupKey key, const std::function<std::vector<Value>()>& init) {
    auto it = groups_.find(key);
    if (it != groups_.end()) return &it->second;
    std::vector<Value> accs = init();
    int64_t entry_bytes = kGroupEntryOverhead;
    for (const Value& v : key.values) entry_bytes += EstimateValueBytes(v);
    for (const Value& v : accs) entry_bytes += EstimateValueBytes(v);
    if (!spill_.Reserve(used_bytes_ + entry_bytes)) {
      if (!spill_.draining()) SpillMap();
      // The new group is the irreducible working set, and a drained bucket
      // is processed whole: admit them even if the budget (shared with
      // concurrent partitions) is still exhausted.
      if (!spill_.Reserve(used_bytes_ + entry_bytes)) {
        spill_.Force(used_bytes_ + entry_bytes);
      }
    }
    used_bytes_ += entry_bytes;
    it = groups_.emplace(std::move(key), std::move(accs)).first;
    return &it->second;
  }

  /// Merges one [key..., acc...] partial row into its group.
  void MergeRow(const Row& row) {
    GroupKey key;
    key.values.assign(row.values().begin(), row.values().begin() + key_width_);
    bool inserted = false;
    std::vector<Value>* accs = FindOrInsert(std::move(key), [&] {
      inserted = true;
      return std::vector<Value>(row.values().begin() + key_width_,
                                row.values().end());
    });
    if (inserted) return;
    for (size_t j = 0; j < aggs_.size(); ++j) {
      aggs_[j]->Merge(&(*accs)[j], row.Get(key_width_ + j));
    }
  }

  /// Emits every surviving group exactly once via `sink`. After a spill the
  /// in-memory remainder spills too, and each bucket is re-aggregated in
  /// the emptied map with MergeRow.
  void Drain(const std::function<void(GroupKey, std::vector<Value>)>& sink) {
    auto emit = [&] {
      for (auto& [key, accs] : groups_) {
        sink(GroupKey{key.values}, std::move(accs));
      }
      groups_.clear();
      used_bytes_ = 0;
    };
    if (!spill_.spilled()) return emit();
    SpillMap();
    spill_.Drain([this](const Row& row) { MergeRow(row); }, emit);
  }

  /// Drain() into the partial stage's row layout: [key..., acc...].
  void DrainRows(std::vector<Row>* out) {
    Drain([out](GroupKey key, std::vector<Value> accs) {
      Row row;
      row.Reserve(key.values.size() + accs.size());
      for (auto& v : key.values) row.Append(std::move(v));
      for (auto& a : accs) row.Append(std::move(a));
      out->push_back(std::move(row));
    });
  }

 private:
  /// Scatters the in-memory map into the bucket files and restarts empty.
  void SpillMap() {
    for (auto& [key, accs] : groups_) {
      Row row;
      row.Reserve(key.values.size() + accs.size());
      for (const Value& v : key.values) row.Append(v);
      for (const Value& v : accs) row.Append(v);
      spill_.Scatter(GroupKeyHash{}(key), row);
    }
    spill_.EndScatter();
    groups_.clear();
    used_bytes_ = 0;
  }

  AggSpill spill_;
  size_t key_width_;
  const std::vector<AggregatePtr>& aggs_;
  GroupMap groups_;
  int64_t used_bytes_ = 0;
};

/// The generic partial stage bound to its input: grouping expressions and
/// aggregate functions over the child row, folded row by row into a
/// SpillingGroupMap. Shared by the row and the batched generic paths.
struct GenericPartial {
  GenericPartial(const ExprVector& unbound_groupings,
                 const std::vector<AggregatePtr>& agg_functions,
                 const AttributeVector& child_out) {
    groupings.reserve(unbound_groupings.size());
    for (const auto& g : unbound_groupings) {
      groupings.push_back(BindReferences(g, child_out));
    }
    aggs.reserve(agg_functions.size());
    for (const auto& agg : agg_functions) {
      aggs.push_back(std::static_pointer_cast<const AggregateFunction>(
          BindReferences(agg, child_out)));
    }
  }

  void Fold(SpillingGroupMap& groups, const Row& row) const {
    GroupKey key;
    key.values.reserve(groupings.size());
    for (const auto& g : groupings) key.values.push_back(g->Eval(row));
    std::vector<Value>* accs = groups.FindOrInsert(std::move(key), [&] {
      std::vector<Value> init;
      init.reserve(aggs.size());
      for (const auto& agg : aggs) init.push_back(agg->InitAccumulator());
      return init;
    });
    for (size_t j = 0; j < aggs.size(); ++j) aggs[j]->Update(&(*accs)[j], row);
  }

  ExprVector groupings;
  std::vector<AggregatePtr> aggs;
};

}  // namespace

HashAggregateExec::HashAggregateExec(ExprVector groupings,
                                     std::vector<NamedExprPtr> aggregates,
                                     AggregateMode mode, PhysPtr child)
    : groupings_(std::move(groupings)),
      aggregates_(std::move(aggregates)),
      mode_(mode),
      child_(std::move(child)) {
  // Collect distinct aggregate functions in first-appearance order.
  std::vector<std::string> seen;
  for (const auto& out : aggregates_) {
    out->Foreach([this, &seen](const Expression& e) {
      const auto* agg = dynamic_cast<const AggregateFunction*>(&e);
      if (agg == nullptr) return;
      std::string key = agg->ToString();
      for (const auto& s : seen) {
        if (s == key) return;
      }
      seen.push_back(key);
      agg_functions_.push_back(
          std::static_pointer_cast<const AggregateFunction>(agg->self()));
    });
  }
  // Synthesized partial output attributes.
  for (size_t i = 0; i < groupings_.size(); ++i) {
    partial_output_.push_back(AttributeReference::Make(
        "group_" + std::to_string(i), groupings_[i]->data_type(), true));
  }
  for (size_t j = 0; j < agg_functions_.size(); ++j) {
    partial_output_.push_back(AttributeReference::Make(
        "acc_" + std::to_string(j), agg_functions_[j]->data_type(), true));
  }
}

AttributeVector HashAggregateExec::Output() const {
  if (mode_ == AggregateMode::kPartial) return partial_output_;
  AttributeVector out;
  out.reserve(aggregates_.size());
  for (const auto& a : aggregates_) out.push_back(a->ToAttribute());
  return out;
}

RowDataset HashAggregateExec::ExecuteImpl(QueryContext& ctx) const {
  return mode_ == AggregateMode::kPartial ? ExecutePartial(ctx)
                                          : ExecuteFinal(ctx);
}

RowDataset HashAggregateExec::ExecutePartial(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  AttributeVector child_out = child_->Output();

  if (ctx.config().codegen_enabled) {
    RowDataset fast;
    if (TryExecutePartialFast(ctx, input, child_out, &fast)) return fast;
  }

  const GenericPartial generic(groupings_, agg_functions_, child_out);
  return input.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    SpillingGroupMap groups(ctx, "aggregate.partial", generic.groupings.size(),
                            generic.aggs);
    size_t cancel_check = 0;
    for (const Row& row : part.rows) {
      ctx.CheckCancelledEvery(&cancel_check);
      generic.Fold(groups, row);
    }
    auto out = std::make_shared<RowPartition>();
    groups.DrainRows(&out->rows);
    return out;
  }, "aggregate.partial");
}


namespace {

/// Categorized simple aggregate for the typed fast path.
struct FastAggSpec {
  enum class Kind {
    kCountStar,
    kCount,    // skips nulls
    kSumI64,
    kSumF64,
    kAvg,
    kMinMaxI64,
    kMinMaxF64,
  };
  Kind kind;
  bool is_min = false;                              // for kMinMax*
  TypeId box_type = TypeId::kInt64;                 // result boxing for min/max
  std::optional<CompiledExpression> compiled;       // child program
  bool arg_f64 = false;  // the compiled child yields doubles, not int64
};

/// Typed per-group accumulator bank (one entry per aggregate function).
struct FastAcc {
  int64_t count = 0;
  int64_t i64 = 0;
  double f64 = 0;
  bool has = false;
};

bool IsIntLikeType(TypeId id) {
  return id == TypeId::kInt32 || id == TypeId::kInt64 || id == TypeId::kDate ||
         id == TypeId::kTimestamp || id == TypeId::kBoolean;
}

/// Grouping-key types the typed fast paths index directly.
bool IsFastKeyType(TypeId id) {
  return IsIntLikeType(id) || id == TypeId::kString;
}

/// Boxes an int64 back into its logical type.
Value BoxIntLike(int64_t v, TypeId id) {
  switch (id) {
    case TypeId::kInt32:
      return Value(static_cast<int32_t>(v));
    case TypeId::kDate:
      return Value(DateValue{static_cast<int32_t>(v)});
    case TypeId::kTimestamp:
      return Value(TimestampValue{v});
    case TypeId::kBoolean:
      return Value(v != 0);
    default:
      return Value(v);
  }
}

/// Categorizes the aggregate functions for the typed fast path. When
/// `child_out` is non-null the children are also compiled (the partial
/// stage evaluates them per row; the final stage only merges).
bool CategorizeFastAggs(const std::vector<AggregatePtr>& agg_functions,
                        const AttributeVector* child_out,
                        std::vector<FastAggSpec>* specs) {
  specs->reserve(agg_functions.size());
  for (const auto& agg : agg_functions) {
    FastAggSpec spec;
    ExprPtr child;
    if (const auto* count = dynamic_cast<const Count*>(agg.get())) {
      if (count->is_star()) {
        spec.kind = FastAggSpec::Kind::kCountStar;
        specs->push_back(std::move(spec));
        continue;
      }
      spec.kind = FastAggSpec::Kind::kCount;
      child = count->Children()[0];
    } else if (const auto* sum = dynamic_cast<const Sum*>(agg.get())) {
      TypeId rt = sum->data_type()->id();
      if (rt == TypeId::kInt64) {
        spec.kind = FastAggSpec::Kind::kSumI64;
      } else if (rt == TypeId::kDouble) {
        spec.kind = FastAggSpec::Kind::kSumF64;
      } else {
        return false;  // decimal sums use the generic path
      }
      child = sum->child();
    } else if (const auto* avg = dynamic_cast<const Average*>(agg.get())) {
      spec.kind = FastAggSpec::Kind::kAvg;
      child = avg->child();
    } else if (const auto* mm = dynamic_cast<const MinMax*>(agg.get())) {
      TypeId ct = mm->child()->data_type()->id();
      if (IsIntLikeType(ct)) {
        spec.kind = FastAggSpec::Kind::kMinMaxI64;
      } else if (ct == TypeId::kDouble) {
        spec.kind = FastAggSpec::Kind::kMinMaxF64;
      } else {
        return false;  // string min/max stays generic
      }
      spec.is_min = mm->is_min();
      spec.box_type = ct;
      child = mm->child();
    } else {
      return false;  // CountDistinct, UDAFs: generic path
    }
    if (child) {
      TypeId ct = child->data_type()->id();
      if (!IsIntLikeType(ct) && ct != TypeId::kDouble) return false;
      if (child_out != nullptr) {
        spec.compiled =
            CompiledExpression::Compile(BindReferences(child, *child_out));
        if (!spec.compiled) return false;
        spec.arg_f64 =
            spec.compiled->result_kind() == CompiledExpression::Kind::kF64;
      }
    }
    specs->push_back(std::move(spec));
  }
  return !specs->empty();
}

/// Shape check shared by the two partial fast paths: at most one grouping
/// key, int-like or string, compiled into `key_program`; every aggregate a
/// simple count/sum/avg/min/max with its argument compiled into `specs`.
bool PrepareFastPartial(const ExprVector& groupings,
                        const std::vector<AggregatePtr>& agg_functions,
                        const AttributeVector& child_out,
                        std::optional<CompiledExpression>* key_program,
                        std::vector<FastAggSpec>* specs) {
  if (groupings.size() > 1) return false;
  if (groupings.size() == 1) {
    if (!IsFastKeyType(groupings[0]->data_type()->id())) return false;
    *key_program =
        CompiledExpression::Compile(BindReferences(groupings[0], child_out));
    if (!*key_program) return false;
  }
  return CategorizeFastAggs(agg_functions, &child_out, specs);
}

/// Column types for packing the *partial* stage's output into batches.
/// Grouping columns are honestly typed, but accumulator columns carry
/// whatever Value shape the aggregate's accumulator uses at runtime (e.g.
/// Average's {sum, count} struct, CountDistinct's set) — not the finished
/// type partial_output_ declares — so they must pack into the boxed bank,
/// which round-trips any Value verbatim.
std::vector<DataTypePtr> PartialPackTypes(const ExprVector& groupings,
                                          size_t num_aggs) {
  std::vector<DataTypePtr> types;
  types.reserve(groupings.size() + num_aggs);
  for (const auto& g : groupings) types.push_back(g->data_type());
  DataTypePtr boxed = StructType::Make({});
  for (size_t j = 0; j < num_aggs; ++j) types.push_back(boxed);
  return types;
}

/// Folds one non-null value into a typed accumulator: an argument value in
/// the partial stages, or, for sums and min/max, whose merge is the same
/// fold, a partial accumulator in the final stage. `i` carries int-like
/// values and `f` doubles (Average's argument may be either).
void FoldNonNull(const FastAggSpec& spec, FastAcc& acc, int64_t i, double f) {
  switch (spec.kind) {
    case FastAggSpec::Kind::kCountStar:
    case FastAggSpec::Kind::kCount:
      acc.count += 1;
      break;
    case FastAggSpec::Kind::kSumI64:
      acc.i64 += i;
      acc.has = true;
      break;
    case FastAggSpec::Kind::kSumF64:
      acc.f64 += f;
      acc.has = true;
      break;
    case FastAggSpec::Kind::kAvg:
      // Average's accumulator sums as double regardless of input.
      acc.f64 += spec.arg_f64 ? f : static_cast<double>(i);
      acc.count += 1;
      break;
    case FastAggSpec::Kind::kMinMaxI64:
      if (!acc.has || (spec.is_min ? i < acc.i64 : i > acc.i64)) acc.i64 = i;
      acc.has = true;
      break;
    case FastAggSpec::Kind::kMinMaxF64:
      if (!acc.has || (spec.is_min ? f < acc.f64 : f > acc.f64)) acc.f64 = f;
      acc.has = true;
      break;
  }
}

/// Merges one boxed partial accumulator (BoxFastAcc's unfinished layout)
/// into a typed one: the Final stage's fold, which also re-aggregates a
/// spilled bucket.
void MergeBoxedAcc(const FastAggSpec& spec, FastAcc& acc, const Value& v) {
  switch (spec.kind) {
    case FastAggSpec::Kind::kCountStar:
    case FastAggSpec::Kind::kCount:
      acc.count += v.i64();
      break;
    case FastAggSpec::Kind::kAvg: {
      const auto& fields = v.struct_data().fields;
      acc.f64 += fields[0].f64();
      acc.count += fields[1].i64();
      break;
    }
    case FastAggSpec::Kind::kSumF64:
    case FastAggSpec::Kind::kMinMaxF64:
      if (!v.is_null()) FoldNonNull(spec, acc, 0, v.f64());
      break;
    default:
      if (!v.is_null()) FoldNonNull(spec, acc, v.AsInt64(), 0);
      break;
  }
}

/// Boxes one typed accumulator: as the partial accumulator the Final stage
/// merges (`finished` false), or as the aggregate's result.
Value BoxFastAcc(const FastAggSpec& spec, const FastAcc& acc, bool finished) {
  switch (spec.kind) {
    case FastAggSpec::Kind::kCountStar:
    case FastAggSpec::Kind::kCount:
      return Value(acc.count);
    case FastAggSpec::Kind::kSumI64:
      return acc.has ? Value(acc.i64) : Value::Null();
    case FastAggSpec::Kind::kSumF64:
    case FastAggSpec::Kind::kMinMaxF64:
      return acc.has ? Value(acc.f64) : Value::Null();
    case FastAggSpec::Kind::kAvg:
      if (!finished) return Value::Struct({Value(acc.f64), Value(acc.count)});
      return acc.count > 0 ? Value(acc.f64 / static_cast<double>(acc.count))
                           : Value::Null();
    case FastAggSpec::Kind::kMinMaxI64:
      return acc.has ? BoxIntLike(acc.i64, spec.box_type) : Value::Null();
  }
  return Value::Null();
}

/// The one group table of the typed fast paths (row partial, batched
/// partial, final). A group is keyed by a single int-like key (held as
/// int64) or string key; null keys share their own group, which is also
/// the single group of a global aggregate. Each group owns a bank of m
/// accumulators, laid out group-major, and groups are numbered in
/// first-seen order. The index is open-addressed over group numbers with
/// linear probing. String keys are copied into one byte arena once, when
/// their group is created; lookups hash and compare the probe key's bytes in
/// place, so no std::string is built per row.
///
/// The table is a budgeted working set: each new group charges the table's
/// footprint (the capacity of its arrays and arena) to the task's AggSpill.
/// When the grant is denied, the groups before the new one are boxed once
/// each, as [key, acc...] partial rows, scattered into the spill buckets,
/// and the table restarts empty; Drain() then re-aggregates each bucket
/// with the Final stage's merge fold.
class FastGroupTable {
 public:
  FastGroupTable(const std::vector<FastAggSpec>& specs, TypeId key_type,
                 AggSpill& spill)
      : specs_(specs),
        m_(specs.size()),
        key_type_(key_type),
        spill_(spill),
        slots_(kInitialSlots) {}

  FastAcc* SlotForNull() {
    if (null_group_ < 0) {
      null_group_ = static_cast<int32_t>(NewGroup(0));
      if (!Admit()) return SlotForNull();
    }
    return Bank(static_cast<uint32_t>(null_group_));
  }

  FastAcc* SlotForInt(int64_t key) {
    const uint64_t h = MixHash64(static_cast<uint64_t>(key));
    Slot* slot = Probe(h, [&](uint32_t g) { return int_keys_[g] == key; });
    if (slot->group != kEmpty) return Bank(slot->group);
    const uint32_t g = Claim(slot, h);
    int_keys_[g] = key;
    return Admit() ? Bank(g) : SlotForInt(key);
  }

  FastAcc* SlotForString(std::string_view key) {
    const uint64_t h = std::hash<std::string_view>{}(key);
    Slot* slot = Probe(h, [&](uint32_t g) { return StringKey(g) == key; });
    if (slot->group != kEmpty) return Bank(slot->group);
    arena_.append(key);  // before Claim, which records the key's end
    const uint32_t g = Claim(slot, h);
    return Admit() ? Bank(g) : SlotForString(key);
  }

  /// Finds or creates the group of a boxed key (the final stage's input).
  FastAcc* SlotForValue(const Value& key) {
    if (key.is_null()) return SlotForNull();
    return key_type_ == TypeId::kString ? SlotForString(key.str())
                                        : SlotForInt(key.AsInt64());
  }

  /// Merges one [key?, acc...] partial row into its group.
  void MergeRow(const Row& row) {
    const bool has_key = key_type_ != TypeId::kNull;
    FastAcc* bank = has_key ? SlotForValue(row.Get(0)) : SlotForNull();
    const size_t first = has_key ? 1 : 0;
    for (size_t j = 0; j < m_; ++j) {
      MergeBoxedAcc(specs_[j], bank[j], row.Get(first + j));
    }
  }

  /// Hands every group to `emit` exactly once: this table when it never
  /// spilled; otherwise the remainder spills too, and `emit` sees the table
  /// once per bucket, re-aggregated in turn.
  void Drain(const std::function<void(const FastGroupTable&)>& emit) {
    if (!spill_.spilled()) {
      emit(*this);
      return;
    }
    Spill(num_groups());
    spill_.Drain([this](const Row& row) { MergeRow(row); },
                 [&] {
                   emit(*this);
                   Reset();
                 });
  }

  size_t num_groups() const { return hashes_.size(); }
  const FastAcc* bank(size_t g) const { return &banks_[g * m_]; }

  /// Boxes group `g`'s key in its logical type (once per group).
  Value KeyValue(size_t g) const {
    if (null_group_ >= 0 && g == static_cast<size_t>(null_group_)) {
      return Value::Null();
    }
    if (key_type_ == TypeId::kString) return Value(std::string(StringKey(g)));
    return BoxIntLike(int_keys_[g], key_type_);
  }

  /// Boxes group `g` once, in the partial layout the Final stage merges:
  /// [key?][acc...].
  Row PartialRow(size_t g) const {
    const bool has_key = key_type_ != TypeId::kNull;
    Row row;
    row.Reserve((has_key ? 1 : 0) + m_);
    if (has_key) row.Append(KeyValue(g));
    for (size_t j = 0; j < m_; ++j) {
      row.Append(BoxFastAcc(specs_[j], bank(g)[j], /*finished=*/false));
    }
    return row;
  }

  /// Bytes the table holds: its arrays' capacities plus the key arena.
  int64_t FootprintBytes() const {
    return static_cast<int64_t>(
        slots_.capacity() * sizeof(Slot) +
        hashes_.capacity() * sizeof(uint64_t) +
        banks_.capacity() * sizeof(FastAcc) +
        int_keys_.capacity() * sizeof(int64_t) +
        str_ends_.capacity() * sizeof(size_t) + arena_.capacity());
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kInitialSlots = 64;

  /// Group number plus the hash's high bits, checked before the key.
  struct Slot {
    uint32_t group = kEmpty;
    uint32_t tag = 0;
  };

  template <typename KeyEq>
  Slot* Probe(uint64_t h, const KeyEq& key_eq) {
    const size_t mask = slots_.size() - 1;
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
      Slot& s = slots_[pos];
      if (s.group == kEmpty || (s.tag == tag && key_eq(s.group))) return &s;
    }
  }

  /// Stores a new group in the empty `slot` found by Probe; may rehash.
  uint32_t Claim(Slot* slot, uint64_t h) {
    const uint32_t g = NewGroup(h);
    slot->group = g;
    slot->tag = static_cast<uint32_t>(h >> 32);
    if (++indexed_ * 2 > slots_.size()) Grow();
    return g;
  }

  uint32_t NewGroup(uint64_t h) {
    const auto g = static_cast<uint32_t>(hashes_.size());
    hashes_.push_back(h);
    // Keep the key arrays indexable by group number (the null group holds
    // a zero / empty key).
    if (key_type_ == TypeId::kString) {
      str_ends_.resize(g + 1, arena_.size());
    } else {
      int_keys_.resize(g + 1, 0);
    }
    banks_.resize(banks_.size() + m_);
    return g;
  }

  /// Charges the footprint after a new group (the last one) was added.
  /// False when the grant was denied and the other groups were spilled:
  /// the table is empty, and the caller inserts its key again. A lone
  /// group, or a bucket being drained, is admitted over budget.
  bool Admit() {
    const int64_t bytes = FootprintBytes();
    if (bytes <= spill_.reserved() || spill_.Reserve(bytes)) return true;
    if (spill_.draining() || num_groups() == 1) {
      spill_.Force(bytes);
      return true;
    }
    Spill(num_groups() - 1);
    return false;
  }

  /// Scatters the first `n` groups into the spill buckets and restarts
  /// empty.
  void Spill(size_t n) {
    for (size_t g = 0; g < n; ++g) spill_.Scatter(hashes_[g], PartialRow(g));
    spill_.EndScatter();
    Reset();
  }

  /// Drops every group and frees the arrays.
  void Reset() {
    std::vector<Slot>(kInitialSlots).swap(slots_);
    indexed_ = 0;
    std::vector<uint64_t>().swap(hashes_);
    std::vector<FastAcc>().swap(banks_);
    std::vector<int64_t>().swap(int_keys_);
    std::string().swap(arena_);
    std::vector<size_t>().swap(str_ends_);
    null_group_ = -1;
  }

  void Grow() {
    std::vector<Slot> bigger(slots_.size() * 2);
    const size_t mask = bigger.size() - 1;
    for (const Slot& s : slots_) {
      if (s.group == kEmpty) continue;
      size_t pos = hashes_[s.group] & mask;
      while (bigger[pos].group != kEmpty) pos = (pos + 1) & mask;
      bigger[pos] = s;
    }
    slots_ = std::move(bigger);
  }

  std::string_view StringKey(size_t g) const {
    const size_t begin = g == 0 ? 0 : str_ends_[g - 1];
    return std::string_view(arena_).substr(begin, str_ends_[g] - begin);
  }

  FastAcc* Bank(uint32_t g) { return &banks_[static_cast<size_t>(g) * m_]; }

  const std::vector<FastAggSpec>& specs_;
  size_t m_;
  TypeId key_type_;
  AggSpill& spill_;
  std::vector<Slot> slots_;
  size_t indexed_ = 0;           // groups in slots_ (all but the null group)
  std::vector<uint64_t> hashes_;  // per group; rehashing reads them
  std::vector<FastAcc> banks_;
  std::vector<int64_t> int_keys_;  // int-like keys, per group
  std::string arena_;              // string keys, back to back
  std::vector<size_t> str_ends_;   // per group: end of its key in arena_
  int32_t null_group_ = -1;
};

/// Drains a partial-stage table into the partial row layout, one boxed row
/// per group.
std::vector<Row> DrainPartialRows(FastGroupTable& table) {
  std::vector<Row> rows;
  table.Drain([&rows](const FastGroupTable& t) {
    rows.reserve(rows.size() + t.num_groups());
    for (size_t g = 0; g < t.num_groups(); ++g) rows.push_back(t.PartialRow(g));
  });
  return rows;
}

}  // namespace

bool HashAggregateExec::TryExecutePartialFast(QueryContext& ctx,
                                              const RowDataset& input,
                                              const AttributeVector& child_out,
                                              RowDataset* out) const {
  std::optional<CompiledExpression> key_program;
  std::vector<FastAggSpec> specs;
  if (!PrepareFastPartial(groupings_, agg_functions_, child_out, &key_program,
                          &specs)) {
    return false;
  }

  size_t m = specs.size();
  bool has_key = key_program.has_value();
  const CompiledExpression* key_prog_ptr =
      has_key ? &*key_program : nullptr;
  TypeId key_type =
      has_key ? groupings_[0]->data_type()->id() : TypeId::kNull;
  const bool string_key = key_type == TypeId::kString;

  *out = input.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    // Per-task evaluators (register scratch is not shareable).
    std::optional<CompiledExpression::Evaluator> key_eval;
    if (key_prog_ptr != nullptr) key_eval.emplace(key_prog_ptr->NewEvaluator());
    std::vector<std::optional<CompiledExpression::Evaluator>> arg_evals(m);
    for (size_t j = 0; j < m; ++j) {
      if (specs[j].compiled) arg_evals[j].emplace(specs[j].compiled->NewEvaluator());
    }

    // Without groupings there is exactly one bank, even for no rows.
    AggSpill spill(ctx, "aggregate.partial");
    FastGroupTable table(specs, key_type, spill);
    if (!has_key) table.SlotForNull();

    size_t cancel_check = 0;
    for (const Row& row : part.rows) {
      ctx.CheckCancelledEvery(&cancel_check);
      FastAcc* bank;
      bool key_null = false;
      if (!has_key) {
        bank = table.SlotForNull();
      } else if (string_key) {
        std::string_view key = key_eval->EvaluateString(row, &key_null);
        bank = key_null ? table.SlotForNull() : table.SlotForString(key);
      } else {
        int64_t key = key_eval->EvaluateInt64(row, &key_null);
        bank = key_null ? table.SlotForNull() : table.SlotForInt(key);
      }
      for (size_t j = 0; j < m; ++j) {
        const FastAggSpec& spec = specs[j];
        bool is_null = false;
        int64_t i = 0;
        double f = 0;
        if (spec.compiled) {  // count(*) has no argument
          if (spec.arg_f64) {
            f = arg_evals[j]->EvaluateDouble(row, &is_null);
          } else {
            i = arg_evals[j]->EvaluateInt64(row, &is_null);
          }
        }
        if (!is_null) FoldNonNull(spec, bank[j], i, f);
      }
    }

    auto result = std::make_shared<RowPartition>();
    result->rows = DrainPartialRows(table);
    return result;
  }, "aggregate.partial");
  return true;
}

bool HashAggregateExec::TryExecutePartialFastBatched(
    QueryContext& ctx, const BatchDataset& input,
    const AttributeVector& child_out, BatchDataset* out) const {
  std::optional<CompiledExpression> key_program;
  std::vector<FastAggSpec> specs;
  if (!PrepareFastPartial(groupings_, agg_functions_, child_out, &key_program,
                          &specs)) {
    return false;
  }

  const size_t m = specs.size();
  const bool has_key = key_program.has_value();
  const CompiledExpression* key_prog_ptr = has_key ? &*key_program : nullptr;
  const TypeId key_type =
      has_key ? groupings_[0]->data_type()->id() : TypeId::kNull;
  const bool string_key = key_type == TypeId::kString;
  const std::vector<DataTypePtr> out_types =
      PartialPackTypes(groupings_, agg_functions_.size());
  const size_t batch_size = ctx.config().batch_size;

  *out = input.MapPartitions(ctx, [&](size_t, const BatchPartition& part) {
    std::optional<CompiledExpression::VectorEvaluator> key_eval;
    if (key_prog_ptr != nullptr) {
      key_eval.emplace(key_prog_ptr->NewVectorEvaluator());
    }
    std::vector<std::optional<CompiledExpression::VectorEvaluator>> arg_evals(
        m);
    for (size_t j = 0; j < m; ++j) {
      if (specs[j].compiled) {
        arg_evals[j].emplace(specs[j].compiled->NewVectorEvaluator());
      }
    }
    AggSpill spill(ctx, "aggregate.partial");
    FastGroupTable table(specs, key_type, spill);
    if (!has_key) table.SlotForNull();

    // Lanes of one evaluated argument column (i64 xor f64, plus nulls).
    struct ArgLanes {
      const int64_t* i64 = nullptr;
      const double* f64 = nullptr;
      const uint8_t* nulls = nullptr;
    };

    size_t cancel_rows = 0;
    for (const RowBatchPtr& batch : part.batches) {
      const size_t n = batch->ActiveRows();
      if (n == 0) continue;
      ctx.CheckCancelledEveryRows(&cancel_rows, n);

      // Evaluate the grouping key and every aggregate argument as whole
      // columns, then fold them with one tight lane loop.
      std::optional<ColumnVector> key_col;
      const int64_t* key_ints = nullptr;
      const std::string* key_strs = nullptr;
      const uint8_t* key_nulls = nullptr;
      if (has_key) {
        key_col.emplace(key_prog_ptr->result_type());
        key_col->Reserve(n);
        key_eval->EvaluateColumn(*batch, &*key_col);
        if (string_key) {
          key_strs = key_col->strings().data();
        } else {
          key_ints = key_col->ints().data();
        }
        key_nulls = key_col->nulls().data();
      }
      std::vector<std::optional<ColumnVector>> arg_cols(m);
      std::vector<ArgLanes> lanes(m);
      for (size_t j = 0; j < m; ++j) {
        if (!specs[j].compiled) continue;  // count(*): no argument
        arg_cols[j].emplace(specs[j].compiled->result_type());
        arg_cols[j]->Reserve(n);
        arg_evals[j]->EvaluateColumn(*batch, &*arg_cols[j]);
        lanes[j].nulls = arg_cols[j]->nulls().data();
        if (specs[j].arg_f64) {
          lanes[j].f64 = arg_cols[j]->doubles().data();
        } else {
          lanes[j].i64 = arg_cols[j]->ints().data();
        }
      }

      for (size_t k = 0; k < n; ++k) {
        FastAcc* bank;
        if (!has_key || key_nulls[k]) {
          bank = table.SlotForNull();
        } else if (string_key) {
          bank = table.SlotForString(key_strs[k]);
        } else {
          bank = table.SlotForInt(key_ints[k]);
        }
        for (size_t j = 0; j < m; ++j) {
          const ArgLanes& lane = lanes[j];
          if (lane.nulls != nullptr && lane.nulls[k]) continue;
          FoldNonNull(specs[j], bank[j], lane.i64 != nullptr ? lane.i64[k] : 0,
                      lane.f64 != nullptr ? lane.f64[k] : 0);
        }
      }
    }

    const std::vector<Row> rows = DrainPartialRows(table);
    auto result = std::make_shared<BatchPartition>();
    PackRowsIntoBatches(rows, out_types, batch_size, &result->batches);
    return result;
  }, "aggregate.partial");
  return true;
}

BatchDataset HashAggregateExec::ExecuteBatchesImpl(QueryContext& ctx) const {
  // Only the partial stage is batched (see SupportsBatches()): it consumes
  // the columnar scan→filter→project pipeline directly.
  BatchDataset input = child_->ExecuteBatches(ctx);
  AttributeVector child_out = child_->Output();

  if (ctx.config().codegen_enabled) {
    BatchDataset fast;
    if (TryExecutePartialFastBatched(ctx, input, child_out, &fast)) {
      return fast;
    }
  }

  // Generic shape: box each batch's live rows and fold them into the same
  // spilling group map as the row path — results are identical; the win is
  // that the pipeline below stayed columnar.
  const GenericPartial generic(groupings_, agg_functions_, child_out);
  const std::vector<DataTypePtr> out_types =
      PartialPackTypes(groupings_, agg_functions_.size());
  const size_t batch_size = ctx.config().batch_size;

  return input.MapPartitions(ctx, [&](size_t, const BatchPartition& part) {
    SpillingGroupMap groups(ctx, "aggregate.partial", generic.groupings.size(),
                            generic.aggs);
    size_t cancel_check = 0;
    for (const RowBatchPtr& batch : part.batches) {
      for (size_t r = 0; r < batch->ActiveRows(); ++r) {
        ctx.CheckCancelledEvery(&cancel_check);
        generic.Fold(groups, batch->BoxRow(batch->ActiveIndex(r)));
      }
    }
    std::vector<Row> rows;
    groups.DrainRows(&rows);
    auto out = std::make_shared<BatchPartition>();
    PackRowsIntoBatches(rows, out_types, batch_size, &out->batches);
    return out;
  }, "aggregate.partial");
}

RowDataset HashAggregateExec::ExecuteFinal(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  size_t k = groupings_.size();
  size_t m = agg_functions_.size();

  // Rewrite the output expressions against the row layout
  // [group values..., finished aggregate values...].
  std::vector<std::string> grouping_keys;
  grouping_keys.reserve(k);
  for (const auto& g : groupings_) grouping_keys.push_back(g->ToString());
  std::vector<std::string> agg_keys;
  agg_keys.reserve(m);
  for (const auto& a : agg_functions_) agg_keys.push_back(a->ToString());

  ExprVector result_exprs;
  result_exprs.reserve(aggregates_.size());
  for (const auto& out : aggregates_) {
    ExprPtr value = out;
    if (const auto* alias = As<Alias>(value)) value = alias->child();
    ExprPtr rewritten = value->TransformDown([&](const ExprPtr& e) -> ExprPtr {
      std::string key = e->ToString();
      for (size_t i = 0; i < k; ++i) {
        if (key == grouping_keys[i]) {
          return BoundReference::Make(static_cast<int>(i),
                                      groupings_[i]->data_type(), true);
        }
      }
      if (dynamic_cast<const AggregateFunction*>(e.get()) != nullptr) {
        for (size_t j = 0; j < m; ++j) {
          if (key == agg_keys[j]) {
            return BoundReference::Make(static_cast<int>(k + j),
                                        agg_functions_[j]->data_type(), true);
          }
        }
      }
      return e;
    });
    result_exprs.push_back(std::move(rewritten));
  }

  bool global = k == 0;

  if (ctx.config().codegen_enabled && !global) {
    RowDataset fast;
    if (TryExecuteFinalFast(ctx, input, result_exprs, &fast)) return fast;
  }

  RowDataset merged = input.MapPartitions(ctx, [&](size_t, const RowPartition&
                                                                part) {
    SpillingGroupMap groups(ctx, "aggregate.final", k, agg_functions_);
    size_t cancel_check = 0;
    for (const Row& row : part.rows) {
      ctx.CheckCancelledEvery(&cancel_check);
      groups.MergeRow(row);
    }
    auto out = std::make_shared<RowPartition>();
    groups.Drain([&](GroupKey key, std::vector<Value> accs) {
      Row base;
      base.Reserve(k + m);
      for (const auto& v : key.values) base.Append(v);
      for (size_t j = 0; j < m; ++j) {
        base.Append(agg_functions_[j]->Finish(accs[j]));
      }
      Row result;
      result.Reserve(result_exprs.size());
      for (const auto& e : result_exprs) result.Append(e->Eval(base));
      out->rows.push_back(std::move(result));
    });
    return out;
  }, "aggregate.final");

  if (global && merged.TotalRows() == 0) {
    // Aggregates over an empty input still produce one row.
    Row base;
    base.Reserve(m);
    for (const auto& agg : agg_functions_) base.Append(agg->EmptyResult());
    Row result;
    result.Reserve(result_exprs.size());
    for (const auto& e : result_exprs) result.Append(e->Eval(base));
    return RowDataset::SinglePartition({std::move(result)});
  }
  return merged;
}


bool HashAggregateExec::TryExecuteFinalFast(QueryContext& ctx,
                                            const RowDataset& input,
                                            const ExprVector& result_exprs,
                                            RowDataset* out) const {
  if (groupings_.size() != 1) return false;
  TypeId key_type = groupings_[0]->data_type()->id();
  if (!IsFastKeyType(key_type)) return false;
  std::vector<FastAggSpec> specs;
  if (!CategorizeFastAggs(agg_functions_, nullptr, &specs)) return false;
  size_t m = specs.size();

  *out = input.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    AggSpill spill(ctx, "aggregate.final");
    FastGroupTable table(specs, key_type, spill);
    size_t cancel_check = 0;
    for (const Row& row : part.rows) {
      ctx.CheckCancelledEvery(&cancel_check);
      table.MergeRow(row);
    }

    // Finish + evaluate the result expressions per group.
    auto result = std::make_shared<RowPartition>();
    Row base;
    table.Drain([&](const FastGroupTable& t) {
      result->rows.reserve(result->rows.size() + t.num_groups());
      for (size_t g = 0; g < t.num_groups(); ++g) {
        base.values().clear();
        base.Reserve(1 + m);
        base.Append(t.KeyValue(g));
        const FastAcc* bank = t.bank(g);
        for (size_t j = 0; j < m; ++j) {
          base.Append(BoxFastAcc(specs[j], bank[j], /*finished=*/true));
        }
        Row produced;
        produced.Reserve(result_exprs.size());
        for (const auto& e : result_exprs) produced.Append(e->Eval(base));
        result->rows.push_back(std::move(produced));
      }
    });
    return result;
  }, "aggregate.final");
  return true;
}

std::string HashAggregateExec::Describe() const {
  std::string s = NodeName() + " keys=[";
  for (size_t i = 0; i < groupings_.size(); ++i) {
    if (i > 0) s += ", ";
    s += groupings_[i]->ToString();
  }
  s += "], output=[";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) s += ", ";
    s += aggregates_[i]->ToString();
  }
  return s + "]";
}

}  // namespace ssql
