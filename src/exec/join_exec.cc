#include "exec/join_exec.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>

#include "catalyst/codegen/compiled_expression.h"
#include "exec/exchange_exec.h"
#include "util/spill_file.h"

namespace ssql {

namespace {

/// Join key: evaluated key columns of one row. Null components make the
/// key non-joinable (SQL equi-join semantics).
struct JoinKey {
  std::vector<Value> values;
  bool has_null = false;

  bool operator==(const JoinKey& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i].Compare(other.values[i]) != 0) return false;
    }
    return true;
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& k) const {
    uint64_t h = 1469598103934665603ULL;
    for (const auto& v : k.values) h = h * 1099511628211ULL + v.Hash();
    return static_cast<size_t>(h);
  }
};

JoinKey EvalKey(const Row& row, const ExprVector& bound_keys) {
  JoinKey key;
  key.values.reserve(bound_keys.size());
  for (const auto& k : bound_keys) {
    Value v = k->Eval(row);
    key.has_null = key.has_null || v.is_null();
    key.values.push_back(std::move(v));
  }
  return key;
}

Row NullExtendLeft(size_t left_width, const Row& right) {
  Row out;
  out.Reserve(left_width + right.size());
  for (size_t i = 0; i < left_width; ++i) out.Append(Value::Null());
  for (size_t i = 0; i < right.size(); ++i) out.Append(right.Get(i));
  return out;
}

Row NullExtendRight(const Row& left, size_t right_width) {
  Row out;
  out.Reserve(left.size() + right_width);
  for (size_t i = 0; i < left.size(); ++i) out.Append(left.Get(i));
  for (size_t i = 0; i < right_width; ++i) out.Append(Value::Null());
  return out;
}

using BuildMap =
    std::unordered_map<JoinKey, std::vector<size_t>, JoinKeyHash>;

BuildMap BuildHashTable(const std::vector<Row>& rows,
                        const ExprVector& bound_keys) {
  BuildMap map;
  map.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    JoinKey key = EvalKey(rows[i], bound_keys);
    if (key.has_null) continue;
    map[std::move(key)].push_back(i);
  }
  return map;
}

/// Hash-table node + index-vector overhead per build row beyond the row
/// payload, used when charging a build side against the memory budget.
constexpr int64_t kJoinEntryOverhead = 64;

/// Buckets a Grace-partitioned join scatters each side into.
constexpr size_t kJoinSpillFanout = 16;

int64_t EstimateBuildBytes(const std::vector<Row>& rows) {
  int64_t bytes = 0;
  for (const Row& r : rows) bytes += EstimateRowBytes(r) + kJoinEntryOverhead;
  return bytes;
}

}  // namespace

JoinExecBase::JoinExecBase(PhysPtr left, PhysPtr right, ExprVector left_keys,
                           ExprVector right_keys, JoinType join_type,
                           ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      join_type_(join_type),
      residual_(std::move(residual)) {}

AttributeVector JoinExecBase::Output() const {
  AttributeVector out;
  auto left_out = left_->Output();
  auto right_out = right_->Output();
  bool left_nullable = join_type_ == JoinType::kRightOuter ||
                       join_type_ == JoinType::kFullOuter;
  bool right_nullable = join_type_ == JoinType::kLeftOuter ||
                        join_type_ == JoinType::kFullOuter;
  for (const auto& a : left_out) {
    out.push_back(left_nullable ? a->WithNullability(true) : a);
  }
  if (join_type_ != JoinType::kLeftSemi && join_type_ != JoinType::kLeftAnti) {
    for (const auto& a : right_out) {
      out.push_back(right_nullable ? a->WithNullability(true) : a);
    }
  }
  return out;
}

std::string JoinExecBase::Describe() const {
  std::string s = NodeName() + " " + JoinTypeName(join_type_) + " keys: (";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) s += ", ";
    s += left_keys_[i]->ToString() + " = " + right_keys_[i]->ToString();
  }
  s += ")";
  if (residual_) s += " residual: " + residual_->ToString();
  return s;
}

RowDataset BroadcastHashJoinExec::ExecuteImpl(QueryContext& ctx) const {
  AttributeVector left_out = left_->Output();
  AttributeVector right_out = right_->Output();
  AttributeVector joined_out = left_out;
  joined_out.insert(joined_out.end(), right_out.begin(), right_out.end());

  ExprVector bound_left, bound_right;
  for (const auto& k : left_keys_) bound_left.push_back(BindReferences(k, left_out));
  for (const auto& k : right_keys_) {
    bound_right.push_back(BindReferences(k, right_out));
  }
  ExprPtr bound_residual =
      residual_ ? BindReferences(residual_, joined_out) : nullptr;

  // Broadcast: collect and hash the build side once. A broadcast build
  // cannot spill (every probe task needs the whole table), so going over
  // budget is a hard error; the planner avoids this by capping the
  // broadcast threshold at the memory limit.
  std::vector<Row> build = right_->Execute(ctx).Collect();
  ctx.profile().Add(nullptr, ProfileCounter::kBroadcastRows,
                    static_cast<int64_t>(build.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kBuildRows,
                    static_cast<int64_t>(build.size()));
  MemoryReservation reservation = ctx.memory().CreateReservation();
  int64_t build_bytes = EstimateBuildBytes(build);
  if (!reservation.EnsureReserved(build_bytes)) {
    throw ExecutionError(
        "query memory limit of " + std::to_string(ctx.memory().limit_bytes()) +
        " bytes exceeded by join.broadcast build side (~" +
        std::to_string(build_bytes) +
        " bytes); broadcast joins cannot spill — raise "
        "query_memory_limit_bytes or lower broadcast_threshold_bytes so the "
        "planner picks a shuffle join");
  }
  BuildMap table = BuildHashTable(build, bound_right);

  RowDataset stream = left_->Execute(ctx);
  ctx.profile().Add(nullptr, ProfileCounter::kProbeRows,
                    static_cast<int64_t>(stream.TotalRows()));
  bool semi = join_type_ == JoinType::kLeftSemi;
  bool anti = join_type_ == JoinType::kLeftAnti;
  bool left_outer = join_type_ == JoinType::kLeftOuter;
  size_t right_width = right_out.size();

  return stream.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    auto out = std::make_shared<RowPartition>();
    size_t cancel_check = 0;
    for (const Row& row : part.rows) {
      ctx.CheckCancelledEvery(&cancel_check);
      JoinKey key = EvalKey(row, bound_left);
      const std::vector<size_t>* matches = nullptr;
      if (!key.has_null) {
        auto it = table.find(key);
        if (it != table.end()) matches = &it->second;
      }
      bool matched = false;
      if (matches != nullptr) {
        for (size_t idx : *matches) {
          Row joined = Row::Concat(row, build[idx]);
          if (bound_residual && !EvalPredicate(*bound_residual, joined)) {
            continue;
          }
          matched = true;
          if (semi || anti) break;
          out->rows.push_back(std::move(joined));
        }
      }
      if (semi && matched) out->rows.push_back(row);
      if (anti && !matched) out->rows.push_back(row);
      if (left_outer && !matched) {
        out->rows.push_back(NullExtendRight(row, right_width));
      }
    }
    return out;
  }, "join.probe");
}

BatchDataset BroadcastHashJoinExec::ExecuteBatchesImpl(QueryContext& ctx) const {
  AttributeVector left_out = left_->Output();
  AttributeVector right_out = right_->Output();
  AttributeVector joined_out = left_out;
  joined_out.insert(joined_out.end(), right_out.begin(), right_out.end());

  ExprVector bound_left, bound_right;
  for (const auto& k : left_keys_) {
    bound_left.push_back(BindReferences(k, left_out));
  }
  for (const auto& k : right_keys_) {
    bound_right.push_back(BindReferences(k, right_out));
  }
  ExprPtr bound_residual =
      residual_ ? BindReferences(residual_, joined_out) : nullptr;

  // Build side: collected and hashed as rows, exactly like the row probe —
  // it is small by the planner's construction, so columnarizing it buys
  // nothing. Same no-spill contract.
  std::vector<Row> build = right_->Execute(ctx).Collect();
  ctx.profile().Add(nullptr, ProfileCounter::kBroadcastRows,
                    static_cast<int64_t>(build.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kBuildRows,
                    static_cast<int64_t>(build.size()));
  MemoryReservation reservation = ctx.memory().CreateReservation();
  int64_t build_bytes = EstimateBuildBytes(build);
  if (!reservation.EnsureReserved(build_bytes)) {
    throw ExecutionError(
        "query memory limit of " + std::to_string(ctx.memory().limit_bytes()) +
        " bytes exceeded by join.broadcast build side (~" +
        std::to_string(build_bytes) +
        " bytes); broadcast joins cannot spill — raise "
        "query_memory_limit_bytes or lower broadcast_threshold_bytes so the "
        "planner picks a shuffle join");
  }
  BuildMap table = BuildHashTable(build, bound_right);

  // When every probe key compiles, keys evaluate as whole columns per
  // batch; rows box lazily, so non-matching inner rows never box at all.
  std::vector<std::optional<CompiledExpression>> key_programs;
  bool keys_compiled = ctx.config().codegen_enabled;
  if (keys_compiled) {
    for (const auto& bk : bound_left) {
      auto prog = CompiledExpression::Compile(bk);
      if (!prog) {
        keys_compiled = false;
        break;
      }
      key_programs.push_back(std::move(prog));
    }
  }

  BatchDataset stream = left_->ExecuteBatches(ctx);
  ctx.profile().Add(nullptr, ProfileCounter::kProbeRows,
                    static_cast<int64_t>(stream.TotalRows()));
  const bool semi = join_type_ == JoinType::kLeftSemi;
  const bool anti = join_type_ == JoinType::kLeftAnti;
  const bool left_outer = join_type_ == JoinType::kLeftOuter;
  const size_t right_width = right_out.size();
  const std::vector<DataTypePtr> out_types = OutputTypes();
  const size_t batch_size = ctx.config().batch_size;

  return stream.MapPartitions(ctx, [&](size_t, const BatchPartition& part) {
    auto out = std::make_shared<BatchPartition>();
    std::shared_ptr<RowBatch> builder;
    size_t builder_rows = 0;
    auto emit = [&](const Row& row) {
      if (!builder) {
        builder = std::make_shared<RowBatch>(out_types);
        builder_rows = 0;
      }
      builder->AppendRow(row);
      if (++builder_rows >= batch_size) {
        out->batches.push_back(std::move(builder));
        builder.reset();
      }
    };
    std::vector<std::optional<CompiledExpression::VectorEvaluator>> key_evals(
        key_programs.size());
    if (keys_compiled) {
      for (size_t j = 0; j < key_programs.size(); ++j) {
        key_evals[j].emplace(key_programs[j]->NewVectorEvaluator());
      }
    }
    size_t cancel_rows = 0;
    for (const RowBatchPtr& batch : part.batches) {
      const size_t n = batch->ActiveRows();
      if (n == 0) continue;
      ctx.CheckCancelledEveryRows(&cancel_rows, n);
      std::vector<ColumnVector> key_cols;
      if (keys_compiled) {
        key_cols.reserve(key_evals.size());
        for (size_t j = 0; j < key_evals.size(); ++j) {
          ColumnVector col(key_programs[j]->result_type());
          col.Reserve(n);
          key_evals[j]->EvaluateColumn(*batch, &col);
          key_cols.push_back(std::move(col));
        }
      }
      for (size_t k = 0; k < n; ++k) {
        const size_t phys = batch->ActiveIndex(k);
        JoinKey key;
        std::optional<Row> boxed;  // only rows that produce output box
        if (keys_compiled) {
          key.values.reserve(key_cols.size());
          for (const auto& col : key_cols) {
            Value v = col.GetValue(k);
            key.has_null = key.has_null || v.is_null();
            key.values.push_back(std::move(v));
          }
        } else {
          boxed = batch->BoxRow(phys);
          key = EvalKey(*boxed, bound_left);
        }
        const std::vector<size_t>* matches = nullptr;
        if (!key.has_null) {
          auto it = table.find(key);
          if (it != table.end()) matches = &it->second;
        }
        bool matched = false;
        if (matches != nullptr) {
          if (!boxed) boxed = batch->BoxRow(phys);
          for (size_t idx : *matches) {
            Row joined = Row::Concat(*boxed, build[idx]);
            if (bound_residual && !EvalPredicate(*bound_residual, joined)) {
              continue;
            }
            matched = true;
            if (semi || anti) break;
            emit(joined);
          }
        }
        if ((semi && matched) || (anti && !matched)) {
          if (!boxed) boxed = batch->BoxRow(phys);
          emit(*boxed);
        }
        if (left_outer && !matched) {
          if (!boxed) boxed = batch->BoxRow(phys);
          emit(NullExtendRight(*boxed, right_width));
        }
      }
    }
    if (builder && builder_rows > 0) out->batches.push_back(std::move(builder));
    return out;
  }, "join.probe");
}

RowDataset ShuffleHashJoinExec::ExecuteImpl(QueryContext& ctx) const {
  AttributeVector left_out = left_->Output();
  AttributeVector right_out = right_->Output();
  AttributeVector joined_out = left_out;
  joined_out.insert(joined_out.end(), right_out.begin(), right_out.end());

  ExprVector bound_left, bound_right;
  for (const auto& k : left_keys_) bound_left.push_back(BindReferences(k, left_out));
  for (const auto& k : right_keys_) {
    bound_right.push_back(BindReferences(k, right_out));
  }
  ExprPtr bound_residual =
      residual_ ? BindReferences(residual_, joined_out) : nullptr;

  size_t parts = ctx.config().default_parallelism;
  RowDataset left_shuffled =
      left_->Execute(ctx).ShuffleByHash(ctx, parts, [&](const Row& row) {
        return HashRowKeys(row, bound_left);
      });
  RowDataset right_shuffled =
      right_->Execute(ctx).ShuffleByHash(ctx, parts, [&](const Row& row) {
        return HashRowKeys(row, bound_right);
      });

  bool semi = join_type_ == JoinType::kLeftSemi;
  bool anti = join_type_ == JoinType::kLeftAnti;
  bool left_outer = join_type_ == JoinType::kLeftOuter ||
                    join_type_ == JoinType::kFullOuter;
  bool right_outer = join_type_ == JoinType::kRightOuter ||
                     join_type_ == JoinType::kFullOuter;
  size_t left_width = left_out.size();
  size_t right_width = right_out.size();

  return left_shuffled.MapPartitions(ctx, [&](size_t p, const RowPartition&
                                                            left_part) {
    const RowPartition& right_part = *right_shuffled.partition(p);
    auto out = std::make_shared<RowPartition>();
    size_t cancel_check = 0;
    ctx.profile().Add(nullptr, ProfileCounter::kBuildRows,
                      static_cast<int64_t>(right_part.rows.size()));
    ctx.profile().Add(nullptr, ProfileCounter::kProbeRows,
                      static_cast<int64_t>(left_part.rows.size()));

    // One hash-join pass: hash `build`, stream probe rows from `next_probe`.
    // Correct per Grace bucket because equal keys always share a bucket, and
    // every input row lands in exactly one bucket (so each unmatched row is
    // null-extended/emitted exactly once across passes).
    auto join_pass = [&](const std::vector<Row>& build,
                         const std::function<const Row*()>& next_probe) {
      BuildMap table = BuildHashTable(build, bound_right);
      std::vector<uint8_t> right_matched(build.size(), 0);
      while (const Row* probe = next_probe()) {
        ctx.CheckCancelledEvery(&cancel_check);
        const Row& row = *probe;
        JoinKey key = EvalKey(row, bound_left);
        const std::vector<size_t>* matches = nullptr;
        if (!key.has_null) {
          auto it = table.find(key);
          if (it != table.end()) matches = &it->second;
        }
        bool matched = false;
        if (matches != nullptr) {
          for (size_t idx : *matches) {
            Row joined = Row::Concat(row, build[idx]);
            if (bound_residual && !EvalPredicate(*bound_residual, joined)) {
              continue;
            }
            matched = true;
            right_matched[idx] = 1;
            if (semi || anti) break;
            out->rows.push_back(std::move(joined));
          }
        }
        if (semi && matched) out->rows.push_back(row);
        if (anti && !matched) out->rows.push_back(row);
        if (left_outer && !matched && !semi && !anti) {
          out->rows.push_back(NullExtendRight(row, right_width));
        }
      }
      if (right_outer) {
        for (size_t i = 0; i < build.size(); ++i) {
          if (right_matched[i] == 0) {
            out->rows.push_back(NullExtendLeft(left_width, build[i]));
          }
        }
      }
    };

    MemoryReservation reservation = ctx.memory().CreateReservation();
    if (reservation.EnsureReserved(EstimateBuildBytes(right_part.rows))) {
      size_t i = 0;
      join_pass(right_part.rows, [&]() -> const Row* {
        return i < left_part.rows.size() ? &left_part.rows[i++] : nullptr;
      });
      return out;
    }
    if (!ctx.memory().spill_enabled()) {
      throw ExecutionError(ctx.memory().OverBudgetMessage("join.build"));
    }
    reservation.Release();

    // Grace fallback: scatter both sides to disk by mixed key hash, then
    // join bucket by bucket with a 1/kJoinSpillFanout-sized build table.
    // Null-key rows scatter by their (deterministic) null hash and never
    // match, which preserves outer/anti semantics within their bucket.
    struct BucketPair {
      std::optional<SpillFile> build, probe;
    };
    std::vector<BucketPair> buckets(kJoinSpillFanout);
    int64_t wrote = 0;
    size_t files_created = 0;
    auto scatter = [&](const std::vector<Row>& rows, const ExprVector& keys,
                       bool build_side) {
      for (const Row& row : rows) {
        ctx.CheckCancelledEvery(&cancel_check);
        size_t b =
            MixHash64(JoinKeyHash{}(EvalKey(row, keys))) % kJoinSpillFanout;
        auto& file = build_side ? buckets[b].build : buckets[b].probe;
        if (!file) {
          file.emplace(
              ctx.MakeSpillFile(build_side ? "join-build" : "join-probe"));
          ++files_created;
        }
        wrote += file->Append(row);
      }
    };
    scatter(right_part.rows, bound_right, /*build_side=*/true);
    scatter(left_part.rows, bound_left, /*build_side=*/false);
    ctx.RecordSpill(static_cast<int64_t>(files_created), wrote);

    for (auto& bucket : buckets) {
      std::vector<Row> build;
      if (bucket.build) {
        bucket.build->FinishWrites();
        build.reserve(bucket.build->row_count());
        SpillFile::Reader reader(*bucket.build);
        Row row;
        while (reader.Next(&row)) {
          ctx.CheckCancelledEvery(&cancel_check);
          build.push_back(std::move(row));
        }
      }
      // A bucket that still exceeds the budget is joined anyway
      // (single-level recursion); the overshoot is bounded by the fanout.
      if (!reservation.EnsureReserved(EstimateBuildBytes(build))) {
        reservation.ForceGrow(EstimateBuildBytes(build));
      }
      if (bucket.probe) {
        bucket.probe->FinishWrites();
        SpillFile::Reader reader(*bucket.probe);
        Row scratch;
        join_pass(build, [&]() -> const Row* {
          return reader.Next(&scratch) ? &scratch : nullptr;
        });
      } else {
        join_pass(build, []() -> const Row* { return nullptr; });
      }
      reservation.Release();
      bucket.build.reset();  // delete each pair as soon as it is joined
      bucket.probe.reset();
    }
    return out;
  }, "join.probe");
}

RowDataset SortMergeJoinExec::ExecuteImpl(QueryContext& ctx) const {
  AttributeVector left_out = left_->Output();
  AttributeVector right_out = right_->Output();
  AttributeVector joined_out = left_out;
  joined_out.insert(joined_out.end(), right_out.begin(), right_out.end());

  ExprVector bound_left, bound_right;
  for (const auto& k : left_keys_) bound_left.push_back(BindReferences(k, left_out));
  for (const auto& k : right_keys_) {
    bound_right.push_back(BindReferences(k, right_out));
  }
  ExprPtr bound_residual =
      residual_ ? BindReferences(residual_, joined_out) : nullptr;

  size_t parts = ctx.config().default_parallelism;
  RowDataset left_shuffled =
      left_->Execute(ctx).ShuffleByHash(ctx, parts, [&](const Row& row) {
        return HashRowKeys(row, bound_left);
      });
  RowDataset right_shuffled =
      right_->Execute(ctx).ShuffleByHash(ctx, parts, [&](const Row& row) {
        return HashRowKeys(row, bound_right);
      });

  auto key_less = [](const JoinKey& a, const JoinKey& b) {
    for (size_t i = 0; i < a.values.size(); ++i) {
      int c = a.values[i].Compare(b.values[i]);
      if (c != 0) return c < 0;
    }
    return false;
  };

  return left_shuffled.MapPartitions(ctx, [&](size_t p, const RowPartition&
                                                            left_part) {
    const RowPartition& right_part = *right_shuffled.partition(p);
    auto out = std::make_shared<RowPartition>();
    ctx.profile().Add(nullptr, ProfileCounter::kBuildRows,
                      static_cast<int64_t>(right_part.rows.size()));
    ctx.profile().Add(nullptr, ProfileCounter::kProbeRows,
                      static_cast<int64_t>(left_part.rows.size()));

    // Sort both sides by key (null keys dropped: inner join).
    struct Keyed {
      JoinKey key;
      const Row* row;
    };
    std::vector<Keyed> ls, rs;
    ls.reserve(left_part.rows.size());
    rs.reserve(right_part.rows.size());
    for (const Row& row : left_part.rows) {
      JoinKey k = EvalKey(row, bound_left);
      if (!k.has_null) ls.push_back({std::move(k), &row});
    }
    for (const Row& row : right_part.rows) {
      JoinKey k = EvalKey(row, bound_right);
      if (!k.has_null) rs.push_back({std::move(k), &row});
    }
    auto cmp = [&](const Keyed& a, const Keyed& b) { return key_less(a.key, b.key); };
    std::sort(ls.begin(), ls.end(), cmp);
    std::sort(rs.begin(), rs.end(), cmp);

    size_t i = 0, j = 0;
    size_t cancel_check = 0;
    while (i < ls.size() && j < rs.size()) {
      ctx.CheckCancelledEvery(&cancel_check);
      if (key_less(ls[i].key, rs[j].key)) {
        ++i;
      } else if (key_less(rs[j].key, ls[i].key)) {
        ++j;
      } else {
        // Equal-key runs on both sides.
        size_t i_end = i;
        while (i_end < ls.size() && !key_less(ls[i].key, ls[i_end].key) &&
               !key_less(ls[i_end].key, ls[i].key)) {
          ++i_end;
        }
        size_t j_end = j;
        while (j_end < rs.size() && !key_less(rs[j].key, rs[j_end].key) &&
               !key_less(rs[j_end].key, rs[j].key)) {
          ++j_end;
        }
        for (size_t a = i; a < i_end; ++a) {
          for (size_t b = j; b < j_end; ++b) {
            Row joined = Row::Concat(*ls[a].row, *rs[b].row);
            if (bound_residual && !EvalPredicate(*bound_residual, joined)) {
              continue;
            }
            out->rows.push_back(std::move(joined));
          }
        }
        i = i_end;
        j = j_end;
      }
    }
    return out;
  }, "join.merge");
}

NestedLoopJoinExec::NestedLoopJoinExec(PhysPtr left, PhysPtr right,
                                       JoinType join_type, ExprPtr condition)
    : left_(std::move(left)),
      right_(std::move(right)),
      join_type_(join_type),
      condition_(std::move(condition)) {}

AttributeVector NestedLoopJoinExec::Output() const {
  AttributeVector out = left_->Output();
  if (join_type_ != JoinType::kLeftSemi && join_type_ != JoinType::kLeftAnti) {
    auto right_out = right_->Output();
    bool right_nullable = join_type_ == JoinType::kLeftOuter;
    for (const auto& a : right_out) {
      out.push_back(right_nullable ? a->WithNullability(true) : a);
    }
  }
  return out;
}

RowDataset NestedLoopJoinExec::ExecuteImpl(QueryContext& ctx) const {
  if (join_type_ == JoinType::kRightOuter || join_type_ == JoinType::kFullOuter) {
    throw ExecutionError(
        "NestedLoopJoin does not support right/full outer joins");
  }
  AttributeVector left_out = left_->Output();
  AttributeVector right_out = right_->Output();
  AttributeVector joined_out = left_out;
  joined_out.insert(joined_out.end(), right_out.begin(), right_out.end());
  ExprPtr bound =
      condition_ ? BindReferences(condition_, joined_out) : nullptr;

  std::vector<Row> build = right_->Execute(ctx).Collect();
  ctx.profile().Add(nullptr, ProfileCounter::kBroadcastRows,
                    static_cast<int64_t>(build.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kBuildRows,
                    static_cast<int64_t>(build.size()));
  MemoryReservation reservation = ctx.memory().CreateReservation();
  int64_t build_bytes = EstimateBuildBytes(build);
  if (!reservation.EnsureReserved(build_bytes)) {
    throw ExecutionError(
        "query memory limit of " + std::to_string(ctx.memory().limit_bytes()) +
        " bytes exceeded by join.nested_loop build side (~" +
        std::to_string(build_bytes) +
        " bytes); nested-loop builds cannot spill — raise "
        "query_memory_limit_bytes");
  }

  RowDataset stream = left_->Execute(ctx);
  ctx.profile().Add(nullptr, ProfileCounter::kProbeRows,
                    static_cast<int64_t>(stream.TotalRows()));
  bool semi = join_type_ == JoinType::kLeftSemi;
  bool anti = join_type_ == JoinType::kLeftAnti;
  bool left_outer = join_type_ == JoinType::kLeftOuter;
  size_t right_width = right_out.size();

  return stream.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    auto out = std::make_shared<RowPartition>();
    size_t cancel_check = 0;
    for (const Row& row : part.rows) {
      bool matched = false;
      for (const Row& other : build) {
        ctx.CheckCancelledEvery(&cancel_check);
        Row joined = Row::Concat(row, other);
        if (bound && !EvalPredicate(*bound, joined)) continue;
        matched = true;
        if (semi || anti) break;
        out->rows.push_back(std::move(joined));
      }
      if (semi && matched) out->rows.push_back(row);
      if (anti && !matched) out->rows.push_back(row);
      if (left_outer && !matched) {
        out->rows.push_back(NullExtendRight(row, right_width));
      }
    }
    return out;
  }, "join.probe");
}

std::string NestedLoopJoinExec::Describe() const {
  std::string s = "NestedLoopJoin " + JoinTypeName(join_type_);
  if (condition_) s += " condition: " + condition_->ToString();
  return s;
}

}  // namespace ssql
