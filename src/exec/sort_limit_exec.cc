#include "exec/sort_limit_exec.h"

#include <algorithm>
#include <optional>

#include "util/spill_file.h"

namespace ssql {

RowDataset SortExec::ExecuteImpl(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  AttributeVector child_out = child_->Output();

  ExprVector keys;
  std::vector<bool> ascending;
  keys.reserve(orders_.size());
  ascending.reserve(orders_.size());
  for (const auto& o : orders_) {
    keys.push_back(BindReferences(o->child(), child_out));
    ascending.push_back(o->ascending());
  }

  auto less = [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < keys.size(); ++i) {
      int c = keys[i]->Eval(a).Compare(keys[i]->Eval(b));
      if (c != 0) return ascending[i] ? c < 0 : c > 0;
    }
    return false;
  };

  // Local sort (or top-K) per partition in parallel, then merge on the
  // driver. The comparator polls cancellation so a timed-out query aborts
  // even inside a large sort (std::stable_sort has no other exit point).
  size_t cancel_check = 0;
  auto checked_less = [&](const Row& a, const Row& b) {
    ctx.CheckCancelledEvery(&cancel_check);
    return less(a, b);
  };

  const bool top_k = limit_ >= 0;
  RowDataset locally_sorted;
  if (top_k) {
    locally_sorted = input.MapPartitions(ctx, [&](size_t,
                                                  const RowPartition& part) {
      return TopKPartition(ctx, part, static_cast<size_t>(limit_), keys,
                           ascending, less);
    }, "sort");
  } else if (ctx.memory().limited()) {
    locally_sorted = input.MapPartitions(ctx, [&](size_t,
                                                  const RowPartition& part) {
      return ExternalSortPartition(ctx, part, less);
    }, "sort");
  } else {
    locally_sorted = input.MapPartitions(ctx, [&](size_t,
                                                  const RowPartition& part) {
      auto out = std::make_shared<RowPartition>();
      out->rows = part.rows;
      size_t task_check = 0;
      auto task_less = [&](const Row& a, const Row& b) {
        ctx.CheckCancelledEvery(&task_check);
        return less(a, b);
      };
      std::stable_sort(out->rows.begin(), out->rows.end(), task_less);
      return out;
    }, "sort");
  }

  std::vector<Row> merged = locally_sorted.Collect();
  std::stable_sort(merged.begin(), merged.end(), checked_less);
  if (top_k && merged.size() > static_cast<size_t>(limit_)) {
    merged.resize(static_cast<size_t>(limit_));
  }
  return RowDataset::SinglePartition(std::move(merged));
}

std::shared_ptr<RowPartition> SortExec::TopKPartition(
    QueryContext& ctx, const RowPartition& part, size_t k,
    const ExprVector& keys, const std::vector<bool>& ascending,
    const std::function<bool(const Row&, const Row&)>& less) const {
  auto out = std::make_shared<RowPartition>();
  if (k == 0) return out;

  size_t task_check = 0;
  auto compare_keys = [&](const std::vector<Value>& a,
                          const std::vector<Value>& b) {
    ctx.CheckCancelledEvery(&task_check);
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return ascending[i] ? c : -c;
    }
    return 0;
  };
  // A kept row: its order-key values, evaluated once, and its position in
  // the partition. Candidates order by keys, then by position — the order a
  // stable sort leaves — so the heap's front is the worst row kept.
  struct Candidate {
    std::vector<Value> keys;
    size_t pos;
    int64_t bytes;
  };
  auto before = [&](const Candidate& a, const Candidate& b) {
    int c = compare_keys(a.keys, b.keys);
    return c != 0 ? c < 0 : a.pos < b.pos;
  };

  const bool budgeted = ctx.memory().limited();
  MemoryReservation reservation = ctx.memory().CreateReservation();
  int64_t used = 0;
  std::vector<Candidate> heap;
  heap.reserve(std::min(k, part.rows.size()));
  std::vector<Value> probe(keys.size());
  for (size_t pos = 0; pos < part.rows.size(); ++pos) {
    const Row& row = part.rows[pos];
    for (size_t i = 0; i < keys.size(); ++i) probe[i] = keys[i]->Eval(row);
    if (heap.size() == k) {
      // A later row displaces the worst kept one only when its keys sort
      // strictly before it; on a tie the earlier position wins.
      if (compare_keys(probe, heap.front().keys) >= 0) continue;
      std::pop_heap(heap.begin(), heap.end(), before);
      used -= heap.back().bytes;
      heap.back().keys.swap(probe);
      heap.back().pos = pos;
    } else {
      heap.push_back(Candidate{probe, pos, 0});
    }
    if (budgeted) {
      heap.back().bytes = EstimateRowBytes(row);
      used += heap.back().bytes;
      if (!reservation.EnsureReserved(used)) {
        reservation.Release();
        auto sorted = ExternalSortPartition(ctx, part, less);
        if (sorted->rows.size() > k) sorted->rows.resize(k);
        return sorted;
      }
    }
    std::push_heap(heap.begin(), heap.end(), before);
  }

  std::sort_heap(heap.begin(), heap.end(), before);
  out->rows.reserve(heap.size());
  for (const Candidate& c : heap) out->rows.push_back(part.rows[c.pos]);
  return out;
}

std::shared_ptr<RowPartition> SortExec::ExternalSortPartition(
    QueryContext& ctx, const RowPartition& part,
    const std::function<bool(const Row&, const Row&)>& less) const {
  size_t task_check = 0;
  auto task_less = [&](const Row& a, const Row& b) {
    ctx.CheckCancelledEvery(&task_check);
    return less(a, b);
  };

  // Phase 1: accumulate rows into a budgeted buffer; when a grant is denied
  // the buffer becomes a stable-sorted run on disk and the buffer restarts.
  MemoryReservation reservation = ctx.memory().CreateReservation();
  std::vector<SpillFile> runs;
  std::vector<Row> buffer;
  int64_t used = 0;
  auto spill_run = [&] {
    std::stable_sort(buffer.begin(), buffer.end(), task_less);
    SpillFile run = ctx.MakeSpillFile("sort");
    int64_t wrote = 0;
    for (const Row& r : buffer) wrote += run.Append(r);
    run.FinishWrites();
    ctx.RecordSpill(1, wrote);
    runs.push_back(std::move(run));
    buffer.clear();
    used = 0;
    reservation.Release();
  };
  for (const Row& row : part.rows) {
    ctx.CheckCancelledEvery(&task_check);
    int64_t row_bytes = EstimateRowBytes(row);
    if (!reservation.EnsureReserved(used + row_bytes)) {
      if (!ctx.memory().spill_enabled()) {
        throw ExecutionError(ctx.memory().OverBudgetMessage("sort"));
      }
      if (!buffer.empty()) spill_run();
      // A single row is the irreducible working set; admit it even when the
      // budget (shared with concurrent partitions) is still exhausted.
      if (!reservation.EnsureReserved(row_bytes)) {
        reservation.ForceGrow(row_bytes);
      }
    }
    used += row_bytes;
    buffer.push_back(row);
  }
  std::stable_sort(buffer.begin(), buffer.end(), task_less);

  auto out = std::make_shared<RowPartition>();
  if (runs.empty()) {
    out->rows = std::move(buffer);
    return out;
  }

  // Phase 2: k-way merge of the run files plus the in-memory tail run.
  // Sources are ordered oldest-run-first with the tail last, and ties keep
  // the lowest source index, so the merge is stable overall.
  for (auto& run : runs) run.FinishWrites();
  std::vector<SpillFile::Reader> readers;
  readers.reserve(runs.size());
  for (auto& run : runs) readers.emplace_back(run);
  size_t tail_pos = 0;
  std::vector<std::optional<Row>> heads(readers.size() + 1);
  auto advance = [&](size_t src) {
    heads[src].reset();
    if (src < readers.size()) {
      Row row;
      if (readers[src].Next(&row)) heads[src] = std::move(row);
    } else if (tail_pos < buffer.size()) {
      heads[src] = std::move(buffer[tail_pos++]);
    }
  };
  for (size_t s = 0; s < heads.size(); ++s) advance(s);
  out->rows.reserve(part.rows.size());
  while (true) {
    ctx.CheckCancelledEvery(&task_check);
    int best = -1;
    for (size_t s = 0; s < heads.size(); ++s) {
      if (!heads[s]) continue;
      if (best < 0 || task_less(*heads[s], *heads[best])) {
        best = static_cast<int>(s);
      }
    }
    if (best < 0) break;
    out->rows.push_back(std::move(*heads[best]));
    advance(static_cast<size_t>(best));
  }
  return out;  // `runs` goes out of scope here, deleting the spill files
}

std::string SortExec::Describe() const {
  std::string s = "Sort [";
  for (size_t i = 0; i < orders_.size(); ++i) {
    if (i > 0) s += ", ";
    s += orders_[i]->ToString();
  }
  s += "]";
  if (limit_ >= 0) s += ", limit=" + std::to_string(limit_);
  return s;
}

RowDataset LimitExec::ExecuteImpl(QueryContext& ctx) const {
  RowDataset input = child_->Execute(ctx);
  size_t limit = n_ < 0 ? 0 : static_cast<size_t>(n_);

  // Local limit bounds what each partition ships to the driver.
  RowDataset local = input.MapPartitions(ctx, [&](size_t, const RowPartition&
                                                              part) {
    auto out = std::make_shared<RowPartition>();
    size_t take = std::min(part.rows.size(), limit);
    out->rows.assign(part.rows.begin(), part.rows.begin() + take);
    return out;
  }, "limit");

  std::vector<Row> all = local.Collect();
  if (all.size() > limit) all.resize(limit);
  return RowDataset::SinglePartition(std::move(all));
}

}  // namespace ssql
