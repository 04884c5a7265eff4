#include "engine/dataset.h"

#include "engine/query_context.h"

namespace ssql {

RowDataset RowDataset::FromRows(std::vector<Row> rows, size_t num_partitions) {
  if (num_partitions == 0) num_partitions = 1;
  std::vector<RowPartitionPtr> parts;
  parts.reserve(num_partitions);
  size_t total = rows.size();
  size_t base = total / num_partitions;
  size_t extra = total % num_partitions;
  size_t offset = 0;
  for (size_t p = 0; p < num_partitions; ++p) {
    size_t count = base + (p < extra ? 1 : 0);
    auto part = std::make_shared<RowPartition>();
    part->rows.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      part->rows.push_back(std::move(rows[offset + i]));
    }
    offset += count;
    parts.push_back(std::move(part));
  }
  return RowDataset(std::move(parts));
}

RowDataset LocalTable::Partitioned(size_t num_partitions) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = partitioned_.find(num_partitions);
  if (it == partitioned_.end()) {
    it = partitioned_
             .emplace(num_partitions,
                      RowDataset::FromRows(*rows_, num_partitions))
             .first;
  }
  return it->second;
}

RowDataset RowDataset::SinglePartition(std::vector<Row> rows) {
  auto part = std::make_shared<RowPartition>();
  part->rows = std::move(rows);
  return RowDataset({part});
}

size_t RowDataset::TotalRows() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p->rows.size();
  return n;
}

std::vector<Row> RowDataset::Collect() const {
  std::vector<Row> out;
  out.reserve(TotalRows());
  for (const auto& p : partitions_) {
    out.insert(out.end(), p->rows.begin(), p->rows.end());
  }
  return out;
}

RowDataset RowDataset::MapPartitions(
    QueryContext& ctx,
    const std::function<RowPartitionPtr(size_t, const RowPartition&)>& fn,
    const std::string& stage) const {
  // Two-phase (compute, then commit) so straggling partitions can run a
  // speculative duplicate: both attempts build their own partition from the
  // immutable input; whichever finishes first publishes into `out`.
  std::vector<RowPartitionPtr> out(partitions_.size());
  TaskRunner(ctx).RunStageSpeculatable(
      stage, partitions_.size(), [&](size_t i) -> TaskRunner::TaskCommitFn {
        RowPartitionPtr part = fn(i, *partitions_[i]);
        return [&out, i, part]() { out[i] = part; };
      });
  return RowDataset(std::move(out));
}

RowDataset RowDataset::ShuffleByHash(
    QueryContext& ctx, size_t num_out,
    const std::function<uint64_t(const Row&)>& key_hash,
    const std::string& stage) const {
  if (num_out == 0) num_out = 1;
  // Map side: each input partition writes `num_out` buckets. Two-phase:
  // every attempt buckets into its own local vector off the immutable input
  // rows, and only the winning attempt's commit publishes into the shared
  // `buckets` slot — so a speculative duplicate never half-overwrites a
  // straggler's output.
  std::vector<std::vector<std::vector<Row>>> buckets(partitions_.size());
  TaskRunner(ctx).RunStageSpeculatable(
      stage + ".map", partitions_.size(),
      [&](size_t i) -> TaskRunner::TaskCommitFn {
        auto local =
            std::make_shared<std::vector<std::vector<Row>>>(num_out);
        size_t cancel_check = 0;
        for (const Row& row : partitions_[i]->rows) {
          ctx.CheckCancelledEvery(&cancel_check);
          (*local)[key_hash(row) % num_out].push_back(row);
        }
        return [&buckets, i, local]() { buckets[i] = std::move(*local); };
      });

  // Track shuffle volume for benchmarks/tests; attributed to the operator
  // that launched the shuffle.
  size_t shuffled = TotalRows();
  ctx.profile().Add(nullptr, ProfileCounter::kShuffleRows,
                    static_cast<int64_t>(shuffled));

  // Reduce side: concatenate bucket `p` from every mapper. The move below
  // consumes the buckets, so everything that can throw (allocation aside)
  // must come before it — retries re-run the body from the top. Stays on
  // plain RunStage: the compute phase itself move-consumes shared state, so
  // two concurrent attempts of one partition would race; speculation is
  // only for bodies whose compute phase is side-effect-free.
  std::vector<RowPartitionPtr> out(num_out);
  TaskRunner(ctx).RunStage(stage + ".reduce", num_out, [&](size_t p) {
    auto part = std::make_shared<RowPartition>();
    size_t total = 0;
    for (const auto& local : buckets) total += local[p].size();
    part->rows.reserve(total);
    size_t cancel_check = 0;
    for (auto& local : buckets) {
      ctx.CheckCancelledEvery(&cancel_check);
      auto& b = local[p];
      part->rows.insert(part->rows.end(), std::make_move_iterator(b.begin()),
                        std::make_move_iterator(b.end()));
    }
    out[p] = std::move(part);
  });
  return RowDataset(std::move(out));
}

}  // namespace ssql
