#include "datasources/chunk_scan.h"

#include <algorithm>

#include "engine/task_runner.h"

namespace ssql {

namespace {

/// Runs `append(chunk, partition)` over each partition's chunk range as one
/// speculatable "scan" stage. Each attempt builds a private partition from
/// immutable chunks, so retries and speculative duplicates are idempotent;
/// only the committing attempt publishes into the result.
template <typename Partition, typename AppendFn>
std::vector<std::shared_ptr<Partition>> RunScanStage(
    QueryContext& ctx, const std::vector<ColumnChunk>& chunks,
    const std::vector<size_t>& bounds, const AppendFn& append) {
  const size_t parts = bounds.empty() ? 0 : bounds.size() - 1;
  std::vector<std::shared_ptr<Partition>> out(parts);
  TaskRunner(ctx).RunStageSpeculatable(
      "scan", parts, [&](size_t p) -> TaskRunner::TaskCommitFn {
        auto part = std::make_shared<Partition>();
        size_t cancel_rows = 0;
        for (size_t i = bounds[p]; i < bounds[p + 1]; ++i) {
          ctx.CheckCancelledEveryRows(&cancel_rows, chunks[i].num_rows);
          append(chunks[i], part.get());
        }
        return [&out, p, part] { out[p] = part; };
      });
  return out;
}

}  // namespace

ChunkScan::ChunkScan(const StructType& schema, std::vector<int> columns,
                     const std::vector<FilterSpec>& filters,
                     const std::string& source)
    : num_fields_(schema.num_fields()), columns_(std::move(columns)) {
  filters_.reserve(filters.size());
  for (const auto& f : filters) {
    int idx = schema.FieldIndex(f.column);
    if (idx < 0) {
      throw ExecutionError(source + ": unknown filter column " + f.column);
    }
    filters_.push_back({idx, &f});
  }
}

bool ChunkScan::MayMatch(const EncodedColumn* columns) const {
  for (const auto& f : filters_) {
    if (!ColumnChunkMayMatch(columns[f.column], *f.spec)) return false;
  }
  return true;
}

std::optional<ChunkScan::Selected> ChunkScan::Select(
    const ColumnChunk& chunk) const {
  if (!MayMatch(chunk.columns)) return std::nullopt;
  Selected s;
  s.decoded.resize(num_fields_);
  auto ensure = [&](int c) {
    if (s.decoded[c]) return;
    s.decoded[c] = std::make_shared<ColumnVector>(
        chunk.payloads ? DecodeColumn(chunk.columns[c], chunk.payloads[c])
                       : DecodeColumn(chunk.columns[c]));
  };
  for (const auto& f : filters_) ensure(f.column);
  for (int c : columns_) ensure(c);
  s.filtered = !filters_.empty();
  if (!s.filtered) {
    s.live = chunk.num_rows;
    return s;
  }
  s.sel.reserve(chunk.num_rows);
  for (uint32_t r = 0; r < chunk.num_rows; ++r) {
    bool keep = true;
    for (const auto& f : filters_) {
      if (!f.spec->Matches(s.decoded[f.column]->GetValue(r))) {
        keep = false;
        break;
      }
    }
    if (keep) s.sel.push_back(r);
  }
  s.live = s.sel.size();
  return s;
}

void ChunkScan::AppendBatches(const ColumnChunk& chunk, size_t batch_size,
                              BatchPartition* out) const {
  std::optional<Selected> s = Select(chunk);
  if (!s || s->live == 0) return;
  std::vector<std::shared_ptr<ColumnVector>> cols;
  cols.reserve(columns_.size());
  for (int c : columns_) cols.push_back(s->decoded[c]);
  auto whole = std::make_shared<const RowBatch>(std::move(cols));
  if (!s->filtered && s->live <= batch_size) {
    out->batches.push_back(std::move(whole));
    return;
  }
  // Zero-copy windows: every batch shares the decoded chunk columns and
  // selects one ascending run of live rows.
  for (size_t start = 0; start < s->live; start += batch_size) {
    size_t end = std::min(start + batch_size, s->live);
    std::vector<uint32_t> window;
    if (s->filtered) {
      window.assign(s->sel.begin() + static_cast<long>(start),
                    s->sel.begin() + static_cast<long>(end));
    } else {
      window.reserve(end - start);
      for (size_t k = start; k < end; ++k) {
        window.push_back(static_cast<uint32_t>(k));
      }
    }
    out->batches.push_back(RowBatch::FilterView(whole, std::move(window)));
  }
}

void ChunkScan::AppendRows(const ColumnChunk& chunk, RowPartition* out) const {
  std::optional<Selected> s = Select(chunk);
  if (!s) return;
  out->rows.reserve(out->rows.size() + s->live);
  for (size_t k = 0; k < s->live; ++k) {
    size_t r = s->filtered ? s->sel[k] : k;
    Row row;
    row.Reserve(columns_.size());
    for (int c : columns_) row.Append(s->decoded[c]->GetValue(r));
    out->rows.push_back(std::move(row));
  }
}

BatchDataset ChunkScan::ScanBatches(QueryContext& ctx,
                                    const std::vector<ColumnChunk>& chunks,
                                    const std::vector<size_t>& bounds,
                                    size_t batch_size) const {
  if (batch_size == 0) batch_size = 1;
  return BatchDataset(RunScanStage<BatchPartition>(
      ctx, chunks, bounds,
      [&](const ColumnChunk& chunk, BatchPartition* part) {
        AppendBatches(chunk, batch_size, part);
      }));
}

RowDataset ChunkScan::ScanRows(QueryContext& ctx,
                               const std::vector<ColumnChunk>& chunks,
                               const std::vector<size_t>& bounds) const {
  return RowDataset(RunScanStage<RowPartition>(
      ctx, chunks, bounds, [&](const ColumnChunk& chunk, RowPartition* part) {
        AppendRows(chunk, part);
      }));
}

std::vector<size_t> SplitChunks(size_t num_chunks, size_t num_partitions) {
  if (num_partitions == 0) num_partitions = 1;
  std::vector<size_t> bounds(num_partitions + 1);
  for (size_t p = 0; p <= num_partitions; ++p) {
    bounds[p] = num_chunks * p / num_partitions;
  }
  return bounds;
}

}  // namespace ssql
