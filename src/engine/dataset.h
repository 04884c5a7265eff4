#ifndef SSQL_ENGINE_DATASET_H_
#define SSQL_ENGINE_DATASET_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "types/row.h"

namespace ssql {

class QueryContext;

/// One horizontal slice of a dataset; the unit of parallel work, standing in
/// for a Spark partition living on some executor.
struct RowPartition {
  std::vector<Row> rows;
};

using RowPartitionPtr = std::shared_ptr<RowPartition>;

/// A partitioned collection of rows: the materialized form flowing between
/// physical operators (our RDD-of-rows). Partitions are immutable once
/// published so they can be shared/cached freely across plans.
class RowDataset {
 public:
  RowDataset() = default;
  explicit RowDataset(std::vector<RowPartitionPtr> partitions)
      : partitions_(std::move(partitions)) {}

  /// Builds a dataset by range-splitting `rows` into `num_partitions` slices.
  static RowDataset FromRows(std::vector<Row> rows, size_t num_partitions);

  /// Builds a single-partition dataset.
  static RowDataset SinglePartition(std::vector<Row> rows);

  size_t num_partitions() const { return partitions_.size(); }
  const RowPartitionPtr& partition(size_t i) const { return partitions_[i]; }
  const std::vector<RowPartitionPtr>& partitions() const { return partitions_; }

  size_t TotalRows() const;

  /// Gathers all partitions into one vector (the driver-side collect()).
  std::vector<Row> Collect() const;

  /// Applies `fn` to each partition in parallel on the context's pool,
  /// producing a new dataset with the same partition count. `fn` receives
  /// (partition_index, input_partition) and returns the output partition.
  /// Runs as one TaskRunner stage named `stage`, so partitions inherit the
  /// engine's failure contract (retry of RetryableError, sibling
  /// cancellation, fault injection keyed by the stage name). `fn` may be
  /// re-invoked for a partition after a retryable failure and must be
  /// idempotent.
  RowDataset MapPartitions(
      QueryContext& ctx,
      const std::function<RowPartitionPtr(size_t, const RowPartition&)>& fn,
      const std::string& stage = "map") const;

  /// Hash-repartitions rows into `num_out` partitions using `key_hash`,
  /// which maps a row to a 64-bit hash. This is the engine's shuffle; it
  /// runs as two TaskRunner stages, "<stage>.map" and "<stage>.reduce".
  RowDataset ShuffleByHash(QueryContext& ctx, size_t num_out,
                           const std::function<uint64_t(const Row&)>& key_hash,
                           const std::string& stage = "shuffle") const;

 private:
  std::vector<RowPartitionPtr> partitions_;
};

/// A LocalRelation's in-memory rows with their partitioned views.
/// Partitioning copies every row, so the view for each partition count is
/// built on first scan and then kept exactly as long as the table: every
/// plan over one DataFrame shares it, and it is freed with the DataFrame.
class LocalTable {
 public:
  explicit LocalTable(std::shared_ptr<const std::vector<Row>> rows)
      : rows_(std::move(rows)) {}

  const std::vector<Row>& rows() const { return *rows_; }
  const std::shared_ptr<const std::vector<Row>>& shared_rows() const {
    return rows_;
  }

  /// The rows range-split into `num_partitions` (RowDataset::FromRows).
  /// Thread-safe; concurrent first scans build the view once.
  RowDataset Partitioned(size_t num_partitions) const;

 private:
  std::shared_ptr<const std::vector<Row>> rows_;
  mutable std::mutex mu_;
  mutable std::map<size_t, RowDataset> partitioned_;
};

}  // namespace ssql

#endif  // SSQL_ENGINE_DATASET_H_
