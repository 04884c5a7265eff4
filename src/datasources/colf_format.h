#ifndef SSQL_DATASOURCES_COLF_FORMAT_H_
#define SSQL_DATASOURCES_COLF_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/encoding.h"
#include "datasources/data_source.h"
#include "util/thread_pool.h"

namespace ssql {

/// "colf" — a columnar binary file format playing Parquet's role from the
/// paper (Section 4.4.1: "a columnar file format for which we support
/// column pruning as well as filters"). Layout:
///
///   magic "COLF1"
///   schema string (length-prefixed, "name type, ...")
///   u32 row-group count
///   per row group: u32 row count, then one serialized EncodedColumn per
///   field (dictionary/RLE/plain chosen per chunk, with min/max zone maps)
///
/// Scans are natively columnar and parallel. One driver pass reads the
/// file, validates the header, walks the row-group headers and applies the
/// zone maps to skip whole groups that cannot match the pushed filters —
/// copying no column payload. The surviving groups are then split into
/// contiguous partitions, one speculatable "scan" task each, and decoded by
/// the shared ChunkScan kernel (datasources/chunk_scan.h): only the filter
/// and requested columns, decoded in place from the file buffer, filters
/// evaluated exactly into a selection vector. Batch consumers get RowBatch
/// windows; row consumers get boxed rows with the same partitioning.
class ColfRelation : public BaseRelation,
                     public PrunedFilteredScan,
                     public PartitionedScan,
                     public BatchedScan {
 public:
  ColfRelation(std::string path, SchemaPtr schema);

  static std::shared_ptr<ColfRelation> Open(const DataSourceOptions& options);

  std::string name() const override { return "colf:" + path_; }
  SchemaPtr schema() const override { return schema_; }
  std::optional<uint64_t> EstimatedSizeBytes() const override;

  std::vector<Row> ScanFiltered(
      QueryContext& ctx, const std::vector<int>& columns,
      const std::vector<FilterSpec>& filters) const override;

  RowDataset ScanPartitions(
      QueryContext& ctx, const std::vector<int>& columns,
      const std::vector<FilterSpec>& filters) const override;

  BatchDataset ScanBatches(QueryContext& ctx, const std::vector<int>& columns,
                           const std::vector<FilterSpec>& filters,
                           size_t batch_size) const override;

 private:
  std::string path_;
  SchemaPtr schema_;
};

/// Writes rows into a colf file with `row_group_size` rows per group. Each
/// row group is encoded as one task on `pool` (inline when null) and the
/// groups are written in order, so the file does not depend on which.
/// Throws IoError naming the path when the file cannot be written in full.
void WriteColfFile(const std::string& path, const SchemaPtr& schema,
                   const std::vector<Row>& rows, size_t row_group_size = 4096,
                   ThreadPool* pool = nullptr);

/// Reads just the schema from a colf file header.
SchemaPtr ReadColfSchema(const std::string& path);

}  // namespace ssql

#endif  // SSQL_DATASOURCES_COLF_FORMAT_H_
