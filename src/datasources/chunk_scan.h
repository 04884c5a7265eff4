#ifndef SSQL_DATASOURCES_CHUNK_SCAN_H_
#define SSQL_DATASOURCES_CHUNK_SCAN_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/batch_dataset.h"
#include "columnar/encoding.h"
#include "datasources/data_source.h"
#include "engine/dataset.h"

namespace ssql {

/// One horizontal chunk of a columnar table as ChunkScan reads it: a row
/// count and one encoded column per schema field. A cached-table chunk's
/// columns carry their own payload; a colf row group's headers were parsed
/// from the file buffer, and `payloads` views each field's encoded bytes in
/// place there, so a file chunk decodes without its payload ever being
/// copied.
struct ColumnChunk {
  uint32_t num_rows = 0;
  const EncodedColumn* columns = nullptr;      // one per schema field
  const std::string_view* payloads = nullptr;  // null: columns[c].data
};

/// The per-chunk scan kernel shared by the natively columnar sources (colf
/// row groups and cached-table chunks). For each chunk: zone-map prune,
/// decode only the filter and requested columns, evaluate the pushed
/// filters exactly into a selection vector, then emit the live rows as
/// zero-copy RowBatch windows — or, for row consumers, as boxed rows.
class ChunkScan {
 public:
  /// Binds `filters` (which must outlive the kernel) to field ordinals of
  /// `schema`; an unknown filter column throws ExecutionError naming
  /// `source`. `columns` are the requested field ordinals, in output order
  /// (empty: rows carry only their existence, for COUNT(*)).
  ChunkScan(const StructType& schema, std::vector<int> columns,
            const std::vector<FilterSpec>& filters, const std::string& source);

  /// Zone-map check over one chunk's column headers: false when some
  /// filter cannot match any of its rows.
  bool MayMatch(const EncodedColumn* columns) const;

  /// Scans chunks [bounds[p], bounds[p+1]) into partition p, in chunk
  /// order, as one speculatable "scan" stage (one task per partition).
  /// Batches hold at most `batch_size` live rows; `columns` must be
  /// non-empty.
  BatchDataset ScanBatches(QueryContext& ctx,
                           const std::vector<ColumnChunk>& chunks,
                           const std::vector<size_t>& bounds,
                           size_t batch_size) const;

  /// Row form of ScanBatches, same partitions and row order.
  RowDataset ScanRows(QueryContext& ctx, const std::vector<ColumnChunk>& chunks,
                      const std::vector<size_t>& bounds) const;

 private:
  struct Selected {
    // Indexed by field ordinal; only filter and requested fields decoded.
    std::vector<std::shared_ptr<ColumnVector>> decoded;
    std::vector<uint32_t> sel;  // live physical rows when `filtered`
    bool filtered = false;
    size_t live = 0;
  };
  /// Decodes and selects one chunk; nullopt when its zone maps prune it.
  std::optional<Selected> Select(const ColumnChunk& chunk) const;
  void AppendBatches(const ColumnChunk& chunk, size_t batch_size,
                     BatchPartition* out) const;
  void AppendRows(const ColumnChunk& chunk, RowPartition* out) const;

  struct BoundFilter {
    int column;
    const FilterSpec* spec;
  };
  size_t num_fields_;
  std::vector<int> columns_;
  std::vector<BoundFilter> filters_;
};

/// Contiguous split of `num_chunks` chunks into `num_partitions` partitions
/// of near-equal chunk counts: partition p covers [bounds[p], bounds[p+1]).
std::vector<size_t> SplitChunks(size_t num_chunks, size_t num_partitions);

}  // namespace ssql

#endif  // SSQL_DATASOURCES_CHUNK_SCAN_H_
