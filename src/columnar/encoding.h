#ifndef SSQL_COLUMNAR_ENCODING_H_
#define SSQL_COLUMNAR_ENCODING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/column_vector.h"
#include "types/row.h"

namespace ssql {

/// Columnar compression schemes (Section 3.6: "columnar compression
/// schemes such as dictionary encoding and run-length encoding" reduce
/// memory footprint by an order of magnitude vs boxed objects).
enum class ColumnEncoding : uint8_t {
  kPlain = 0,
  kRunLength = 1,
  kDictionary = 2,
  kBoxed = 3,  // complex types kept as Values (cache only, not on disk)
};

/// An encoded column chunk with zone-map statistics; the unit stored by
/// both the in-memory cache and the colf file format.
struct EncodedColumn {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  DataTypePtr type;
  uint32_t num_rows = 0;
  std::vector<uint8_t> data;   // encoded payload (atomic types)
  std::vector<Value> boxed;    // payload for kBoxed
  bool has_nulls = false;
  // Zone map over non-null values; unset for all-null or boxed columns.
  std::optional<Value> min;
  std::optional<Value> max;

  size_t MemoryBytes() const;
};

/// Encodes a column, choosing the cheapest of plain / RLE / dictionary by
/// measured payload size. Complex-typed columns become kBoxed.
EncodedColumn EncodeColumn(const ColumnVector& column);

/// Encodes rows [begin, end) column by column (EncodeColumn per field of
/// `schema`): one cache chunk or colf row group.
std::vector<EncodedColumn> EncodeRows(const StructType& schema,
                                      const Row* begin, const Row* end);

/// Encodes with a specific scheme (exposed for tests and the encoding
/// ablation bench). Falls back to plain for unsupported combinations.
EncodedColumn EncodeColumnAs(const ColumnVector& column, ColumnEncoding scheme);

/// Decodes back to a ColumnVector; exact round-trip.
ColumnVector DecodeColumn(const EncodedColumn& column);

/// Decodes `column`'s scheme from a payload held outside it (`column.data`
/// is ignored): the colf reader decodes straight from its file buffer.
/// Bounds-checked; a short or corrupt payload throws IoError.
ColumnVector DecodeColumn(const EncodedColumn& column,
                          std::string_view payload);

/// Forward declaration: FilterSpec lives in the datasources layer; the
/// zone-map check is declared there (ColumnChunkMayMatch in
/// datasources/data_source.h) to keep this layer below it.

/// Serializes / deserializes an encoded column for the colf file format.
/// Boxed columns are not supported on disk.
void SerializeColumn(const EncodedColumn& column, std::string* out);
EncodedColumn DeserializeColumn(const std::string& in, size_t* offset,
                                const DataTypePtr& type);

/// Reads one serialized column's header (scheme, row count, zone map) at
/// `*offset` and points `payload` at its encoded bytes inside `in` without
/// copying them; advances `*offset` past the payload. The returned column's
/// `data` stays empty. Bounds-checked like DeserializeColumn.
EncodedColumn ReadColumnHeader(std::string_view in, size_t* offset,
                               const DataTypePtr& type,
                               std::string_view* payload);

}  // namespace ssql

#endif  // SSQL_COLUMNAR_ENCODING_H_
