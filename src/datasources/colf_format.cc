#include "datasources/colf_format.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <sys/stat.h>

#include "datasources/chunk_scan.h"
#include "util/fault_points.h"
#include "util/string_util.h"

namespace ssql {

namespace {

constexpr char kMagic[] = "COLF1";
constexpr size_t kMagicLen = 5;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const std::string& in, size_t* pos, const std::string& path) {
  // Bounds-checked: a truncated file must surface as IoError, not as
  // undefined behaviour indexing past the buffer.
  if (*pos > in.size() || in.size() - *pos < 4) {
    throw IoError("truncated colf file: " + path + " (need 4 bytes at offset " +
                  std::to_string(*pos) + ", have " +
                  std::to_string(in.size() - std::min(*pos, in.size())) + ")");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos])) << (8 * i);
    ++(*pos);
  }
  return v;
}

std::string SchemaToString(const StructType& schema) {
  std::string out;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) out += ", ";
    const Field& f = schema.field(i);
    out += f.name + " " + f.type->ToString();
  }
  return out;
}

/// Reads the whole file into one pre-sized buffer. Not retried here: each
/// caller wraps its whole pass over the bytes in RunWithIoRetry.
std::string ReadWholeFile(const std::string& path, const FaultPointSet& faults) {
  faults.MaybeFail("source.open", path);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) throw IoError("cannot open colf file: " + path);
  const std::streamoff size = in.tellg();
  std::string data(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  in.seekg(0);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  if (size < 0 || in.bad() || in.fail() ||
      in.gcount() != static_cast<std::streamsize>(data.size())) {
    // Unchecked, a failed or short read here would scan a silently
    // truncated byte buffer.
    throw IoError("I/O error reading colf file: " + path);
  }
  return data;
}

/// Validates the magic and reads the schema string; leaves `*pos` after it.
std::string ReadSchemaHeader(const std::string& data, const std::string& path,
                             size_t* pos) {
  if (data.size() < kMagicLen ||
      std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
    throw IoError("not a colf file: " + path);
  }
  *pos = kMagicLen;
  uint32_t len = GetU32(data, pos, path);
  if (len > data.size() - *pos) {
    throw IoError("truncated colf file: " + path +
                  " (schema extends past end of file)");
  }
  std::string schema = data.substr(*pos, len);
  *pos += len;
  return schema;
}

/// The driver pass of a scan: the file read once, the header validated, and
/// the row-group headers walked and zone-mapped. Surviving groups keep their
/// parsed headers plus views of their payloads inside `file`; no payload is
/// copied.
struct RowGroups {
  std::string file;
  std::vector<std::vector<EncodedColumn>> headers;
  std::vector<std::vector<std::string_view>> payloads;
  std::vector<ColumnChunk> chunks;
  int64_t rows_scanned = 0;
  int64_t skipped = 0;
};

void ReadRowGroups(QueryContext& ctx, const std::string& path,
                   const StructType& schema, const ChunkScan& kernel,
                   RowGroups* out) {
  const FaultPointSet& faults = ctx.fault_points();
  // The whole pass is one retry body (state reset first, so attempts are
  // idempotent): a transient open/read failure rereads the file.
  RunWithIoRetry(ctx.io_retry_policy(), "read colf '" + path + "'", [&] {
    *out = RowGroups();
    out->file = ReadWholeFile(path, faults);
    const std::string& data = out->file;
    size_t pos = 0;
    if (ReadSchemaHeader(data, path, &pos) != SchemaToString(schema)) {
      throw IoError("colf file schema changed since it was opened: " + path);
    }
    uint32_t num_groups = GetU32(data, &pos, path);
    for (uint32_t g = 0; g < num_groups; ++g) {
      faults.MaybeFail("source.read", path);
      uint32_t group_rows = GetU32(data, &pos, path);
      std::vector<EncodedColumn> headers;
      std::vector<std::string_view> payloads(schema.num_fields());
      headers.reserve(schema.num_fields());
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        try {
          headers.push_back(ReadColumnHeader(data, &pos, schema.field(c).type,
                                             &payloads[c]));
        } catch (const IoError& e) {
          throw IoError("truncated colf file: " + path + " (" + e.what() + ")");
        }
        if (headers.back().num_rows != group_rows) {
          throw IoError("corrupt colf file: " + path + " (row group " +
                        std::to_string(g) + " column " + std::to_string(c) +
                        " has " + std::to_string(headers.back().num_rows) +
                        " rows, group has " + std::to_string(group_rows) + ")");
        }
      }
      if (!kernel.MayMatch(headers.data())) {
        ++out->skipped;
        continue;
      }
      out->rows_scanned += group_rows;
      out->chunks.push_back({group_rows});
      out->headers.push_back(std::move(headers));
      out->payloads.push_back(std::move(payloads));
    }
  });
  for (size_t g = 0; g < out->chunks.size(); ++g) {
    out->chunks[g].columns = out->headers[g].data();
    out->chunks[g].payloads = out->payloads[g].data();
  }
}

/// Runs a scan: the driver pass, then `scan(kernel, chunks, bounds)` over
/// min(surviving groups, default_parallelism) contiguous partitions (at
/// least one), then the source counters.
template <typename Dataset, typename ScanFn>
Dataset ScanColf(QueryContext& ctx, const std::string& path,
                 const StructType& schema, const std::vector<int>& columns,
                 const std::vector<FilterSpec>& filters, const ScanFn& scan) {
  ChunkScan kernel(schema, columns, filters, "colf");
  RowGroups groups;
  ReadRowGroups(ctx, path, schema, kernel, &groups);
  size_t parts = std::max<size_t>(
      1, std::min(groups.chunks.size(), ctx.config().default_parallelism));
  Dataset out =
      scan(kernel, groups.chunks, SplitChunks(groups.chunks.size(), parts));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsScanned, groups.rows_scanned);
  ctx.profile().Add(nullptr, ProfileCounter::kRowsReturned,
                    static_cast<int64_t>(out.TotalRows()));
  ctx.metrics().Add("colf.row_groups_skipped", groups.skipped);
  return out;
}

}  // namespace

void WriteColfFile(const std::string& path, const SchemaPtr& schema,
                   const std::vector<Row>& rows, size_t row_group_size,
                   ThreadPool* pool) {
  if (row_group_size == 0) row_group_size = 4096;
  std::string header;
  header.append(kMagic, kMagicLen);
  std::string schema_str = SchemaToString(*schema);
  PutU32(&header, static_cast<uint32_t>(schema_str.size()));
  header += schema_str;
  uint32_t num_groups =
      static_cast<uint32_t>((rows.size() + row_group_size - 1) / row_group_size);
  PutU32(&header, num_groups);
  std::vector<std::string> groups(num_groups);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_groups);
  for (uint32_t g = 0; g < num_groups; ++g) {
    size_t begin = g * row_group_size;
    size_t end = std::min(rows.size(), begin + row_group_size);
    tasks.push_back([&, begin, end, out = &groups[g]] {
      PutU32(out, static_cast<uint32_t>(end - begin));
      for (const EncodedColumn& column :
           EncodeRows(*schema, rows.data() + begin, rows.data() + end)) {
        SerializeColumn(column, out);
      }
    });
  }
  RunAllOn(pool, std::move(tasks));
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.good()) throw IoError("cannot open colf file for write: " + path);
  f.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const std::string& group : groups) {
    f.write(group.data(), static_cast<std::streamsize>(group.size()));
  }
  CloseWrittenFile(f, "colf", path);
}

SchemaPtr ReadColfSchema(const std::string& path) {
  // Open()-time read: no query exists yet, so use the process-global fault
  // points and retry policy (see util/fault_points.h).
  std::string schema;
  RunWithIoRetry(GlobalIoRetryPolicy(), "read colf '" + path + "'", [&] {
    std::string data = ReadWholeFile(path, *GlobalFaultPoints());
    size_t pos = 0;
    schema = ReadSchemaHeader(data, path, &pos);
  });
  return ParseSchemaString(schema);
}

ColfRelation::ColfRelation(std::string path, SchemaPtr schema)
    : path_(std::move(path)), schema_(std::move(schema)) {}

std::shared_ptr<ColfRelation> ColfRelation::Open(const DataSourceOptions& options) {
  auto path_it = options.find("path");
  if (path_it == options.end()) {
    throw IoError("colf data source requires a 'path' option");
  }
  return std::make_shared<ColfRelation>(path_it->second,
                                        ReadColfSchema(path_it->second));
}

std::optional<uint64_t> ColfRelation::EstimatedSizeBytes() const {
  struct stat st;
  if (stat(path_.c_str(), &st) != 0) return std::nullopt;
  return static_cast<uint64_t>(st.st_size);
}

std::vector<Row> ColfRelation::ScanFiltered(
    QueryContext& ctx, const std::vector<int>& columns,
    const std::vector<FilterSpec>& filters) const {
  return ScanPartitions(ctx, columns, filters).Collect();
}

RowDataset ColfRelation::ScanPartitions(
    QueryContext& ctx, const std::vector<int>& columns,
    const std::vector<FilterSpec>& filters) const {
  return ScanColf<RowDataset>(
      ctx, path_, *schema_, columns, filters,
      [&](const ChunkScan& kernel, const std::vector<ColumnChunk>& chunks,
          const std::vector<size_t>& bounds) {
        return kernel.ScanRows(ctx, chunks, bounds);
      });
}

BatchDataset ColfRelation::ScanBatches(QueryContext& ctx,
                                       const std::vector<int>& columns,
                                       const std::vector<FilterSpec>& filters,
                                       size_t batch_size) const {
  return ScanColf<BatchDataset>(
      ctx, path_, *schema_, columns, filters,
      [&](const ChunkScan& kernel, const std::vector<ColumnChunk>& chunks,
          const std::vector<size_t>& bounds) {
        return kernel.ScanBatches(ctx, chunks, bounds, batch_size);
      });
}

void RegisterColfSource(DataSourceRegistry& registry) {
  registry.Register("colf", [](const DataSourceOptions& options) {
    return ColfRelation::Open(options);
  });
  registry.RegisterWriter(
      "colf", [](const DataSourceOptions& options, const SchemaPtr& schema,
                 const std::vector<Row>& rows, ThreadPool* pool) {
        auto it = options.find("path");
        if (it == options.end()) {
          throw IoError("colf writer requires a 'path' option");
        }
        size_t group = 4096;
        if (auto g = options.find("row_group_size"); g != options.end()) {
          int64_t v = 0;
          if (ParseInt64(g->second, &v) && v > 0) group = static_cast<size_t>(v);
        }
        WriteColfFile(it->second, schema, rows, group, pool);
      });
}

}  // namespace ssql
