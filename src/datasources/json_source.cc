#include "datasources/json_source.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "util/fault_points.h"
#include "util/string_util.h"

namespace ssql {

JsonRelation::JsonRelation(std::string path, SchemaPtr schema,
                           std::shared_ptr<const std::vector<JsonValue>> records,
                           int corrupt_column,
                           std::vector<std::string> corrupt_records,
                           size_t dropped_records)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      records_(std::move(records)),
      corrupt_column_(corrupt_column),
      corrupt_records_(std::move(corrupt_records)),
      dropped_records_(dropped_records) {}

std::shared_ptr<JsonRelation> JsonRelation::Open(const DataSourceOptions& options) {
  auto path_it = options.find("path");
  if (path_it == options.end()) {
    throw IoError("json data source requires a 'path' option");
  }
  const std::string& path = path_it->second;
  ParseMode mode = ParseMode::kFailFast;
  if (auto it = options.find("mode"); it != options.end()) {
    mode = ParseModeFromString(it->second);
  }
  std::string corrupt_name = kCorruptRecordColumn;
  if (auto it = options.find("columnNameOfCorruptRecord"); it != options.end()) {
    corrupt_name = it->second;
  }

  // All of this source's file I/O happens here at Open() time (records are
  // pre-parsed; ScanAll never touches the file), before any query exists —
  // so transient failures use the process-global fault points/retry policy.
  std::string text;
  const std::shared_ptr<const FaultPointSet> faults = GlobalFaultPoints();
  RunWithIoRetry(GlobalIoRetryPolicy(), "open JSON '" + path + "'", [&] {
    faults->MaybeFail("source.open", path);
    std::ifstream in(path);
    if (!in.good()) {
      throw IoError("cannot open JSON file: " + path + " (" +
                    std::strerror(errno) + ")");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad() || buffer.fail()) {
      // rdbuf() streaming swallows read errors; unchecked, a truncated read
      // would silently parse (and infer a schema from) a partial file.
      throw IoError("I/O error reading JSON file: " + path + " (" +
                    std::strerror(errno) + ")");
    }
    text = buffer.str();
  });

  auto records = std::make_shared<std::vector<JsonValue>>();
  std::vector<std::string> corrupt;
  size_t dropped = 0;
  try {
    // Fast path: parse the whole buffer at once (handles objects spanning
    // lines and the single top-level array form).
    *records = ParseJsonLines(text);
  } catch (const ParseError&) {
    // Salvage pass: re-parse record by record so malformed lines can be
    // reported with their 1-based line number (FAILFAST), dropped, or kept
    // as corrupt records. Each line is treated as one record here, like
    // Spark's line-delimited JSON reader.
    records->clear();
    size_t line_no = 0;
    size_t start = 0;
    while (start <= text.size()) {
      size_t end = text.find('\n', start);
      size_t len = (end == std::string::npos ? text.size() : end) - start;
      std::string line = text.substr(start, len);
      start = end == std::string::npos ? text.size() + 1 : end + 1;
      ++line_no;
      if (Trim(line).empty()) continue;
      try {
        records->push_back(ParseJson(line));
      } catch (const ParseError&) {
        switch (mode) {
          case ParseMode::kFailFast:
            throw ParseError(FormatRecordError("malformed JSON record", path,
                                               line_no, line));
          case ParseMode::kDropMalformed:
            ++dropped;
            break;
          case ParseMode::kPermissive:
            corrupt.push_back(std::move(line));
            break;
        }
      }
    }
  }

  double sampling_ratio = 1.0;
  if (auto it = options.find("samplingRatio"); it != options.end()) {
    ParseDouble(it->second, &sampling_ratio);
  }
  // Inference only sees well-formed records (Section 5.1: the algorithm
  // "handles corrupt records gracefully").
  SchemaPtr schema;
  if (sampling_ratio >= 1.0 || records->empty()) {
    schema = InferSchema(*records);
  } else {
    // Deterministic stride sample, Section 5.1's "can also be run on a
    // sample of the data if desired".
    size_t stride = static_cast<size_t>(1.0 / std::max(0.01, sampling_ratio));
    std::vector<JsonValue> sample;
    for (size_t i = 0; i < records->size(); i += stride) {
      sample.push_back((*records)[i]);
    }
    schema = InferSchema(sample);
  }

  // Under PERMISSIVE the raw text of malformed records is surfaced in an
  // extra string column appended to the schema.
  int corrupt_column = -1;
  if (mode == ParseMode::kPermissive) {
    std::vector<Field> fields;
    for (size_t i = 0; i < schema->num_fields(); ++i) {
      fields.push_back(schema->field(i));
    }
    corrupt_column = static_cast<int>(fields.size());
    fields.emplace_back(corrupt_name, DataType::String(), true);
    schema = StructType::Make(std::move(fields));
  }

  return std::make_shared<JsonRelation>(
      path, std::move(schema),
      std::shared_ptr<const std::vector<JsonValue>>(std::move(records)),
      corrupt_column, std::move(corrupt), dropped);
}

std::optional<uint64_t> JsonRelation::EstimatedSizeBytes() const {
  struct stat st;
  if (stat(path_.c_str(), &st) != 0) return std::nullopt;
  return static_cast<uint64_t>(st.st_size);
}

std::vector<Row> JsonRelation::ScanAll(QueryContext& ctx) const {
  std::vector<Row> rows;
  rows.reserve(records_->size() + corrupt_records_.size());
  size_t cancel_check = 0;
  for (const JsonValue& r : *records_) {
    ctx.CheckCancelledEvery(&cancel_check);
    rows.push_back(JsonToRow(r, *schema_));
  }
  for (const std::string& raw : corrupt_records_) {
    ctx.CheckCancelledEvery(&cancel_check);
    Row row;
    row.Reserve(schema_->num_fields());
    for (size_t i = 0; i < schema_->num_fields(); ++i) {
      row.Append(static_cast<int>(i) == corrupt_column_ ? Value(raw)
                                                        : Value::Null());
    }
    rows.push_back(std::move(row));
  }
  ctx.profile().Add(nullptr, ProfileCounter::kRowsScanned,
                    static_cast<int64_t>(rows.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsReturned,
                    static_cast<int64_t>(rows.size()));
  ctx.profile().Add(
      nullptr, ProfileCounter::kMalformedRecords,
      static_cast<int64_t>(corrupt_records_.size() + dropped_records_));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsDropped,
                    static_cast<int64_t>(dropped_records_));
  return rows;
}

void RegisterJsonSource(DataSourceRegistry& registry) {
  registry.Register("json", [](const DataSourceOptions& options) {
    return JsonRelation::Open(options);
  });
  registry.RegisterWriter(
      "json", [](const DataSourceOptions& options, const SchemaPtr& schema,
                 const std::vector<Row>& rows, ThreadPool*) {
        auto it = options.find("path");
        if (it == options.end()) {
          throw IoError("json writer requires a 'path' option");
        }
        std::ofstream out(it->second, std::ios::trunc);
        if (!out.good()) {
          throw IoError("cannot open JSON file for write: " + it->second);
        }
        for (const Row& row : rows) {
          out << RowToJson(row, *schema) << "\n";
        }
        CloseWrittenFile(out, "JSON", it->second);
      });
}

}  // namespace ssql
