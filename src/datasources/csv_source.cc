#include "datasources/csv_source.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sys/stat.h>

#include "catalyst/expr/cast.h"
#include "util/fault_points.h"
#include "util/string_util.h"

namespace ssql {

namespace {

std::vector<std::string> SplitCsvLine(const std::string& line, char delimiter) {
  // Simple unquoted CSV; adequate for machine-generated data.
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = line.find(delimiter, start);
    if (pos == std::string::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

/// Narrowest type among int64 -> double -> date -> string matching `cell`.
DataTypePtr InferCellType(const std::string& cell) {
  int64_t i;
  if (ParseInt64(cell, &i)) return DataType::Int64();
  double d;
  if (ParseDouble(cell, &d)) return DataType::Double();
  DateValue date;
  if (ParseDate(cell, &date)) return DataType::Date();
  return DataType::String();
}

/// Most specific supertype for CSV column inference.
DataTypePtr MergeCellTypes(const DataTypePtr& a, const DataTypePtr& b) {
  if (a->Equals(*b)) return a;
  if (a->id() == TypeId::kNull) return b;
  if (b->id() == TypeId::kNull) return a;
  if (a->IsNumeric() && b->IsNumeric()) return DataType::Double();
  return DataType::String();
}

Value ParseCell(const std::string& cell, const DataType& type) {
  if (cell.empty()) return Value::Null();
  return Cast::Convert(Value(cell), type);
}

}  // namespace

CsvRelation::CsvRelation(std::string path, SchemaPtr schema, bool header,
                         char delimiter, ParseMode mode, bool strict,
                         int corrupt_column)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      header_(header),
      delimiter_(delimiter),
      mode_(mode),
      strict_(strict),
      corrupt_column_(corrupt_column) {}

std::shared_ptr<CsvRelation> CsvRelation::Open(const DataSourceOptions& options) {
  auto path_it = options.find("path");
  if (path_it == options.end()) {
    throw IoError("csv data source requires a 'path' option");
  }
  const std::string& path = path_it->second;
  bool header = true;
  if (auto it = options.find("header"); it != options.end()) {
    header = EqualsIgnoreCase(it->second, "true");
  }
  char delimiter = ',';
  if (auto it = options.find("delimiter"); it != options.end()) {
    if (!it->second.empty()) delimiter = it->second[0];
  }
  ParseMode mode = ParseMode::kPermissive;
  bool strict = false;
  if (auto it = options.find("mode"); it != options.end()) {
    mode = ParseModeFromString(it->second);
    strict = true;
  }
  std::string corrupt_name = kCorruptRecordColumn;
  if (auto it = options.find("columnNameOfCorruptRecord"); it != options.end()) {
    corrupt_name = it->second;
    strict = true;
  }

  SchemaPtr explicit_schema;
  if (auto it = options.find("schema"); it != options.end()) {
    explicit_schema = ParseSchemaString(it->second);
  }

  // Open + schema-inference sample run before any query exists, so transient
  // failures use the process-global fault points / retry policy. The body is
  // idempotent: all inference state is local to one attempt.
  SchemaPtr schema;
  const std::shared_ptr<const FaultPointSet> faults = GlobalFaultPoints();
  RunWithIoRetry(GlobalIoRetryPolicy(), "open CSV '" + path + "'", [&] {
    faults->MaybeFail("source.open", path);
    std::ifstream in(path);
    if (!in.good()) {
      throw IoError("cannot open CSV file: " + path + " (" +
                    std::strerror(errno) + ")");
    }
    if (explicit_schema) {
      schema = explicit_schema;
      return;
    }
    // Infer from a sample of up to 100 data lines.
    std::string line;
    std::vector<std::string> names;
    std::vector<DataTypePtr> types;
    bool first = true;
    int sampled = 0;
    while (std::getline(in, line) && sampled < 100) {
      if (line.empty()) continue;
      auto cells = SplitCsvLine(line, delimiter);
      if (first) {
        first = false;
        if (header) {
          for (const auto& c : cells) names.push_back(std::string(Trim(c)));
          continue;
        }
        for (size_t i = 0; i < cells.size(); ++i) {
          names.push_back("_c" + std::to_string(i));
        }
      }
      ++sampled;
      for (size_t i = 0; i < cells.size() && i < names.size(); ++i) {
        DataTypePtr t =
            cells[i].empty() ? DataType::Null() : InferCellType(cells[i]);
        if (types.size() <= i) {
          types.resize(names.size(), DataType::Null());
        }
        types[i] = MergeCellTypes(types[i], t);
      }
    }
    if (in.bad()) {
      // getline stops on error as well as EOF — without this check a read
      // failure mid-sample would silently infer from a truncated prefix.
      throw IoError("I/O error reading CSV file: " + path + " (" +
                    std::strerror(errno) + ")");
    }
    if (names.empty()) throw IoError("empty CSV file: " + path);
    types.resize(names.size(), DataType::String());
    std::vector<Field> fields;
    for (size_t i = 0; i < names.size(); ++i) {
      DataTypePtr t =
          types[i]->id() == TypeId::kNull ? DataType::String() : types[i];
      fields.emplace_back(names[i], t);
    }
    schema = StructType::Make(std::move(fields));
  });

  // Under an explicit PERMISSIVE mode the raw text of malformed records is
  // surfaced in an extra string column appended to the schema.
  int corrupt_column = -1;
  if (strict && mode == ParseMode::kPermissive) {
    std::vector<Field> fields;
    for (size_t i = 0; i < schema->num_fields(); ++i) {
      fields.push_back(schema->field(i));
    }
    corrupt_column = static_cast<int>(fields.size());
    fields.emplace_back(corrupt_name, DataType::String(), true);
    schema = StructType::Make(std::move(fields));
  }

  return std::make_shared<CsvRelation>(path, std::move(schema), header,
                                       delimiter, mode, strict, corrupt_column);
}

std::optional<uint64_t> CsvRelation::EstimatedSizeBytes() const {
  struct stat st;
  if (stat(path_.c_str(), &st) != 0) return std::nullopt;
  return static_cast<uint64_t>(st.st_size);
}

std::vector<Row> CsvRelation::ScanAll(QueryContext& ctx) const {
  size_t data_fields = schema_->num_fields() - (corrupt_column_ >= 0 ? 1 : 0);
  std::vector<Row> rows;
  const FaultPointSet& faults = ctx.fault_points();
  // The whole scan is one retry body: a transient open/read failure rereads
  // the file from the top (rows are cleared first, so attempts are
  // idempotent). Non-I/O failures — ParseError, cancellation — propagate.
  RunWithIoRetry(ctx.io_retry_policy(), "scan CSV '" + path_ + "'", [&] {
  rows.clear();
  faults.MaybeFail("source.open", path_);
  std::ifstream in(path_);
  if (!in.good()) {
    throw IoError("cannot open CSV file: " + path_ + " (" +
                  std::strerror(errno) + ")");
  }
  std::string line;
  bool skip_header = header_;
  size_t line_no = 0;
  size_t malformed_count = 0, dropped = 0;
  size_t cancel_check = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (skip_header) {
      skip_header = false;
      continue;
    }
    ctx.CheckCancelledEvery(&cancel_check);
    faults.MaybeFail("source.read", path_);
    // Corrupt-kind faults flip a bit in the raw line before parsing: unlike
    // the CRC-framed spill path there is no checksum here, so the flip rides
    // the existing malformed-record machinery (strict mode rejects what no
    // longer parses; lenient mode nulls the bad cell).
    faults.MaybeCorrupt("source.read", &line);
    auto cells = SplitCsvLine(line, delimiter_);

    // A record is malformed when its cell count does not match the schema
    // or a non-empty cell cannot be converted to its column's type. Only
    // detected under an explicit mode; the lenient default repairs instead
    // (null-pad short rows, ignore extras, bad cells become null).
    bool malformed = strict_ && cells.size() != data_fields;
    Row row;
    row.Reserve(schema_->num_fields());
    for (size_t i = 0; i < data_fields && !malformed; ++i) {
      if (i < cells.size()) {
        Value v = ParseCell(cells[i], *schema_->field(i).type);
        if (strict_ && v.is_null() && !cells[i].empty() &&
            schema_->field(i).type->id() != TypeId::kString) {
          malformed = true;
          break;
        }
        row.Append(std::move(v));
      } else {
        row.Append(Value::Null());
      }
    }
    if (malformed) {
      ++malformed_count;
      switch (mode_) {
        case ParseMode::kFailFast:
          ctx.profile().Add(nullptr, ProfileCounter::kMalformedRecords,
                            static_cast<int64_t>(malformed_count));
          throw ParseError(
              FormatRecordError("malformed CSV record", path_, line_no, line));
        case ParseMode::kDropMalformed:
          ++dropped;
          continue;
        case ParseMode::kPermissive: {
          row = Row();
          row.Reserve(schema_->num_fields());
          for (size_t i = 0; i < data_fields; ++i) row.Append(Value::Null());
          row.Append(Value(line));  // the corrupt-record column
          break;
        }
      }
    } else if (corrupt_column_ >= 0) {
      row.Append(Value::Null());
    }
    rows.push_back(std::move(row));
  }
  if (in.bad()) {
    // A stream error ends getline exactly like EOF; unchecked, a file
    // truncated or yanked mid-scan would return a silent partial result.
    throw IoError("I/O error reading CSV file: " + path_ + " (" +
                  std::strerror(errno) + ")");
  }
  ctx.profile().Add(nullptr, ProfileCounter::kRowsScanned,
                    static_cast<int64_t>(rows.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsReturned,
                    static_cast<int64_t>(rows.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kMalformedRecords,
                    static_cast<int64_t>(malformed_count));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsDropped,
                    static_cast<int64_t>(dropped));
  });  // end retry body
  return rows;
}

void CsvRelation::Write(const std::string& path, const SchemaPtr& schema,
                        const std::vector<Row>& rows, char delimiter) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw IoError("cannot open CSV file for write: " + path);
  for (size_t i = 0; i < schema->num_fields(); ++i) {
    if (i > 0) out << delimiter;
    out << schema->field(i).name;
  }
  out << "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << delimiter;
      if (!row.IsNullAt(i)) out << row.Get(i).ToString();
    }
    out << "\n";
  }
  CloseWrittenFile(out, "CSV", path);
}

void RegisterCsvSource(DataSourceRegistry& registry) {
  registry.Register("csv", [](const DataSourceOptions& options) {
    return CsvRelation::Open(options);
  });
  registry.RegisterWriter(
      "csv", [](const DataSourceOptions& options, const SchemaPtr& schema,
                const std::vector<Row>& rows, ThreadPool*) {
        auto it = options.find("path");
        if (it == options.end()) {
          throw IoError("csv writer requires a 'path' option");
        }
        char delimiter = ',';
        if (auto d = options.find("delimiter"); d != options.end()) {
          if (!d->second.empty()) delimiter = d->second[0];
        }
        CsvRelation::Write(it->second, schema, rows, delimiter);
      });
}

}  // namespace ssql
