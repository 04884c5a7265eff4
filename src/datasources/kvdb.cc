#include "datasources/kvdb.h"

#include "columnar/column_vector.h"
#include "util/string_util.h"

namespace ssql {

KvdbDatabase& KvdbDatabase::Global() {
  static KvdbDatabase* db = new KvdbDatabase();
  return *db;
}

void KvdbDatabase::CreateTable(const std::string& name, SchemaPtr schema,
                               std::vector<Row> rows) {
  auto table = std::make_shared<Table>();
  table->schema = std::move(schema);
  table->rows = std::move(rows);
  std::lock_guard<std::mutex> lock(mu_);
  tables_[ToLower(name)] = std::move(table);
}

void KvdbDatabase::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.erase(ToLower(name));
}

std::shared_ptr<const KvdbDatabase::Table> KvdbDatabase::GetTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second;
}

std::vector<std::string> KvdbDatabase::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;
}

KvdbRelation::KvdbRelation(std::string table_name)
    : table_name_(std::move(table_name)) {}

std::shared_ptr<KvdbRelation> KvdbRelation::Open(const DataSourceOptions& options) {
  auto it = options.find("table");
  if (it == options.end()) {
    throw IoError("kvdb data source requires a 'table' option");
  }
  if (!KvdbDatabase::Global().GetTable(it->second)) {
    throw IoError("kvdb: no such table '" + it->second + "'");
  }
  return std::make_shared<KvdbRelation>(it->second);
}

SchemaPtr KvdbRelation::schema() const {
  auto table = KvdbDatabase::Global().GetTable(table_name_);
  if (!table) throw ExecutionError("kvdb table dropped: " + table_name_);
  return table->schema;
}

std::optional<uint64_t> KvdbRelation::EstimatedSizeBytes() const {
  auto table = KvdbDatabase::Global().GetTable(table_name_);
  if (!table) return std::nullopt;
  return table->rows.size() * EstimateBoxedRowBytes(*table->schema);
}

std::vector<Row> KvdbRelation::ScanFiltered(
    QueryContext& ctx, const std::vector<int>& columns,
    const std::vector<FilterSpec>& filters) const {
  auto table = KvdbDatabase::Global().GetTable(table_name_);
  if (!table) throw ExecutionError("kvdb table dropped: " + table_name_);

  std::vector<std::pair<int, const FilterSpec*>> bound;
  bound.reserve(filters.size());
  for (const auto& f : filters) {
    int idx = table->schema->FieldIndex(f.column);
    if (idx < 0) throw ExecutionError("kvdb: unknown filter column " + f.column);
    bound.emplace_back(idx, &f);
  }

  std::vector<Row> out;
  for (const Row& row : table->rows) {
    bool keep = true;
    for (const auto& [idx, spec] : bound) {
      if (!spec->Matches(row.Get(idx))) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    Row projected;
    projected.Reserve(columns.size());
    for (int c : columns) projected.Append(row.Get(c));
    out.push_back(std::move(projected));
  }
  ctx.metrics().Add("kvdb.rows_examined",
                    static_cast<int64_t>(table->rows.size()));
  ctx.metrics().Add("kvdb.rows_shipped", static_cast<int64_t>(out.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsScanned,
                    static_cast<int64_t>(table->rows.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsReturned,
                    static_cast<int64_t>(out.size()));
  return out;
}

std::vector<Row> KvdbRelation::ScanCatalyst(
    QueryContext& ctx, const std::vector<int>& columns,
    const ExprVector& predicates) const {
  auto table = KvdbDatabase::Global().GetTable(table_name_);
  if (!table) throw ExecutionError("kvdb table dropped: " + table_name_);

  std::vector<Row> out;
  for (const Row& row : table->rows) {
    bool keep = true;
    for (const auto& pred : predicates) {
      if (!EvalPredicate(*pred, row)) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    Row projected;
    projected.Reserve(columns.size());
    for (int c : columns) projected.Append(row.Get(c));
    out.push_back(std::move(projected));
  }
  ctx.metrics().Add("kvdb.rows_examined",
                    static_cast<int64_t>(table->rows.size()));
  ctx.metrics().Add("kvdb.rows_shipped", static_cast<int64_t>(out.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsScanned,
                    static_cast<int64_t>(table->rows.size()));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsReturned,
                    static_cast<int64_t>(out.size()));
  return out;
}

void RegisterKvdbSource(DataSourceRegistry& registry) {
  registry.Register("kvdb", [](const DataSourceOptions& options) {
    return KvdbRelation::Open(options);
  });
  registry.RegisterWriter(
      "kvdb", [](const DataSourceOptions& options, const SchemaPtr& schema,
                 const std::vector<Row>& rows, ThreadPool*) {
        auto it = options.find("table");
        if (it == options.end()) {
          throw IoError("kvdb writer requires a 'table' option");
        }
        KvdbDatabase::Global().CreateTable(it->second, schema, rows);
      });
}

}  // namespace ssql
