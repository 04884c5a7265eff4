#include "api/dataframe.h"

#include <iostream>

#include "api/sql_context.h"
#include "datasources/data_source.h"
#include "catalyst/expr/aggregates.h"
#include "util/string_util.h"

namespace ssql {

DataFrame::DataFrame(SqlContext* ctx, PlanPtr logical_plan) : ctx_(ctx) {
  // Eager analysis (Section 3.4): "Spark SQL reports an error as soon as
  // user types an invalid line of code instead of waiting until execution."
  plan_ = ctx_->Analyze(std::move(logical_plan));
}

SchemaPtr DataFrame::schema() const {
  std::vector<Field> fields;
  for (const auto& attr : plan_->Output()) {
    fields.emplace_back(attr->name(), attr->data_type(), attr->nullable());
  }
  return StructType::Make(std::move(fields));
}

Column DataFrame::operator()(const std::string& dotted_name) const {
  // Resolve eagerly against this plan's output so errors surface here and
  // the returned Column carries the exact attribute identity (needed for
  // self-disambiguation in joins).
  auto parts = Split(dotted_name, '.');
  AttributeVector out = plan_->Output();
  for (const auto& attr : out) {
    if (EqualsIgnoreCase(attr->name(), parts[0])) {
      if (parts.size() == 1) return Column(attr);
      // Nested access: let the analyzer finish the path resolution later.
      return Column(UnresolvedAttribute::Make(parts));
    }
  }
  // Qualified form t.col.
  if (parts.size() >= 2) {
    for (const auto& attr : out) {
      if (EqualsIgnoreCase(attr->qualifier(), parts[0]) &&
          EqualsIgnoreCase(attr->name(), parts[1])) {
        if (parts.size() == 2) return Column(attr);
        return Column(UnresolvedAttribute::Make(parts));
      }
    }
  }
  throw AnalysisError("no column '" + dotted_name + "' in schema " +
                      schema()->ToString());
}

DataFrame DataFrame::Select(const std::vector<Column>& columns) const {
  std::vector<NamedExprPtr> projections;
  projections.reserve(columns.size());
  for (const auto& c : columns) {
    projections.push_back(ToNamed(c.expr(), c.expr()->ToString()));
  }
  return DataFrame(ctx_, Project::Make(std::move(projections), plan_));
}

DataFrame DataFrame::Select(const std::vector<std::string>& names) const {
  std::vector<Column> columns;
  columns.reserve(names.size());
  for (const auto& n : names) columns.push_back((*this)(n));
  return Select(columns);
}

DataFrame DataFrame::Where(const Column& condition) const {
  return DataFrame(ctx_, Filter::Make(condition.expr(), plan_));
}

GroupedData DataFrame::GroupBy(const std::vector<Column>& columns) const {
  ExprVector groupings;
  groupings.reserve(columns.size());
  for (const auto& c : columns) groupings.push_back(c.expr());
  return GroupedData(ctx_, plan_, std::move(groupings));
}

GroupedData DataFrame::GroupBy(const std::vector<std::string>& names) const {
  std::vector<Column> columns;
  columns.reserve(names.size());
  for (const auto& n : names) columns.push_back((*this)(n));
  return GroupBy(columns);
}

DataFrame DataFrame::Join(const DataFrame& right, const Column& condition,
                          JoinType type) const {
  return DataFrame(ctx_,
                   ssql::Join::Make(plan_, right.plan_, type, condition.expr()));
}

DataFrame DataFrame::CrossJoin(const DataFrame& right) const {
  return DataFrame(ctx_,
                   ssql::Join::Make(plan_, right.plan_, JoinType::kCross, nullptr));
}

DataFrame DataFrame::OrderBy(const std::vector<Column>& orders) const {
  std::vector<std::shared_ptr<const SortOrder>> sort_orders;
  sort_orders.reserve(orders.size());
  for (const auto& c : orders) {
    if (auto so = std::dynamic_pointer_cast<const SortOrder>(c.expr())) {
      sort_orders.push_back(std::move(so));
    } else {
      sort_orders.push_back(SortOrder::Make(c.expr(), /*ascending=*/true));
    }
  }
  return DataFrame(ctx_, Sort::Make(std::move(sort_orders), plan_));
}

DataFrame DataFrame::Limit(int64_t n) const {
  return DataFrame(ctx_, ssql::Limit::Make(n, plan_));
}

DataFrame DataFrame::UnionAll(const DataFrame& other) const {
  return DataFrame(ctx_, Union::Make({plan_, other.plan_}));
}

DataFrame DataFrame::Distinct() const {
  return DataFrame(ctx_, ssql::Distinct::Make(plan_));
}

DataFrame DataFrame::Sample(double fraction, uint64_t seed) const {
  return DataFrame(ctx_, ssql::Sample::Make(fraction, seed, plan_));
}

DataFrame DataFrame::As(const std::string& alias) const {
  return DataFrame(ctx_, SubqueryAlias::Make(alias, plan_));
}

DataFrame DataFrame::WithColumn(const std::string& name,
                                const Column& column) const {
  std::vector<Column> columns;
  for (const auto& attr : plan_->Output()) columns.push_back(Column(attr));
  columns.push_back(column.As(name));
  return Select(columns);
}

std::vector<Row> DataFrame::Collect() const {
  return ctx_->Execute(plan_).Collect();
}

int64_t DataFrame::Count() const {
  // COUNT(*) through the full optimizer, so column pruning etc. apply.
  std::vector<NamedExprPtr> aggs = {Alias::Make(ssql::Count::Star(), "count")};
  PlanPtr count_plan = Aggregate::Make({}, std::move(aggs), plan_);
  std::vector<Row> rows = ctx_->Execute(count_plan).Collect();
  return rows.empty() ? 0 : rows[0].GetInt64(0);
}

void DataFrame::Show(size_t n) const {
  AttributeVector out = plan_->Output();
  std::string header;
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) header += " | ";
    header += out[i]->name();
  }
  std::cout << header << "\n"
            << std::string(std::max<size_t>(header.size(), 8), '-') << "\n";
  std::vector<Row> rows = ctx_->Execute(plan_).Collect();
  for (size_t i = 0; i < rows.size() && i < n; ++i) {
    std::string line;
    for (size_t c = 0; c < rows[i].size(); ++c) {
      if (c > 0) line += " | ";
      line += rows[i].Get(c).ToString();
    }
    std::cout << line << "\n";
  }
  if (rows.size() > n) {
    std::cout << "... (" << rows.size() - n << " more rows)\n";
  }
}

Row DataFrame::First() const {
  std::vector<Row> rows = DataFrame(ctx_, ssql::Limit::Make(1, plan_)).Collect();
  if (rows.empty()) throw ExecutionError("First() on empty DataFrame");
  return rows[0];
}

void DataFrame::Save(const std::string& provider,
                     const std::map<std::string, std::string>& options) const {
  DataSourceRegistry::Global().Write(provider, options, schema(), Collect(),
                                     ctx_->exec().PinPool().get());
  // Rewriting a destination through the write path invalidates any ANALYZE
  // TABLE stats recorded against it; source display names are
  // "<provider>:<location>", where the location option is provider-specific.
  for (const char* key : {"path", "table", "name"}) {
    auto it = options.find(key);
    if (it != options.end()) {
      ctx_->catalog().stats().MarkStaleBySourceName(provider + ":" +
                                                    it->second);
    }
  }
}

std::shared_ptr<RDD<Row>> DataFrame::ToRdd() const {
  RowDataset data = ctx_->Execute(plan_);
  auto partitions =
      std::make_shared<std::vector<RowPartitionPtr>>(data.partitions());
  return std::make_shared<RDD<Row>>(
      &ctx_->exec(), partitions->size(), [partitions](size_t p) {
        return (*partitions)[p]->rows;
      });
}

void DataFrame::RegisterTempTable(const std::string& name) const {
  ctx_->catalog().RegisterTable(name, plan_);
}

DataFrame DataFrame::Cache() const {
  ctx_->CachePlan(plan_);
  return *this;
}

std::string DataFrame::Explain(bool extended) const {
  return Explain(extended ? ExplainMode::kExtended : ExplainMode::kSimple);
}

std::string DataFrame::Explain(ExplainMode mode) const {
  return ctx_->ExplainText(plan_, mode);
}

DataFrame GroupedData::Agg(const std::vector<Column>& aggregates) const {
  std::vector<NamedExprPtr> outputs;
  outputs.reserve(groupings_.size() + aggregates.size());
  for (const auto& g : groupings_) {
    outputs.push_back(ToNamed(g, g->ToString()));
  }
  for (const auto& a : aggregates) {
    outputs.push_back(ToNamed(a.expr(), a.expr()->ToString()));
  }
  return DataFrame(ctx_, Aggregate::Make(groupings_, std::move(outputs), child_));
}

namespace {

Column NamedAgg(const std::string& fn, const std::string& column,
                const Column& agg) {
  return agg.As(fn + "(" + column + ")");
}

}  // namespace

DataFrame GroupedData::Avg(const std::string& column) const {
  DataFrame df(ctx_, child_);
  return Agg({NamedAgg("avg", column, functions::Avg(df(column)))});
}
DataFrame GroupedData::Sum(const std::string& column) const {
  DataFrame df(ctx_, child_);
  return Agg({NamedAgg("sum", column, functions::Sum(df(column)))});
}
DataFrame GroupedData::Min(const std::string& column) const {
  DataFrame df(ctx_, child_);
  return Agg({NamedAgg("min", column, functions::Min(df(column)))});
}
DataFrame GroupedData::Max(const std::string& column) const {
  DataFrame df(ctx_, child_);
  return Agg({NamedAgg("max", column, functions::Max(df(column)))});
}
DataFrame GroupedData::Count() const {
  return Agg({functions::CountStar().As("count")});
}

}  // namespace ssql
