#ifndef SSQL_CATALYST_PLAN_LOGICAL_PLAN_H_
#define SSQL_CATALYST_PLAN_LOGICAL_PLAN_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalyst/expr/attribute.h"
#include "catalyst/expr/expression.h"
#include "engine/dataset.h"
#include "types/schema.h"

namespace ssql {

class LogicalPlan;
using PlanPtr = std::shared_ptr<const LogicalPlan>;
using PlanVector = std::vector<PlanPtr>;
using PlanRewrite = std::function<PlanPtr(const PlanPtr&)>;

/// How much EXPLAIN reveals. Lives next to the logical plan because both
/// the SQL front end (EXPLAIN statements) and the DataFrame API
/// (DataFrame::Explain) consume it.
enum class ExplainMode {
  kSimple,    // physical plan only
  kExtended,  // analyzed + optimized logical plans, join selection, physical
  kAnalyze,   // run the query, then render the plan with actuals
};

/// Base class of logical operators — the second tree family of Catalyst
/// (Section 4.3): analysis and logical optimization are rewrites over these
/// nodes, sharing the same TransformUp/TransformDown machinery as
/// expressions.
class LogicalPlan : public std::enable_shared_from_this<LogicalPlan> {
 public:
  virtual ~LogicalPlan() = default;

  virtual std::string NodeName() const = 0;
  virtual PlanVector Children() const = 0;
  virtual PlanPtr WithNewChildren(PlanVector children) const = 0;

  /// The attributes this operator produces, with stable expression IDs.
  virtual AttributeVector Output() const = 0;

  /// Expressions embedded in this node (projections, conditions, ...).
  virtual ExprVector Expressions() const { return {}; }
  /// Rebuilds this node with rewritten expressions (same arity/order as
  /// Expressions()).
  virtual PlanPtr WithNewExpressions(ExprVector exprs) const;

  /// Resolved when all children and all embedded expressions are resolved.
  virtual bool resolved() const;

  /// One-line description used in EXPLAIN output.
  virtual std::string Describe() const;

  /// Indented multi-line plan rendering (EXPLAIN).
  std::string TreeString() const;

  PlanPtr TransformUp(const PlanRewrite& rule) const;
  PlanPtr TransformDown(const PlanRewrite& rule) const;

  /// Rewrites every expression in every node of the plan tree —
  /// Catalyst's transformAllExpressions, used by e.g. DecimalAggregates.
  PlanPtr TransformAllExpressions(const ExprRewrite& rule) const;

  /// Applies the expression rewrite to this node's expressions only.
  PlanPtr MapExpressions(const ExprRewrite& rule) const;

  void Foreach(const std::function<void(const LogicalPlan&)>& fn) const;

  bool Equals(const LogicalPlan& other) const {
    return TreeString() == other.TreeString();
  }

  PlanPtr self() const { return shared_from_this(); }

 private:
  void TreeStringInternal(int indent, std::string* out) const;
};

template <typename T>
const T* AsPlan(const PlanPtr& p) {
  return dynamic_cast<const T*>(p.get());
}
template <typename T>
const T* AsPlan(const LogicalPlan& p) {
  return dynamic_cast<const T*>(&p);
}

// ---------------------------------------------------------------------------
// Leaf nodes
// ---------------------------------------------------------------------------

/// A table name the analyzer has not yet looked up in the Catalog.
class UnresolvedRelation : public LogicalPlan {
 public:
  explicit UnresolvedRelation(std::string name) : name_(std::move(name)) {}
  static PlanPtr Make(std::string name) {
    return std::make_shared<UnresolvedRelation>(std::move(name));
  }
  const std::string& name() const { return name_; }

  std::string NodeName() const override { return "UnresolvedRelation"; }
  PlanVector Children() const override { return {}; }
  PlanPtr WithNewChildren(PlanVector) const override { return self(); }
  AttributeVector Output() const override {
    throw AnalysisError("unresolved relation '" + name_ + "'");
  }
  bool resolved() const override { return false; }
  std::string Describe() const override {
    return "UnresolvedRelation " + name_;
  }

 private:
  std::string name_;
};

/// Driver-local rows with a schema (DataFrames created from vectors, the
/// results of `parallelize`, parser literals, ...).
class LocalRelation : public LogicalPlan {
 public:
  LocalRelation(AttributeVector output, std::shared_ptr<const std::vector<Row>> rows)
      : output_(std::move(output)),
        table_(std::make_shared<const LocalTable>(std::move(rows))) {}

  static PlanPtr Make(AttributeVector output, std::vector<Row> rows) {
    return std::make_shared<LocalRelation>(
        std::move(output), std::make_shared<const std::vector<Row>>(std::move(rows)));
  }
  /// Builds output attributes from a schema, assigning fresh expr IDs.
  static PlanPtr FromSchema(const SchemaPtr& schema, std::vector<Row> rows);

  const std::vector<Row>& rows() const { return table_->rows(); }
  std::shared_ptr<const std::vector<Row>> shared_rows() const {
    return table_->shared_rows();
  }
  /// The rows plus their partitioned views, shared with LocalTableScanExec.
  const std::shared_ptr<const LocalTable>& table() const { return table_; }

  std::string NodeName() const override { return "LocalRelation"; }
  PlanVector Children() const override { return {}; }
  PlanPtr WithNewChildren(PlanVector) const override { return self(); }
  AttributeVector Output() const override { return output_; }
  std::string Describe() const override;

 private:
  AttributeVector output_;
  std::shared_ptr<const LocalTable> table_;
};

/// Minimal interface a data source relation exposes to the planner; the
/// full data source API (scan interfaces, pushdown) lives in
/// datasources/data_source.h which implements this.
class SourceRelation {
 public:
  virtual ~SourceRelation() = default;
  /// Display name, e.g. "csv:/tmp/users.csv".
  virtual std::string name() const = 0;
  /// Full schema of the underlying data.
  virtual SchemaPtr schema() const = 0;
  /// Estimated total size in bytes, if known — drives broadcast join
  /// selection (Section 4.3.3, footnote 5).
  virtual std::optional<uint64_t> EstimatedSizeBytes() const {
    return std::nullopt;
  }
  /// Whether the source can evaluate `conjunct` itself (predicate
  /// pushdown, Section 4.4.1). Sources that return true must filter
  /// exactly; the optimizer then removes the conjunct from the plan.
  virtual bool CanHandleFilter(const Expression& conjunct) const {
    (void)conjunct;
    return false;
  }
};

/// A scan over an external data source. Carries the pruned column set and
/// pushed-down filters the optimizer has negotiated (Section 4.4.1); both
/// start maximal/empty and are narrowed by rules.
class LogicalRelation : public LogicalPlan {
 public:
  LogicalRelation(std::shared_ptr<SourceRelation> source, AttributeVector full_output,
                  std::vector<int> required_columns, ExprVector pushed_filters)
      : source_(std::move(source)),
        full_output_(std::move(full_output)),
        required_columns_(std::move(required_columns)),
        pushed_filters_(std::move(pushed_filters)) {}

  /// Creates a scan of all columns with fresh attribute IDs.
  static PlanPtr Make(std::shared_ptr<SourceRelation> source);

  const std::shared_ptr<SourceRelation>& source() const { return source_; }
  const AttributeVector& full_output() const { return full_output_; }
  const std::vector<int>& required_columns() const { return required_columns_; }
  const ExprVector& pushed_filters() const { return pushed_filters_; }

  /// Copy with a narrower column set (ColumnPruning rule).
  PlanPtr WithRequiredColumns(std::vector<int> cols) const;
  /// Copy with additional pushed-down filter conjuncts.
  PlanPtr WithPushedFilters(ExprVector filters) const;

  std::string NodeName() const override { return "Relation"; }
  PlanVector Children() const override { return {}; }
  PlanPtr WithNewChildren(PlanVector) const override { return self(); }
  AttributeVector Output() const override;
  std::string Describe() const override;

 private:
  std::shared_ptr<SourceRelation> source_;
  AttributeVector full_output_;
  std::vector<int> required_columns_;
  ExprVector pushed_filters_;
};

// ---------------------------------------------------------------------------
// Unary nodes
// ---------------------------------------------------------------------------

/// SELECT list / DataFrame Select().
class Project : public LogicalPlan {
 public:
  Project(std::vector<NamedExprPtr> projections, PlanPtr child)
      : projections_(std::move(projections)), child_(std::move(child)) {}
  static PlanPtr Make(std::vector<NamedExprPtr> projections, PlanPtr child) {
    return std::make_shared<Project>(std::move(projections), std::move(child));
  }

  const std::vector<NamedExprPtr>& projections() const { return projections_; }
  const PlanPtr& child() const { return child_; }

  std::string NodeName() const override { return "Project"; }
  PlanVector Children() const override { return {child_}; }
  PlanPtr WithNewChildren(PlanVector c) const override {
    return Make(projections_, c[0]);
  }
  AttributeVector Output() const override;
  ExprVector Expressions() const override;
  PlanPtr WithNewExpressions(ExprVector exprs) const override;
  bool resolved() const override;
  std::string Describe() const override;

 private:
  std::vector<NamedExprPtr> projections_;
  PlanPtr child_;
};

/// WHERE / DataFrame Where().
class Filter : public LogicalPlan {
 public:
  Filter(ExprPtr condition, PlanPtr child)
      : condition_(std::move(condition)), child_(std::move(child)) {}
  static PlanPtr Make(ExprPtr condition, PlanPtr child) {
    return std::make_shared<Filter>(std::move(condition), std::move(child));
  }

  const ExprPtr& condition() const { return condition_; }
  const PlanPtr& child() const { return child_; }

  std::string NodeName() const override { return "Filter"; }
  PlanVector Children() const override { return {child_}; }
  PlanPtr WithNewChildren(PlanVector c) const override {
    return Make(condition_, c[0]);
  }
  AttributeVector Output() const override { return child_->Output(); }
  ExprVector Expressions() const override { return {condition_}; }
  PlanPtr WithNewExpressions(ExprVector exprs) const override {
    return Make(exprs[0], child_);
  }
  std::string Describe() const override {
    return "Filter " + condition_->ToString();
  }

 private:
  ExprPtr condition_;
  PlanPtr child_;
};

/// GROUP BY / DataFrame GroupBy().Agg(). `aggregates` is the full output
/// list (grouping columns and/or aggregate expressions, possibly nested in
/// arithmetic).
class Aggregate : public LogicalPlan {
 public:
  Aggregate(ExprVector groupings, std::vector<NamedExprPtr> aggregates,
            PlanPtr child)
      : groupings_(std::move(groupings)),
        aggregates_(std::move(aggregates)),
        child_(std::move(child)) {}
  static PlanPtr Make(ExprVector groupings, std::vector<NamedExprPtr> aggregates,
                      PlanPtr child) {
    return std::make_shared<Aggregate>(std::move(groupings), std::move(aggregates),
                                       std::move(child));
  }

  const ExprVector& groupings() const { return groupings_; }
  const std::vector<NamedExprPtr>& aggregates() const { return aggregates_; }
  const PlanPtr& child() const { return child_; }

  std::string NodeName() const override { return "Aggregate"; }
  PlanVector Children() const override { return {child_}; }
  PlanPtr WithNewChildren(PlanVector c) const override {
    return Make(groupings_, aggregates_, c[0]);
  }
  AttributeVector Output() const override;
  ExprVector Expressions() const override;
  PlanPtr WithNewExpressions(ExprVector exprs) const override;
  bool resolved() const override;
  std::string Describe() const override;

 private:
  ExprVector groupings_;
  std::vector<NamedExprPtr> aggregates_;
  PlanPtr child_;
};

/// Sort key: an expression plus direction. Modeled as an expression so the
/// generic transform machinery reaches through it.
class SortOrder : public Expression {
 public:
  SortOrder(ExprPtr child, bool ascending)
      : child_(std::move(child)), ascending_(ascending) {}
  static std::shared_ptr<const SortOrder> Make(ExprPtr child, bool ascending) {
    return std::make_shared<SortOrder>(std::move(child), ascending);
  }
  const ExprPtr& child() const { return child_; }
  bool ascending() const { return ascending_; }

  std::string NodeName() const override { return "SortOrder"; }
  ExprVector Children() const override { return {child_}; }
  ExprPtr WithNewChildren(ExprVector c) const override {
    return Make(c[0], ascending_);
  }
  DataTypePtr data_type() const override { return child_->data_type(); }
  Value Eval(const Row& row) const override { return child_->Eval(row); }
  std::string ToString() const override {
    return child_->ToString() + (ascending_ ? " ASC" : " DESC");
  }

 private:
  ExprPtr child_;
  bool ascending_;
};

/// ORDER BY.
class Sort : public LogicalPlan {
 public:
  Sort(std::vector<std::shared_ptr<const SortOrder>> orders, PlanPtr child)
      : orders_(std::move(orders)), child_(std::move(child)) {}
  static PlanPtr Make(std::vector<std::shared_ptr<const SortOrder>> orders,
                      PlanPtr child) {
    return std::make_shared<Sort>(std::move(orders), std::move(child));
  }

  const std::vector<std::shared_ptr<const SortOrder>>& orders() const {
    return orders_;
  }
  const PlanPtr& child() const { return child_; }

  std::string NodeName() const override { return "Sort"; }
  PlanVector Children() const override { return {child_}; }
  PlanPtr WithNewChildren(PlanVector c) const override { return Make(orders_, c[0]); }
  AttributeVector Output() const override { return child_->Output(); }
  ExprVector Expressions() const override;
  PlanPtr WithNewExpressions(ExprVector exprs) const override;
  std::string Describe() const override;

 private:
  std::vector<std::shared_ptr<const SortOrder>> orders_;
  PlanPtr child_;
};

/// LIMIT n.
class Limit : public LogicalPlan {
 public:
  Limit(int64_t n, PlanPtr child) : n_(n), child_(std::move(child)) {}
  static PlanPtr Make(int64_t n, PlanPtr child) {
    return std::make_shared<Limit>(n, std::move(child));
  }
  int64_t n() const { return n_; }
  const PlanPtr& child() const { return child_; }

  std::string NodeName() const override { return "Limit"; }
  PlanVector Children() const override { return {child_}; }
  PlanPtr WithNewChildren(PlanVector c) const override { return Make(n_, c[0]); }
  AttributeVector Output() const override { return child_->Output(); }
  std::string Describe() const override {
    return "Limit " + std::to_string(n_);
  }

 private:
  int64_t n_;
  PlanPtr child_;
};

/// SELECT DISTINCT.
class Distinct : public LogicalPlan {
 public:
  explicit Distinct(PlanPtr child) : child_(std::move(child)) {}
  static PlanPtr Make(PlanPtr child) {
    return std::make_shared<Distinct>(std::move(child));
  }
  const PlanPtr& child() const { return child_; }

  std::string NodeName() const override { return "Distinct"; }
  PlanVector Children() const override { return {child_}; }
  PlanPtr WithNewChildren(PlanVector c) const override { return Make(c[0]); }
  AttributeVector Output() const override { return child_->Output(); }
  std::string Describe() const override { return "Distinct"; }

 private:
  PlanPtr child_;
};

/// Names a subtree; output attributes gain the alias as qualifier, so
/// `t.col` resolves (FROM x AS t / registerTempTable).
class SubqueryAlias : public LogicalPlan {
 public:
  SubqueryAlias(std::string alias, PlanPtr child)
      : alias_(std::move(alias)), child_(std::move(child)) {}
  static PlanPtr Make(std::string alias, PlanPtr child) {
    return std::make_shared<SubqueryAlias>(std::move(alias), std::move(child));
  }
  const std::string& alias() const { return alias_; }
  const PlanPtr& child() const { return child_; }

  std::string NodeName() const override { return "SubqueryAlias"; }
  PlanVector Children() const override { return {child_}; }
  PlanPtr WithNewChildren(PlanVector c) const override { return Make(alias_, c[0]); }
  AttributeVector Output() const override;
  std::string Describe() const override { return "SubqueryAlias " + alias_; }

 private:
  std::string alias_;
  PlanPtr child_;
};

/// Bernoulli sample of the child (used by tests and the online-aggregation
/// module's batched relations).
class Sample : public LogicalPlan {
 public:
  Sample(double fraction, uint64_t seed, PlanPtr child)
      : fraction_(fraction), seed_(seed), child_(std::move(child)) {}
  static PlanPtr Make(double fraction, uint64_t seed, PlanPtr child) {
    return std::make_shared<Sample>(fraction, seed, std::move(child));
  }
  double fraction() const { return fraction_; }
  uint64_t seed() const { return seed_; }
  const PlanPtr& child() const { return child_; }

  std::string NodeName() const override { return "Sample"; }
  PlanVector Children() const override { return {child_}; }
  PlanPtr WithNewChildren(PlanVector c) const override {
    return Make(fraction_, seed_, c[0]);
  }
  AttributeVector Output() const override { return child_->Output(); }
  std::string Describe() const override;

 private:
  double fraction_;
  uint64_t seed_;
  PlanPtr child_;
};

// ---------------------------------------------------------------------------
// Binary / n-ary nodes
// ---------------------------------------------------------------------------

enum class JoinType {
  kInner,
  kLeftOuter,
  kRightOuter,
  kFullOuter,
  kLeftSemi,
  kLeftAnti,
  kCross,
};

std::string JoinTypeName(JoinType t);

/// JOIN with an optional condition.
class Join : public LogicalPlan {
 public:
  Join(PlanPtr left, PlanPtr right, JoinType join_type, ExprPtr condition)
      : left_(std::move(left)),
        right_(std::move(right)),
        join_type_(join_type),
        condition_(std::move(condition)) {}
  static PlanPtr Make(PlanPtr left, PlanPtr right, JoinType join_type,
                      ExprPtr condition) {
    return std::make_shared<Join>(std::move(left), std::move(right), join_type,
                                  std::move(condition));
  }

  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }
  JoinType join_type() const { return join_type_; }
  const ExprPtr& condition() const { return condition_; }  // may be null

  std::string NodeName() const override { return "Join"; }
  PlanVector Children() const override { return {left_, right_}; }
  PlanPtr WithNewChildren(PlanVector c) const override {
    return Make(c[0], c[1], join_type_, condition_);
  }
  AttributeVector Output() const override;
  ExprVector Expressions() const override {
    return condition_ ? ExprVector{condition_} : ExprVector{};
  }
  PlanPtr WithNewExpressions(ExprVector exprs) const override {
    if (exprs.empty()) return self();
    return Make(left_, right_, join_type_, exprs[0]);
  }
  std::string Describe() const override;

 private:
  PlanPtr left_;
  PlanPtr right_;
  JoinType join_type_;
  ExprPtr condition_;
};

/// UNION ALL of same-arity children.
class Union : public LogicalPlan {
 public:
  explicit Union(PlanVector children) : children_(std::move(children)) {}
  static PlanPtr Make(PlanVector children) {
    return std::make_shared<Union>(std::move(children));
  }

  std::string NodeName() const override { return "Union"; }
  PlanVector Children() const override { return children_; }
  PlanPtr WithNewChildren(PlanVector c) const override { return Make(std::move(c)); }
  AttributeVector Output() const override;
  std::string Describe() const override { return "Union"; }

 private:
  PlanVector children_;
};

/// `value IN (SELECT ...)` — a predicate holding a whole query plan.
/// Never survives analysis: the analyzer rewrites a Filter containing it
/// into a left-semi join (NOT IN into a left-anti join). Uncorrelated
/// subqueries only.
class InSubquery : public Expression {
 public:
  InSubquery(ExprPtr value, PlanPtr subquery)
      : value_(std::move(value)), subquery_(std::move(subquery)) {}
  static ExprPtr Make(ExprPtr value, PlanPtr subquery) {
    return std::make_shared<InSubquery>(std::move(value), std::move(subquery));
  }

  const ExprPtr& value() const { return value_; }
  const PlanPtr& subquery() const { return subquery_; }

  std::string NodeName() const override { return "InSubquery"; }
  ExprVector Children() const override { return {value_}; }
  ExprPtr WithNewChildren(ExprVector c) const override {
    return Make(c[0], subquery_);
  }
  DataTypePtr data_type() const override { return DataType::Boolean(); }
  bool resolved() const override { return false; }  // must be rewritten
  Value Eval(const Row&) const override {
    throw ExecutionError("IN subquery must be rewritten to a join");
  }
  std::string ToString() const override {
    return value_->ToString() + " IN (subquery)";
  }

 private:
  ExprPtr value_;
  PlanPtr subquery_;
};

/// Collects all attributes referenced by `expr`.
void CollectReferences(const ExprPtr& expr, AttributeVector* out);

/// True if every attribute referenced by `expr` appears in `attrs`.
bool ReferencesSubsetOf(const ExprPtr& expr, const AttributeVector& attrs);

/// Splits a conjunctive predicate into its AND-ed factors.
ExprVector SplitConjuncts(const ExprPtr& condition);

/// Rebuilds a conjunction from factors (empty -> null pointer).
ExprPtr CombineConjuncts(const ExprVector& conjuncts);

}  // namespace ssql

#endif  // SSQL_CATALYST_PLAN_LOGICAL_PLAN_H_
