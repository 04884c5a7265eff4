#include "catalyst/plan/logical_plan.h"

#include <unordered_set>

#include "catalyst/expr/aggregates.h"
#include "catalyst/expr/predicates.h"

namespace ssql {

PlanPtr LogicalPlan::WithNewExpressions(ExprVector) const { return self(); }

bool LogicalPlan::resolved() const {
  for (const auto& c : Children()) {
    if (!c->resolved()) return false;
  }
  for (const auto& e : Expressions()) {
    if (!e->resolved()) return false;
  }
  return true;
}

std::string LogicalPlan::Describe() const { return NodeName(); }

std::string LogicalPlan::TreeString() const {
  std::string out;
  TreeStringInternal(0, &out);
  return out;
}

void LogicalPlan::TreeStringInternal(int indent, std::string* out) const {
  for (int i = 0; i < indent; ++i) *out += "  ";
  *out += Describe();
  *out += "\n";
  for (const auto& c : Children()) c->TreeStringInternal(indent + 1, out);
}

PlanPtr LogicalPlan::TransformUp(const PlanRewrite& rule) const {
  PlanVector children = Children();
  bool changed = false;
  for (auto& c : children) {
    PlanPtr replaced = c->TransformUp(rule);
    if (replaced.get() != c.get()) {
      c = std::move(replaced);
      changed = true;
    }
  }
  PlanPtr with_children = changed ? WithNewChildren(std::move(children)) : self();
  PlanPtr result = rule(with_children);
  return result ? result : with_children;
}

PlanPtr LogicalPlan::TransformDown(const PlanRewrite& rule) const {
  PlanPtr replaced = rule(self());
  if (!replaced) replaced = self();
  PlanVector children = replaced->Children();
  bool changed = false;
  for (auto& c : children) {
    PlanPtr new_child = c->TransformDown(rule);
    if (new_child.get() != c.get()) {
      c = std::move(new_child);
      changed = true;
    }
  }
  return changed ? replaced->WithNewChildren(std::move(children)) : replaced;
}

PlanPtr LogicalPlan::MapExpressions(const ExprRewrite& rule) const {
  ExprVector exprs = Expressions();
  if (exprs.empty()) return self();
  bool changed = false;
  for (auto& e : exprs) {
    ExprPtr replaced = e->TransformUp(rule);
    if (replaced.get() != e.get()) {
      e = std::move(replaced);
      changed = true;
    }
  }
  return changed ? WithNewExpressions(std::move(exprs)) : self();
}

PlanPtr LogicalPlan::TransformAllExpressions(const ExprRewrite& rule) const {
  return TransformUp(
      [&rule](const PlanPtr& p) -> PlanPtr { return p->MapExpressions(rule); });
}

void LogicalPlan::Foreach(
    const std::function<void(const LogicalPlan&)>& fn) const {
  fn(*this);
  for (const auto& c : Children()) c->Foreach(fn);
}

// ---------------------------------------------------------------------------
// LocalRelation
// ---------------------------------------------------------------------------

PlanPtr LocalRelation::FromSchema(const SchemaPtr& schema, std::vector<Row> rows) {
  AttributeVector output;
  output.reserve(schema->num_fields());
  for (const Field& f : schema->fields()) {
    output.push_back(AttributeReference::Make(f.name, f.type, f.nullable));
  }
  return Make(std::move(output), std::move(rows));
}

std::string LocalRelation::Describe() const {
  std::string s = "LocalRelation [";
  for (size_t i = 0; i < output_.size(); ++i) {
    if (i > 0) s += ", ";
    s += output_[i]->ToString();
  }
  s += "], rows=" + std::to_string(rows().size());
  return s;
}

// ---------------------------------------------------------------------------
// LogicalRelation
// ---------------------------------------------------------------------------

PlanPtr LogicalRelation::Make(std::shared_ptr<SourceRelation> source) {
  SchemaPtr schema = source->schema();
  AttributeVector output;
  std::vector<int> required;
  output.reserve(schema->num_fields());
  for (size_t i = 0; i < schema->num_fields(); ++i) {
    const Field& f = schema->field(i);
    output.push_back(AttributeReference::Make(f.name, f.type, f.nullable));
    required.push_back(static_cast<int>(i));
  }
  return std::make_shared<LogicalRelation>(std::move(source), std::move(output),
                                           std::move(required), ExprVector{});
}

PlanPtr LogicalRelation::WithRequiredColumns(std::vector<int> cols) const {
  return std::make_shared<LogicalRelation>(source_, full_output_, std::move(cols),
                                           pushed_filters_);
}

PlanPtr LogicalRelation::WithPushedFilters(ExprVector filters) const {
  return std::make_shared<LogicalRelation>(source_, full_output_,
                                           required_columns_, std::move(filters));
}

AttributeVector LogicalRelation::Output() const {
  AttributeVector out;
  out.reserve(required_columns_.size());
  for (int i : required_columns_) out.push_back(full_output_[i]);
  return out;
}

std::string LogicalRelation::Describe() const {
  std::string s = "Relation " + source_->name() + " [";
  auto out = Output();
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) s += ", ";
    s += out[i]->ToString();
  }
  s += "]";
  if (!pushed_filters_.empty()) {
    s += " PushedFilters: [";
    for (size_t i = 0; i < pushed_filters_.size(); ++i) {
      if (i > 0) s += ", ";
      s += pushed_filters_[i]->ToString();
    }
    s += "]";
  }
  return s;
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

AttributeVector Project::Output() const {
  AttributeVector out;
  out.reserve(projections_.size());
  for (const auto& p : projections_) out.push_back(p->ToAttribute());
  return out;
}

ExprVector Project::Expressions() const {
  ExprVector out;
  out.reserve(projections_.size());
  for (const auto& p : projections_) out.push_back(p);
  return out;
}

PlanPtr Project::WithNewExpressions(ExprVector exprs) const {
  std::vector<NamedExprPtr> named;
  named.reserve(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    named.push_back(ToNamed(exprs[i], projections_[i]->name()));
  }
  return Make(std::move(named), child_);
}

bool Project::resolved() const {
  if (!LogicalPlan::resolved()) return false;
  // A Project containing aggregate functions is not a valid final plan;
  // the analyzer must rewrite it to an Aggregate.
  for (const auto& p : projections_) {
    if (ContainsAggregate(p)) return false;
  }
  return true;
}

std::string Project::Describe() const {
  std::string s = "Project [";
  for (size_t i = 0; i < projections_.size(); ++i) {
    if (i > 0) s += ", ";
    s += projections_[i]->ToString();
  }
  return s + "]";
}

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

AttributeVector Aggregate::Output() const {
  AttributeVector out;
  out.reserve(aggregates_.size());
  for (const auto& a : aggregates_) out.push_back(a->ToAttribute());
  return out;
}

ExprVector Aggregate::Expressions() const {
  ExprVector out;
  out.reserve(groupings_.size() + aggregates_.size());
  for (const auto& g : groupings_) out.push_back(g);
  for (const auto& a : aggregates_) out.push_back(a);
  return out;
}

PlanPtr Aggregate::WithNewExpressions(ExprVector exprs) const {
  ExprVector groupings(exprs.begin(),
                       exprs.begin() + static_cast<long>(groupings_.size()));
  std::vector<NamedExprPtr> aggregates;
  aggregates.reserve(aggregates_.size());
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    aggregates.push_back(
        ToNamed(exprs[groupings_.size() + i], aggregates_[i]->name()));
  }
  return Make(std::move(groupings), std::move(aggregates), child_);
}

bool Aggregate::resolved() const { return LogicalPlan::resolved(); }

std::string Aggregate::Describe() const {
  std::string s = "Aggregate [";
  for (size_t i = 0; i < groupings_.size(); ++i) {
    if (i > 0) s += ", ";
    s += groupings_[i]->ToString();
  }
  s += "], [";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) s += ", ";
    s += aggregates_[i]->ToString();
  }
  return s + "]";
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

ExprVector Sort::Expressions() const {
  ExprVector out;
  out.reserve(orders_.size());
  for (const auto& o : orders_) out.push_back(o);
  return out;
}

PlanPtr Sort::WithNewExpressions(ExprVector exprs) const {
  std::vector<std::shared_ptr<const SortOrder>> orders;
  orders.reserve(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (auto so = std::dynamic_pointer_cast<const SortOrder>(exprs[i])) {
      orders.push_back(std::move(so));
    } else {
      orders.push_back(SortOrder::Make(exprs[i], orders_[i]->ascending()));
    }
  }
  return Make(std::move(orders), child_);
}

std::string Sort::Describe() const {
  std::string s = "Sort [";
  for (size_t i = 0; i < orders_.size(); ++i) {
    if (i > 0) s += ", ";
    s += orders_[i]->ToString();
  }
  return s + "]";
}

// ---------------------------------------------------------------------------
// SubqueryAlias / Sample / Join / Union
// ---------------------------------------------------------------------------

AttributeVector SubqueryAlias::Output() const {
  AttributeVector out;
  for (const auto& a : child_->Output()) out.push_back(a->WithQualifier(alias_));
  return out;
}

std::string Sample::Describe() const {
  return "Sample fraction=" + std::to_string(fraction_);
}

std::string JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner:
      return "Inner";
    case JoinType::kLeftOuter:
      return "LeftOuter";
    case JoinType::kRightOuter:
      return "RightOuter";
    case JoinType::kFullOuter:
      return "FullOuter";
    case JoinType::kLeftSemi:
      return "LeftSemi";
    case JoinType::kLeftAnti:
      return "LeftAnti";
    case JoinType::kCross:
      return "Cross";
  }
  return "?";
}

AttributeVector Join::Output() const {
  AttributeVector out;
  auto left_out = left_->Output();
  auto right_out = right_->Output();
  bool left_nullable = join_type_ == JoinType::kRightOuter ||
                       join_type_ == JoinType::kFullOuter;
  bool right_nullable = join_type_ == JoinType::kLeftOuter ||
                        join_type_ == JoinType::kFullOuter;
  for (const auto& a : left_out) {
    out.push_back(left_nullable ? a->WithNullability(true) : a);
  }
  if (join_type_ != JoinType::kLeftSemi && join_type_ != JoinType::kLeftAnti) {
    for (const auto& a : right_out) {
      out.push_back(right_nullable ? a->WithNullability(true) : a);
    }
  }
  return out;
}

std::string Join::Describe() const {
  std::string s = "Join " + JoinTypeName(join_type_);
  if (condition_) s += ", " + condition_->ToString();
  return s;
}

AttributeVector Union::Output() const { return children_[0]->Output(); }

// ---------------------------------------------------------------------------
// Expression/plan helpers
// ---------------------------------------------------------------------------

void CollectReferences(const ExprPtr& expr, AttributeVector* out) {
  expr->Foreach([out](const Expression& e) {
    if (const auto* a = dynamic_cast<const AttributeReference*>(&e)) {
      out->push_back(a->ToAttribute());
    }
  });
}

bool ReferencesSubsetOf(const ExprPtr& expr, const AttributeVector& attrs) {
  std::unordered_set<ExprId> available;
  for (const auto& a : attrs) available.insert(a->expr_id());
  bool ok = true;
  expr->Foreach([&](const Expression& e) {
    if (const auto* a = dynamic_cast<const AttributeReference*>(&e)) {
      if (available.find(a->expr_id()) == available.end()) ok = false;
    }
  });
  return ok;
}

ExprVector SplitConjuncts(const ExprPtr& condition) {
  ExprVector out;
  if (!condition) return out;
  if (const auto* a = As<And>(condition)) {
    ExprVector left = SplitConjuncts(a->left());
    ExprVector right = SplitConjuncts(a->right());
    out.insert(out.end(), left.begin(), left.end());
    out.insert(out.end(), right.begin(), right.end());
    return out;
  }
  out.push_back(condition);
  return out;
}

ExprPtr CombineConjuncts(const ExprVector& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr result = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = And::Make(result, conjuncts[i]);
  }
  return result;
}

}  // namespace ssql
