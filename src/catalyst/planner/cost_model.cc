#include "catalyst/planner/cost_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "catalyst/expr/literal.h"
#include "catalyst/expr/predicates.h"
#include "columnar/column_vector.h"
#include "util/string_util.h"

namespace ssql {

namespace {

std::optional<uint64_t> EstimateImpl(const PlanPtr& plan, bool selectivity);

std::optional<uint64_t> ApplyConjuncts(std::optional<uint64_t> base,
                                       size_t num_conjuncts) {
  if (!base) return base;
  double scaled = static_cast<double>(*base);
  for (size_t i = 0; i < num_conjuncts; ++i) {
    scaled *= kDefaultFilterSelectivity;
  }
  return static_cast<uint64_t>(scaled);
}

}  // namespace

std::optional<uint64_t> EstimatePlanSizeBytes(const PlanPtr& plan) {
  return EstimateImpl(plan, /*selectivity=*/false);
}

std::optional<uint64_t> EstimatePlanSizeBytesWithSelectivity(const PlanPtr& plan) {
  return EstimateImpl(plan, /*selectivity=*/true);
}

namespace {

std::optional<uint64_t> EstimateImpl(const PlanPtr& plan, bool selectivity) {
  if (const auto* rel = AsPlan<LogicalRelation>(plan)) {
    std::optional<uint64_t> base = rel->source()->EstimatedSizeBytes();
    if (!base) return std::nullopt;
    // Scale by the fraction of columns read (pruning shrinks the scan).
    size_t total = rel->full_output().size();
    size_t required = rel->required_columns().size();
    if (total == 0) return base;
    uint64_t scaled = *base * std::max<size_t>(required, 1) / total;
    if (selectivity) {
      return ApplyConjuncts(scaled, rel->pushed_filters().size());
    }
    return scaled;
  }
  if (const auto* local = AsPlan<LocalRelation>(plan)) {
    uint64_t per_row = kDefaultRowWidthBytes +
                       8ull * std::max<size_t>(local->Output().size(), 1);
    return local->rows().size() * per_row;
  }
  if (const auto* limit = AsPlan<Limit>(plan)) {
    uint64_t capped = static_cast<uint64_t>(limit->n()) * kDefaultRowWidthBytes;
    auto child = EstimateImpl(limit->child(), selectivity);
    if (child) return std::min(*child, capped);
    return capped;
  }
  if (const auto* project = AsPlan<Project>(plan)) {
    auto child = EstimateImpl(project->child(), selectivity);
    if (!child) return std::nullopt;
    size_t in_cols = std::max<size_t>(project->child()->Output().size(), 1);
    size_t out_cols = std::max<size_t>(project->projections().size(), 1);
    return *child * out_cols / in_cols;
  }
  if (const auto* filter = AsPlan<Filter>(plan)) {
    auto child = EstimateImpl(filter->child(), selectivity);
    if (!selectivity) return child;  // Spark 1.3 behaviour
    return ApplyConjuncts(child, SplitConjuncts(filter->condition()).size());
  }
  if (const auto* sample = AsPlan<Sample>(plan)) {
    auto child = EstimateImpl(sample->child(), selectivity);
    if (!child) return std::nullopt;
    return static_cast<uint64_t>(static_cast<double>(*child) * sample->fraction());
  }
  if (const auto* uni = AsPlan<Union>(plan)) {
    uint64_t total = 0;
    for (const auto& c : uni->Children()) {
      auto child = EstimateImpl(c, selectivity);
      if (!child) return std::nullopt;
      total += *child;
    }
    return total;
    (void)uni;
  }
  if (AsPlan<Join>(plan) != nullptr) {
    // Join output size is unknown without cardinality statistics.
    return std::nullopt;
  }
  // Sort / Distinct / Aggregate / SubqueryAlias: pass through the single
  // child's estimate.
  auto children = plan->Children();
  if (children.size() == 1) return EstimateImpl(children[0], selectivity);
  return std::nullopt;
}

}  // namespace

std::string EstimateSourceName(EstimateSource source) {
  switch (source) {
    case EstimateSource::kUnknown:
      return "unknown";
    case EstimateSource::kHeuristic:
      return "byte-heuristic";
    case EstimateSource::kAnalyzed:
      return "analyzed-stats";
    case EstimateSource::kExact:
      return "exact";
  }
  return "unknown";
}

namespace {

/// Weakest input wins; the enum is ordered weakest-first.
EstimateSource Weakest(EstimateSource a, EstimateSource b) {
  return a < b ? a : b;
}

/// Column statistics resolvable by attribute id. Holds the TableStats
/// snapshot so the ColumnStats pointers stay alive for the estimate's
/// duration.
struct ColumnStatsRef {
  std::shared_ptr<const TableStats> table;
  const ColumnStats* col = nullptr;
};

struct RowEstimateContext {
  const StatsStore* stats = nullptr;
  bool use_default_selectivity = false;
  std::map<ExprId, ColumnStatsRef> columns;

  const ColumnStats* Find(ExprId id) const {
    auto it = columns.find(id);
    return it == columns.end() ? nullptr : it->second.col;
  }
};

/// Maps every scanned column's attribute id to its ANALYZE'd stats.
/// LogicalRelation::full_output() is index-aligned with the source schema,
/// and the ids survive aliasing/pruning rewrites, so one walk covers every
/// reference in the tree.
std::map<ExprId, ColumnStatsRef> BuildColumnStatsMap(const PlanPtr& plan,
                                                     const StatsStore* stats) {
  std::map<ExprId, ColumnStatsRef> out;
  if (stats == nullptr) return out;
  plan->Foreach([&](const LogicalPlan& node) {
    const auto* rel = AsPlan<LogicalRelation>(node);
    if (rel == nullptr) return;
    std::shared_ptr<const TableStats> ts =
        stats->LookupBySource(rel->source().get());
    if (!ts) return;
    SchemaPtr schema = rel->source()->schema();
    const AttributeVector& output = rel->full_output();
    for (size_t i = 0; i < output.size() && i < schema->fields().size(); ++i) {
      auto it = ts->columns.find(ToLower(schema->fields()[i].name));
      if (it == ts->columns.end()) continue;
      out[output[i]->expr_id()] = ColumnStatsRef{ts, &it->second};
    }
  });
  return out;
}

const AttributeReference* AsAttr(const ExprPtr& e) {
  return dynamic_cast<const AttributeReference*>(e.get());
}

bool IsNumericValue(const Value& v) {
  if (v.is_null()) return false;
  TypeId id = v.type_id();
  return id == TypeId::kInt32 || id == TypeId::kInt64 || id == TypeId::kDouble;
}

/// Fraction of `[min, max]` lying below `bound`, by linear interpolation —
/// the textbook uniform-distribution assumption.
double FractionBelow(const Value& min, const Value& max, const Value& bound) {
  const double lo = min.AsDouble();
  const double hi = max.AsDouble();
  const double b = bound.AsDouble();
  if (b <= lo) return 0.0;
  if (b >= hi || hi <= lo) return 1.0;
  return (b - lo) / (hi - lo);
}

/// Selectivity of a single conjunct. Uses column statistics when the
/// conjunct compares a scanned column to literals; otherwise the default
/// guess when enabled, else 1.0 (no shrinking — Spark 1.3 behaviour).
/// `used_stats` reports whether statistics actually informed the number.
double ConjunctSelectivity(const ExprPtr& conjunct,
                           const RowEstimateContext& ctx, bool* used_stats) {
  const double fallback =
      ctx.use_default_selectivity ? kDefaultFilterSelectivity : 1.0;
  *used_stats = false;

  if (const auto* eq = dynamic_cast<const EqualTo*>(conjunct.get())) {
    const AttributeReference* attr = AsAttr(eq->left());
    const Expression* lit = dynamic_cast<const Literal*>(eq->right().get());
    if (attr == nullptr) {
      attr = AsAttr(eq->right());
      lit = dynamic_cast<const Literal*>(eq->left().get());
    }
    if (attr != nullptr && lit != nullptr) {
      if (const ColumnStats* cs = ctx.Find(attr->expr_id());
          cs != nullptr && cs->ndv > 0) {
        *used_stats = true;
        return 1.0 / static_cast<double>(cs->ndv);
      }
    }
    return fallback;
  }
  if (const auto* in = dynamic_cast<const In*>(conjunct.get())) {
    if (const AttributeReference* attr = AsAttr(in->value())) {
      if (const ColumnStats* cs = ctx.Find(attr->expr_id());
          cs != nullptr && cs->ndv > 0) {
        *used_stats = true;
        const double n =
            static_cast<double>(in->Children().size() - 1);  // minus value
        return std::min(1.0, n / static_cast<double>(cs->ndv));
      }
    }
    return fallback;
  }
  if (const auto* isnull = dynamic_cast<const IsNull*>(conjunct.get())) {
    if (const AttributeReference* attr = AsAttr(isnull->child())) {
      if (const ColumnStats* cs = ctx.Find(attr->expr_id())) {
        *used_stats = true;
        return cs->NullFraction();
      }
    }
    return fallback;
  }
  if (const auto* notnull = dynamic_cast<const IsNotNull*>(conjunct.get())) {
    if (const AttributeReference* attr = AsAttr(notnull->child())) {
      if (const ColumnStats* cs = ctx.Find(attr->expr_id())) {
        *used_stats = true;
        return 1.0 - cs->NullFraction();
      }
    }
    return fallback;
  }

  // Range comparisons: interpolate over [min, max].
  const auto* cmp = dynamic_cast<const BinaryComparison*>(conjunct.get());
  if (cmp != nullptr && dynamic_cast<const NotEqualTo*>(cmp) == nullptr) {
    const AttributeReference* attr = AsAttr(cmp->left());
    const Literal* lit = dynamic_cast<const Literal*>(cmp->right().get());
    bool attr_on_left = true;
    if (attr == nullptr) {
      attr = AsAttr(cmp->right());
      lit = dynamic_cast<const Literal*>(cmp->left().get());
      attr_on_left = false;
    }
    if (attr != nullptr && lit != nullptr && IsNumericValue(lit->value())) {
      if (const ColumnStats* cs = ctx.Find(attr->expr_id());
          cs != nullptr && IsNumericValue(cs->min) &&
          IsNumericValue(cs->max)) {
        const bool less = dynamic_cast<const LessThan*>(cmp) != nullptr ||
                          dynamic_cast<const LessThanOrEqual*>(cmp) != nullptr;
        // `attr < lit` keeps the fraction below; `lit < attr` (attr on the
        // right) flips, as do > comparisons.
        const bool keep_below = less == attr_on_left;
        double frac = FractionBelow(cs->min, cs->max, lit->value());
        *used_stats = true;
        return keep_below ? frac : 1.0 - frac;
      }
    }
    return fallback;
  }
  return fallback;
}

struct RowEstimate {
  std::optional<uint64_t> rows;
  EstimateSource source = EstimateSource::kUnknown;
};

/// Applies conjunct selectivities to `base`, downgrading provenance to
/// heuristic for every conjunct statistics could not explain (unless the
/// conjunct did not shrink the estimate at all).
RowEstimate ApplySelectivity(RowEstimate base, const ExprVector& conjuncts,
                             const RowEstimateContext& ctx) {
  if (!base.rows) return base;
  double rows = static_cast<double>(*base.rows);
  for (const ExprPtr& c : conjuncts) {
    bool used_stats = false;
    double sel = ConjunctSelectivity(c, ctx, &used_stats);
    rows *= sel;
    if (!used_stats && sel < 1.0) {
      base.source = Weakest(base.source, EstimateSource::kHeuristic);
    }
  }
  base.rows = static_cast<uint64_t>(rows + 0.5);
  return base;
}

std::set<ExprId> OutputIds(const PlanPtr& plan) {
  std::set<ExprId> ids;
  for (const AttributePtr& a : plan->Output()) ids.insert(a->expr_id());
  return ids;
}

RowEstimate EstimateRows(const PlanPtr& plan, const RowEstimateContext& ctx);

/// Join cardinality: |L|*|R| / prod(max(ndv_l, ndv_r)) over the equi-key
/// pairs (the classic containment assumption); pairs whose NDV is unknown
/// divide by max(|L|, |R|) — the foreign-key guess — and downgrade
/// provenance to heuristic.
RowEstimate EstimateJoinRows(const Join& join, const RowEstimateContext& ctx) {
  RowEstimate left = EstimateRows(join.left(), ctx);
  RowEstimate right = EstimateRows(join.right(), ctx);
  if (!left.rows || !right.rows) return {};
  const double l = static_cast<double>(*left.rows);
  const double r = static_cast<double>(*right.rows);
  EstimateSource source = Weakest(left.source, right.source);

  double rows;
  switch (join.join_type()) {
    case JoinType::kLeftSemi:
    case JoinType::kLeftAnti:
      // At most every left row survives; without key stats this upper
      // bound is the standard guess.
      return {static_cast<uint64_t>(l),
              Weakest(source, EstimateSource::kHeuristic)};
    case JoinType::kCross:
      return {static_cast<uint64_t>(l * r), source};
    default:
      break;
  }

  if (join.condition() == nullptr) {
    return {static_cast<uint64_t>(l * r), source};
  }

  rows = l * r;
  bool any_equi = false;
  std::set<ExprId> left_ids = OutputIds(join.left());
  std::set<ExprId> right_ids = OutputIds(join.right());
  for (const ExprPtr& c : SplitConjuncts(join.condition())) {
    const auto* eq = dynamic_cast<const EqualTo*>(c.get());
    if (eq == nullptr) continue;
    const AttributeReference* a = AsAttr(eq->left());
    const AttributeReference* b = AsAttr(eq->right());
    if (a == nullptr || b == nullptr) continue;
    // Normalize to (left-side attr, right-side attr).
    if (left_ids.count(b->expr_id()) && right_ids.count(a->expr_id())) {
      std::swap(a, b);
    }
    if (!left_ids.count(a->expr_id()) || !right_ids.count(b->expr_id())) {
      continue;
    }
    any_equi = true;
    const ColumnStats* cl = ctx.Find(a->expr_id());
    const ColumnStats* cr = ctx.Find(b->expr_id());
    const int64_t ndv_l = cl != nullptr ? cl->ndv : 0;
    const int64_t ndv_r = cr != nullptr ? cr->ndv : 0;
    double divisor = static_cast<double>(std::max(ndv_l, ndv_r));
    if (divisor <= 0.0) {
      divisor = std::max(1.0, std::max(l, r));
      source = Weakest(source, EstimateSource::kHeuristic);
    }
    rows /= divisor;
  }
  if (!any_equi) {
    // Non-equi condition: treat as a filter over the cross product.
    rows *= ctx.use_default_selectivity ? kDefaultFilterSelectivity : 1.0;
    source = Weakest(source, EstimateSource::kHeuristic);
  }

  // Outer joins preserve at least the outer side(s).
  double floor_rows = 0.0;
  switch (join.join_type()) {
    case JoinType::kLeftOuter:
      floor_rows = l;
      break;
    case JoinType::kRightOuter:
      floor_rows = r;
      break;
    case JoinType::kFullOuter:
      floor_rows = std::max(l, r);
      break;
    default:
      break;
  }
  rows = std::max(rows, floor_rows);
  return {static_cast<uint64_t>(rows + 0.5), source};
}

RowEstimate EstimateAggregateRows(const Aggregate& agg,
                                  const RowEstimateContext& ctx) {
  if (agg.groupings().empty()) {
    // Global aggregate: always exactly one output row.
    return {1, EstimateSource::kExact};
  }
  RowEstimate child = EstimateRows(agg.child(), ctx);
  if (!child.rows) return {};
  // Product of grouping-key NDVs, capped at the input cardinality. One key
  // without an NDV leaves the group count unknown: the input cardinality is
  // then the (heuristic) upper bound, never 1.
  const double child_rows = static_cast<double>(*child.rows);
  double groups = 1.0;
  EstimateSource source = child.source;
  for (const ExprPtr& g : agg.groupings()) {
    const AttributeReference* attr = AsAttr(g);
    const ColumnStats* cs =
        attr != nullptr ? ctx.Find(attr->expr_id()) : nullptr;
    if (cs != nullptr && cs->ndv > 0) {
      groups *= static_cast<double>(cs->ndv);
    } else {
      groups = child_rows;
      source = Weakest(source, EstimateSource::kHeuristic);
      break;
    }
  }
  double rows = std::min(groups, child_rows);
  return {static_cast<uint64_t>(std::max(rows, 1.0) + 0.5), source};
}

RowEstimate EstimateRows(const PlanPtr& plan, const RowEstimateContext& ctx) {
  if (const auto* rel = AsPlan<LogicalRelation>(plan)) {
    std::shared_ptr<const TableStats> ts =
        ctx.stats != nullptr
            ? ctx.stats->LookupBySource(rel->source().get())
            : nullptr;
    RowEstimate est;
    if (ts) {
      est.rows = static_cast<uint64_t>(std::max<int64_t>(ts->row_count, 0));
      est.source = EstimateSource::kAnalyzed;
    } else {
      std::optional<uint64_t> bytes = rel->source()->EstimatedSizeBytes();
      if (!bytes) return {};
      est.rows = *bytes / kDefaultRowWidthBytes;
      est.source = EstimateSource::kHeuristic;
    }
    return ApplySelectivity(est, rel->pushed_filters(), ctx);
  }
  if (const auto* local = AsPlan<LocalRelation>(plan)) {
    return {static_cast<uint64_t>(local->rows().size()),
            EstimateSource::kExact};
  }
  if (const auto* limit = AsPlan<Limit>(plan)) {
    RowEstimate child = EstimateRows(limit->child(), ctx);
    const uint64_t n = static_cast<uint64_t>(std::max<int64_t>(limit->n(), 0));
    if (child.rows) return {std::min(*child.rows, n), child.source};
    // LIMIT alone bounds the output even over an unknown child.
    return {n, EstimateSource::kHeuristic};
  }
  if (const auto* filter = AsPlan<Filter>(plan)) {
    RowEstimate child = EstimateRows(filter->child(), ctx);
    return ApplySelectivity(child, SplitConjuncts(filter->condition()), ctx);
  }
  if (const auto* sample = AsPlan<Sample>(plan)) {
    RowEstimate child = EstimateRows(sample->child(), ctx);
    if (!child.rows) return child;
    child.rows = static_cast<uint64_t>(
        static_cast<double>(*child.rows) * sample->fraction() + 0.5);
    return child;
  }
  if (const auto* uni = AsPlan<Union>(plan)) {
    uint64_t total = 0;
    EstimateSource source = EstimateSource::kExact;
    for (const auto& c : uni->Children()) {
      RowEstimate child = EstimateRows(c, ctx);
      if (!child.rows) return {};
      total += *child.rows;
      source = Weakest(source, child.source);
    }
    return {total, source};
  }
  if (const auto* join = AsPlan<Join>(plan)) {
    return EstimateJoinRows(*join, ctx);
  }
  if (const auto* agg = AsPlan<Aggregate>(plan)) {
    return EstimateAggregateRows(*agg, ctx);
  }
  if (const auto* distinct = AsPlan<Distinct>(plan)) {
    // Upper bound; per-column NDV does not compose to row distinctness.
    RowEstimate child = EstimateRows(distinct->child(), ctx);
    child.source = Weakest(child.source, EstimateSource::kHeuristic);
    return child;
  }
  // Project / Sort / SubqueryAlias / anything row-preserving: pass through.
  auto children = plan->Children();
  if (children.size() == 1) return EstimateRows(children[0], ctx);
  return {};
}

}  // namespace

PlanEstimate EstimatePlan(const PlanPtr& plan, const StatsStore* stats,
                          bool use_default_selectivity) {
  RowEstimateContext ctx;
  ctx.stats = stats;
  ctx.use_default_selectivity = use_default_selectivity;
  ctx.columns = BuildColumnStatsMap(plan, stats);

  RowEstimate rows = EstimateRows(plan, ctx);
  PlanEstimate est;
  est.rows = rows.rows;
  est.source = rows.rows ? rows.source : EstimateSource::kUnknown;
  // Bytes stay bit-identical to the legacy heuristic unless analyzed stats
  // fill a hole it leaves (joins, aggregates over joins, ...) — broadcast
  // decisions on never-analyzed catalogs are untouched.
  est.bytes = EstimateImpl(plan, use_default_selectivity);
  if (!est.bytes && est.rows && est.source == EstimateSource::kAnalyzed) {
    est.bytes = *est.rows * kDefaultRowWidthBytes;
  }
  if (!est.rows && est.bytes) {
    est.rows = *est.bytes / kDefaultRowWidthBytes;
    est.source = EstimateSource::kHeuristic;
  }
  return est;
}

}  // namespace ssql
