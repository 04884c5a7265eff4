#ifndef SSQL_EXEC_AGGREGATE_EXEC_H_
#define SSQL_EXEC_AGGREGATE_EXEC_H_

#include <memory>
#include <vector>

#include "catalyst/expr/aggregates.h"
#include "exec/physical_plan.h"

namespace ssql {

/// Aggregation stage. The planner always produces the two-stage shape of
/// the engine's shuffle protocol:
///
///   HashAggregate(Final) <- Exchange/Coalesce <- HashAggregate(Partial)
///
/// Partial computes per-partition accumulators keyed by the grouping
/// values (map-side combine); accumulators travel the shuffle as plain
/// Values; Final merges them, finishes each aggregate function and
/// evaluates the result expressions (which may nest aggregates inside
/// arithmetic, e.g. sum(a)/count(b) + 1).
enum class AggregateMode { kPartial, kFinal };

class HashAggregateExec : public PhysicalPlan {
 public:
  /// `groupings`: grouping expressions over the ORIGINAL child output.
  /// `aggregates`: the named output expressions (grouping columns and/or
  /// expressions containing aggregate functions).
  /// For kFinal, `child` must be the exchange over the partial stage.
  HashAggregateExec(ExprVector groupings, std::vector<NamedExprPtr> aggregates,
                    AggregateMode mode, PhysPtr child);

  std::string NodeName() const override {
    return mode_ == AggregateMode::kPartial ? "HashAggregate(Partial)"
                                            : "HashAggregate(Final)";
  }
  std::vector<PhysPtr> Children() const override { return {child_}; }
  AttributeVector Output() const override;
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override;

  /// The synthesized attributes of the partial stage's output:
  /// [one per grouping expr] ++ [one per distinct aggregate function].
  /// The grouping attrs are the Exchange keys between the stages.
  const AttributeVector& partial_output() const { return partial_output_; }

  /// Only the map-side (partial) stage is vectorized: it sits on top of the
  /// batched scan/filter/project pipeline. The final stage's input always
  /// crosses the shuffle as rows, so batching it would be pure adapter
  /// overhead; its (small) output still packs on demand via the adapter.
  bool SupportsBatches() const override {
    return mode_ == AggregateMode::kPartial;
  }

 protected:
  BatchDataset ExecuteBatchesImpl(QueryContext& ctx) const override;
  /// Vectorize the map-side combine only when the input pipeline is
  /// natively columnar; over a row source the pack costs more than the
  /// lane loops save. Output (accumulator rows) packs, so this node never
  /// reports BatchesAreNative() itself.
  bool PreferBatchExecution() const override {
    return SupportsBatches() && child_->BatchesAreNative();
  }

 private:
  RowDataset ExecutePartial(QueryContext& ctx) const;
  RowDataset ExecuteFinal(QueryContext& ctx) const;

  /// Codegen fast path for the map-side combine: when there is no grouping
  /// key or a single int-like or string one, and every aggregate is a
  /// simple count/sum/avg/min/max over a numeric column, per-row work runs
  /// on typed accumulators in the shared typed group table — no boxed
  /// keys, no Value allocation and no std::string per row; each key is
  /// boxed once per group. This is where Section 4.3.4's code generation
  /// pays off for aggregation (the Figure 9 DataFrame bar; AMPLab Q3's
  /// join rows). Returns false when the shape is unsupported and the
  /// generic path must run.
  bool TryExecutePartialFast(QueryContext& ctx, const RowDataset& input,
                             const AttributeVector& child_out,
                             RowDataset* out) const;

  /// Batched form of the partial fast path: grouping key and aggregate
  /// arguments evaluate as whole columns per batch (vector evaluator), then
  /// a tight lane loop folds them into the typed accumulator banks. Same
  /// shape conditions and bit-identical results as the row fast path.
  bool TryExecutePartialFastBatched(QueryContext& ctx,
                                    const BatchDataset& input,
                                    const AttributeVector& child_out,
                                    BatchDataset* out) const;

  /// Matching fast path for the reduce side: merges the typed partial
  /// accumulators in the same group table, reading each boxed key once
  /// per input row without copying it. Same shape conditions as the
  /// partial fast path, except that a global aggregate stays generic.
  bool TryExecuteFinalFast(QueryContext& ctx, const RowDataset& input,
                           const ExprVector& result_exprs,
                           RowDataset* out) const;

  ExprVector groupings_;
  std::vector<NamedExprPtr> aggregates_;
  AggregateMode mode_;
  PhysPtr child_;

  /// Distinct aggregate functions appearing in `aggregates_`, in first-
  /// appearance order; shared layout between the two stages.
  std::vector<AggregatePtr> agg_functions_;
  AttributeVector partial_output_;
};

}  // namespace ssql

#endif  // SSQL_EXEC_AGGREGATE_EXEC_H_
