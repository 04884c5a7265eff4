#ifndef SSQL_EXEC_SORT_LIMIT_EXEC_H_
#define SSQL_EXEC_SORT_LIMIT_EXEC_H_

#include <functional>
#include <memory>
#include <vector>

#include "catalyst/plan/logical_plan.h"
#include "exec/physical_plan.h"

namespace ssql {

/// Global sort: local sort per partition, then a driver-side stable sort
/// of the gathered rows into one ordered partition.
///
/// With a limit it is a top-K (Spark's TakeOrdered), which the planner uses
/// for ORDER BY ... LIMIT k: each partition selects its first k rows by
/// (order keys, input position) over indices into its input and copies out
/// only those, and the driver stable-sorts the at most partitions x k
/// survivors and cuts to k. The result is row for row that of a full
/// stable sort cut to k, ties and nulls included.
class SortExec : public PhysicalPlan {
 public:
  /// `limit` < 0 sorts everything; otherwise keeps the first `limit` rows.
  SortExec(std::vector<std::shared_ptr<const SortOrder>> orders, PhysPtr child,
           int64_t limit = -1)
      : orders_(std::move(orders)), child_(std::move(child)), limit_(limit) {}

  std::string NodeName() const override { return "Sort"; }
  std::vector<PhysPtr> Children() const override { return {child_}; }
  AttributeVector Output() const override { return child_->Output(); }
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override;

 private:
  /// Memory-bounded local sort for one partition: budgeted buffer, stable-
  /// sorted runs spilled to disk when a grant is denied, then a stable
  /// k-way merge of the run files plus the in-memory tail.
  std::shared_ptr<RowPartition> ExternalSortPartition(
      QueryContext& ctx, const RowPartition& part,
      const std::function<bool(const Row&, const Row&)>& less) const;

  /// The first `k` rows of one partition in sort order, selected with a
  /// bounded heap. Under a memory budget the kept rows are reserved like
  /// the sort buffer; when a grant is denied the partition falls back to
  /// ExternalSortPartition and takes its first `k`.
  std::shared_ptr<RowPartition> TopKPartition(
      QueryContext& ctx, const RowPartition& part, size_t k,
      const ExprVector& keys, const std::vector<bool>& ascending,
      const std::function<bool(const Row&, const Row&)>& less) const;

  std::vector<std::shared_ptr<const SortOrder>> orders_;
  PhysPtr child_;
  int64_t limit_;
};

/// LIMIT without ORDER BY: per-partition local limit, then a global cut on
/// the driver. (A LIMIT over a sort plans as a top-K SortExec instead.)
class LimitExec : public PhysicalPlan {
 public:
  LimitExec(int64_t n, PhysPtr child) : n_(n), child_(std::move(child)) {}

  std::string NodeName() const override { return "Limit"; }
  std::vector<PhysPtr> Children() const override { return {child_}; }
  AttributeVector Output() const override { return child_->Output(); }
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override {
    return "Limit " + std::to_string(n_);
  }

 private:
  int64_t n_;
  PhysPtr child_;
};

}  // namespace ssql

#endif  // SSQL_EXEC_SORT_LIMIT_EXEC_H_
