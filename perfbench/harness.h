#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The measurement harness of the repository benchmark: closed-loop clients,
// per-op latency and CPU accounting, and the traced mode that records spans
// around each public engine call and digests each query's QueryProfile.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/sql_context.h"

namespace perfbench {

int64_t NowNs();  // steady clock, the same clock QueryProfile spans use

/// One timed interval of an op in the traced run. `slot` names the
/// per-layer metric the span's self time is charged to; spans with an
/// empty slot are detail (stages, tasks) kept only for the span file.
struct Span {
  uint32_t id = 0;      // 1-based within the op; the op root is 1
  uint32_t parent = 0;  // 0 for the op root
  std::string name;
  std::string slot;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// What the profile of one query says, taken when the query finishes.
struct ProfileDigest {
  int64_t execute_ns = 0;  // the "execution" phase span
  int64_t stage_wait_ns = 0;
  int64_t partial_agg_in = 0;
  int64_t partial_agg_out = 0;
  int64_t rule_invocations = 0;
  int64_t rule_effective = 0;
  double worst_misestimate = 0;
  int64_t peak_reserved_bytes = 0;
  std::map<std::string, int64_t> totals;  // ProfileCounter name -> total
};

/// Everything the traced run records for one op.
struct OpTrace {
  uint64_t op_id = 0;
  std::vector<Span> spans;
  std::vector<ProfileDigest> queries;
  int64_t save_exec_ns = 0;     // the execution DataFrame::Save ran itself
  uint64_t last_query_id = 0;   // the op's latest query, from on_start
  uint32_t open = 0;            // innermost open span

  uint32_t Begin(const std::string& name, const std::string& slot);
  void End(uint32_t id);
  /// Adds an already-finished span under the open one.
  void AddClosed(const std::string& name, const std::string& slot,
                 int64_t start_ns, int64_t end_ns);
};

/// RAII span around one call; does nothing when `trace` is null, so the
/// untraced run reads no clock for it.
class ScopedSpan {
 public:
  ScopedSpan(OpTrace* trace, const std::string& name, const std::string& slot)
      : trace_(trace), id_(trace ? trace->Begin(name, slot) : 0) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  OpTrace* trace_;
  uint32_t id_;
};

/// The traced run's log sink: digests each query's profile into the op
/// that started it (see harness.cc). Other log lines go to stderr.
void InstallCaptureSink();
void RemoveCaptureSink();

/// Runs one op's engine calls, with spans when `trace` is set.
class OpRunner {
 public:
  OpRunner(ssql::SqlContext& ctx, OpTrace* trace) : ctx_(ctx), trace_(trace) {}

  ssql::SqlContext& ctx() { return ctx_; }
  OpTrace* trace() { return trace_; }

  /// ParseSql -> SqlContext::Analyze -> Execute(plan, QueryOptions) ->
  /// RowDataset::Collect.
  std::vector<ssql::Row> Sql(const std::string& sql);
  /// ParseSql -> SqlContext::Analyze, for ops that need the analyzed plan.
  ssql::PlanPtr ParseAndAnalyze(const std::string& sql);
  /// Execute(plan, QueryOptions) -> RowDataset::Collect.
  std::vector<ssql::Row> Run(const ssql::PlanPtr& analyzed);
  /// DataFrame::Save, with the execution Save runs itself measured apart.
  void Save(const ssql::DataFrame& df, const std::string& provider,
            const std::string& path);

 private:
  ssql::SqlContext& ctx_;
  OpTrace* trace_;
};

/// Outcome of one op. `kind` indexes Workload::kinds(). `check` compares
/// the op's result with its reference after the op's latency is taken; it
/// returns "" when the result is right, else what differs.
struct OpResult {
  int kind = 0;
  std::function<std::string()> check;
};

/// Per-client state: a seeded generator for op choice and parameters.
struct Client {
  std::mt19937_64 rng;
  uint64_t ops = 0;
  std::vector<int> order;  // a workload's current round, if it has rounds
};

/// One benchmark workload. Generate() makes the inputs from the seed and
/// is not timed; Setup() is the program-side set-up that setup_s times.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual ssql::EngineConfig Config(const std::string& work_dir) const;
  virtual int clients() const { return 1; }
  virtual int warmup_ops() const = 0;
  virtual int setup_repeats() const { return 5; }
  virtual std::vector<std::string> kinds() const = 0;
  virtual void Generate(uint64_t seed) = 0;
  /// Untimed preparation before each Setup() (boxing generated columns
  /// into rows is the benchmark's data generation, not set-up).
  virtual void PrepareSetup() {}
  /// Writes inputs and registers tables in `ctx`; `dir` is private to this
  /// set-up and is the only place it may write.
  virtual void Setup(ssql::SqlContext& ctx, const std::string& dir,
                     OpTrace* trace) = 0;
  virtual OpResult RunOp(OpRunner& runner, Client& client) = 0;
  /// Checks left for after the measured window (read-backs of written
  /// output). Returns the number of ops found wrong.
  virtual int FinalChecks(ssql::SqlContext&) { return 0; }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir);
std::vector<std::string> WorkloadNames();

/// Checks each workload's result checks against perturbed references and
/// compares input shapes across two seeds. Returns the number of failures.
int RunSelfTest(const std::string& work_dir);

/// Order-independent checksum of a string (FNV-1a, 64-bit).
uint64_t Fnv64(const std::string& s);

/// Relative comparison for floating-point sums computed in different
/// orders.
bool Near(double a, double b, double rel = 1e-6);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
