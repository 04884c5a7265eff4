// Observability tests: per-operator QueryProfile counters reconcile with
// actual result cardinalities, spans strictly nest and always close (success,
// error, retry, cancellation), EXPLAIN ANALYZE golden-shape checks, the
// Chrome trace-event export parses and covers every stage, Catalyst rule
// counters only move when a rule actually rewrites, and the per-query
// counters reconcile with the legacy Metrics aggregates (spill, retries).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "api/sql_context.h"
#include "datasources/json_parser.h"
#include "engine/query_profile.h"

namespace ssql {
namespace {

DataFrame Numbers(SqlContext& ctx, int n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({Value(int32_t(i)), Value(int32_t(i % 10))}));
  }
  auto schema = StructType::Make({Field("x", DataType::Int32(), false),
                                  Field("k", DataType::Int32(), false)});
  return ctx.CreateDataFrame(schema, std::move(rows));
}

DataFrame Dimension(SqlContext& ctx, int n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({Value(int32_t(i)), Value("name" + std::to_string(i))}));
  }
  auto schema = StructType::Make({Field("k", DataType::Int32(), false),
                                  Field("name", DataType::String(), false)});
  return ctx.CreateDataFrame(schema, std::move(rows));
}

// Depth-first walk over the span tree.
void Walk(const ProfileSpan* span,
          const std::function<void(const ProfileSpan*)>& fn) {
  fn(span);
  for (const ProfileSpan* child : span->children) Walk(child, fn);
}

std::vector<const ProfileSpan*> OperatorSpans(const QueryProfile& profile,
                                              const std::string& name = "") {
  std::vector<const ProfileSpan*> out;
  Walk(profile.root(), [&](const ProfileSpan* s) {
    if (s->kind == SpanKind::kOperator && (name.empty() || s->name == name)) {
      out.push_back(s);
    }
  });
  return out;
}

std::string ScratchPath(const std::string& tag) {
  return ::testing::TempDir() + "/ssql-obs-" + tag + "-" +
         std::to_string(::getpid());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Trace files are written as "<stem>-q<id>.json" with a process-global
/// query id; find the (single) one matching `base`'s stem.
std::string FindTraceFile(const std::string& base) {
  namespace fs = std::filesystem;
  fs::path basep(base);
  std::string prefix = basep.stem().string() + "-q";
  for (const auto& entry : fs::directory_iterator(basep.parent_path())) {
    std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) return entry.path().string();
  }
  return "";
}

// ---- rows in/out agree with result cardinalities ---------------------------

TEST(ProfileCountersTest, RowsAgreeAcrossScanFilterJoinAggregateSort) {
  SqlContext ctx;
  DataFrame fact = Numbers(ctx, 300);   // k in [0, 10)
  DataFrame dim = Dimension(ctx, 10);
  fact.RegisterTempTable("fact");
  dim.RegisterTempTable("dim");

  DataFrame result = ctx.Sql(
      "SELECT dim.name, count(*) AS c FROM fact JOIN dim ON fact.k = dim.k "
      "WHERE fact.x < 200 GROUP BY dim.name ORDER BY c DESC");
  std::vector<Row> rows = result.Collect();
  ASSERT_EQ(rows.size(), 10u);

  const QueryProfile& profile = ctx.last_profile();
  ASSERT_TRUE(profile.finished());

  // The root-most operator's rows_out is the query's result cardinality.
  ASSERT_NE(profile.root(), nullptr);
  std::vector<const ProfileSpan*> ops = OperatorSpans(profile);
  ASSERT_FALSE(ops.empty());
  const ProfileSpan* top = ops.front();  // pre-order: first is the tree root
  EXPECT_EQ(top->name, "Sort");
  EXPECT_EQ(top->Counter(ProfileCounter::kRowsOut), 10);

  // Every operator with operator children has rows_in == sum(children out).
  for (const ProfileSpan* op : ops) {
    int64_t child_out = 0;
    bool has_op_child = false;
    for (const ProfileSpan* child : op->children) {
      if (child->kind == SpanKind::kOperator) {
        has_op_child = true;
        child_out += child->Counter(ProfileCounter::kRowsOut);
      }
    }
    if (has_op_child) {
      EXPECT_EQ(op->Counter(ProfileCounter::kRowsIn), child_out)
          << "operator " << op->name;
    }
    EXPECT_GT(op->Counter(ProfileCounter::kBatches), 0)
        << "operator " << op->name;
    EXPECT_EQ(op->status, "ok") << "operator " << op->name;
  }

  // The join streamed the filtered fact side and built from the dim side.
  std::vector<const ProfileSpan*> joins =
      OperatorSpans(profile, "BroadcastHashJoin");
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0]->Counter(ProfileCounter::kBuildRows), 10);
  EXPECT_EQ(joins[0]->Counter(ProfileCounter::kProbeRows), 200);
  EXPECT_EQ(joins[0]->Counter(ProfileCounter::kRowsOut), 200);
}

// ---- span nesting + closing ------------------------------------------------

void ExpectSpansNestAndClose(const QueryProfile& profile) {
  ASSERT_NE(profile.root(), nullptr);
  ASSERT_TRUE(profile.finished());
  Walk(profile.root(), [&](const ProfileSpan* s) {
    EXPECT_TRUE(s->closed()) << SpanKindName(s->kind) << " " << s->name;
    EXPECT_FALSE(s->status.empty())
        << SpanKindName(s->kind) << " " << s->name;
    int64_t end = s->end_ns.load();
    EXPECT_GE(end, s->start_ns) << s->name;
    for (const ProfileSpan* child : s->children) {
      EXPECT_EQ(child->parent, s);
      // Strict nesting: children begin after and end before their parent.
      EXPECT_GE(child->start_ns, s->start_ns) << child->name;
      EXPECT_LE(child->end_ns.load(), end) << child->name;
    }
  });
}

TEST(SpanTreeTest, SpansNestAndCloseOnSuccess) {
  SqlContext ctx;
  DataFrame df = Numbers(ctx, 500);
  df.RegisterTempTable("t");
  ctx.Sql("SELECT k, sum(x) FROM t GROUP BY k").Collect();

  const QueryProfile& profile = ctx.last_profile();
  ExpectSpansNestAndClose(profile);
  EXPECT_EQ(profile.root()->status, "ok");

  // The five span levels all appear: query -> phase -> operator -> stage ->
  // task, and phases carry the Catalyst pipeline names.
  std::vector<std::string> phases;
  bool saw_stage = false, saw_task = false;
  Walk(profile.root(), [&](const ProfileSpan* s) {
    if (s->kind == SpanKind::kPhase) phases.push_back(s->name);
    if (s->kind == SpanKind::kStage) saw_stage = true;
    if (s->kind == SpanKind::kTask) {
      saw_task = true;
      EXPECT_EQ(s->parent->kind, SpanKind::kStage);
    }
  });
  EXPECT_EQ(phases,
            (std::vector<std::string>{"optimize", "planning", "execution"}));
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_task);
}

TEST(SpanTreeTest, SpansCloseOnErrorWithErrorStatus) {
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.fault_injection_spec = "project:1:0"; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.task_max_retries = 0; });  // first failure is fatal
  DataFrame df = Numbers(ctx, 100);
  df.RegisterTempTable("t");
  EXPECT_THROW(ctx.Sql("SELECT x + 1 FROM t").Collect(), ExecutionError);

  const QueryProfile& profile = ctx.last_profile();
  ExpectSpansNestAndClose(profile);
  EXPECT_NE(profile.root()->status.find("error"), std::string::npos)
      << profile.root()->status;

  // The failing task span records the failure; the stage span carries the
  // error status too.
  bool saw_failed_task = false, saw_failed_stage = false;
  Walk(profile.root(), [&](const ProfileSpan* s) {
    if (s->kind == SpanKind::kTask &&
        s->status.find("error") != std::string::npos) {
      saw_failed_task = true;
      EXPECT_EQ(s->Counter(ProfileCounter::kFailures), 1);
    }
    if (s->kind == SpanKind::kStage &&
        s->status.find("error") != std::string::npos) {
      saw_failed_stage = true;
    }
  });
  EXPECT_TRUE(saw_failed_task);
  EXPECT_TRUE(saw_failed_stage);
  EXPECT_EQ(profile.Total(ProfileCounter::kFailures), 1);
}

TEST(SpanTreeTest, RetriedTaskStaysOneSpanAndCountsAttempts) {
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.fault_injection_spec = "project:1:0,project:3:0"; });
  DataFrame df = Numbers(ctx, 100);
  df.RegisterTempTable("t");
  std::vector<Row> rows = ctx.Sql("SELECT x + 1 FROM t").Collect();
  EXPECT_EQ(rows.size(), 100u);

  const QueryProfile& profile = ctx.last_profile();
  ExpectSpansNestAndClose(profile);
  EXPECT_EQ(profile.root()->status, "ok");
  EXPECT_EQ(profile.Total(ProfileCounter::kRetries), 2);
  EXPECT_EQ(profile.Total(ProfileCounter::kFailures), 0);
  // One span per partition covering all attempts: attempts = retries extra.
  Walk(profile.root(), [&](const ProfileSpan* s) {
    if (s->kind != SpanKind::kTask) return;
    EXPECT_EQ(s->status, "ok") << s->name;
    EXPECT_EQ(s->Counter(ProfileCounter::kAttempts),
              1 + s->Counter(ProfileCounter::kRetries))
        << s->name;
  });
  // Legacy aggregates match the profile totals.
  EXPECT_EQ(ctx.exec().metrics().Get("task.retries"), 2);
  EXPECT_EQ(profile.Total(ProfileCounter::kAttempts),
            ctx.exec().metrics().Get("task.attempts"));
}

TEST(SpanTreeTest, SpansCloseOnCancellation) {
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.query_timeout_ms = 0; });  // expires instantly
  DataFrame df = Numbers(ctx, 1000);
  df.RegisterTempTable("t");
  EXPECT_THROW(ctx.Sql("SELECT x + 1 FROM t").Collect(), ExecutionError);

  const QueryProfile& profile = ctx.last_profile();
  ExpectSpansNestAndClose(profile);
  EXPECT_NE(profile.root()->status, "ok");
}

// ---- EXPLAIN ANALYZE golden shape ------------------------------------------

TEST(ExplainTest, ExplainAnalyzeRendersActuals) {
  SqlContext ctx;
  Numbers(ctx, 300).RegisterTempTable("fact");
  Dimension(ctx, 10).RegisterTempTable("dim");

  DataFrame explained = ctx.Sql(
      "EXPLAIN ANALYZE SELECT dim.name, count(*) AS c FROM fact JOIN dim "
      "ON fact.k = dim.k GROUP BY dim.name");
  std::vector<Row> rows = explained.Collect();
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(explained.schema()->field(0).name, "plan");
  std::string text = rows[0].Get(0).ToString();

  // Static plan, then the profiled sections in order.
  for (const char* section :
       {"== Physical Plan ==", "== Analyzed Execution ==",
        "== Physical Plan (actual) ==", "== Optimizer Rules ==",
        "== Totals =="}) {
    EXPECT_NE(text.find(section), std::string::npos) << section << "\n"
                                                     << text;
  }
  size_t actual = text.find("== Physical Plan (actual) ==");
  ASSERT_NE(actual, std::string::npos);
  // Each operator line is annotated with actuals.
  for (const char* fragment :
       {"BroadcastHashJoin", "HashAggregate", "rows_out=", "rows_in=",
        "batches=", "time=", "build_rows=10", "probe_rows=300",
        "Phase optimize", "Phase planning", "Phase execution",
        "status=ok"}) {
    EXPECT_NE(text.find(fragment), std::string::npos) << fragment << "\n"
                                                      << text;
  }
  // ANALYZE actually executed the query.
  EXPECT_NE(text.find("rows_out=10"), std::string::npos) << text;
}

TEST(ExplainTest, ExplainWithoutAnalyzeDoesNotExecute) {
  SqlContext ctx;
  Numbers(ctx, 100).RegisterTempTable("t");
  ctx.exec().metrics().Reset();
  DataFrame explained = ctx.Sql("EXPLAIN SELECT x FROM t WHERE x < 10");
  // Rendering the plan launched no stages.
  EXPECT_EQ(ctx.exec().metrics().Get("task.attempts"), 0);
  std::vector<Row> rows = explained.Collect();
  ASSERT_EQ(rows.size(), 1u);
  std::string text = rows[0].Get(0).ToString();
  EXPECT_NE(text.find("== Physical Plan =="), std::string::npos);
  EXPECT_EQ(text.find("== Analyzed Execution =="), std::string::npos);
}

TEST(ExplainTest, ExtendedExplainShowsLogicalPlansAndJoinDecision) {
  SqlContext ctx;
  DataFrame fact = Numbers(ctx, 300);
  DataFrame dim = Dimension(ctx, 10);
  fact.RegisterTempTable("fact");
  dim.RegisterTempTable("dim");

  DataFrame query = ctx.Sql(
      "SELECT dim.name FROM fact JOIN dim ON fact.k = dim.k");
  std::string text = query.Explain(/*extended=*/true);
  for (const char* fragment :
       {"== Analyzed Logical Plan ==", "== Optimized Logical Plan ==",
        "== Join Selection ==", "BroadcastHashJoin", "broadcast threshold",
        "== Physical Plan =="}) {
    EXPECT_NE(text.find(fragment), std::string::npos) << fragment << "\n"
                                                      << text;
  }

  // The enum form agrees with the boolean shorthand.
  EXPECT_EQ(text, query.Explain(ExplainMode::kExtended));
  std::string simple = query.Explain();
  EXPECT_EQ(simple.find("== Join Selection =="), std::string::npos);
  EXPECT_NE(simple.find("== Physical Plan =="), std::string::npos);

  // SQL EXPLAIN EXTENDED routes through the same renderer.
  DataFrame explained = ctx.Sql(
      "EXPLAIN EXTENDED SELECT dim.name FROM fact JOIN dim "
      "ON fact.k = dim.k");
  std::string sql_text = explained.Collect()[0].Get(0).ToString();
  EXPECT_NE(sql_text.find("== Join Selection =="), std::string::npos);
}

// ---- trace-event export ----------------------------------------------------

TEST(TraceExportTest, TraceJsonParsesAndCoversAllStages) {
  EngineConfig config;
  std::string trace_path = ScratchPath("trace") + ".json";
  config.trace_path = trace_path;
  config.query_memory_limit_bytes = 64 * 1024;  // force the group-by to spill
  SqlContext ctx(config);
  Numbers(ctx, 5000).RegisterTempTable("fact");
  Dimension(ctx, 10).RegisterTempTable("dim");
  ctx.Sql(
         "SELECT fact.x, count(*) AS c FROM fact "
         "JOIN dim ON fact.k = dim.k GROUP BY fact.x")
      .Collect();

  std::string resolved = FindTraceFile(trace_path);
  ASSERT_FALSE(resolved.empty()) << "no trace file written for " << trace_path;
  JsonValue doc = ParseJson(Slurp(resolved));
  std::filesystem::remove(resolved);

  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* unit = doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->s, "ms");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events->elements.empty());

  // Two event shapes are legal: complete spans (ph "X": ts + dur) and
  // instant events (ph "i": a point in time, no dur) such as task retries,
  // speculation outcomes and journal drops.
  auto is_complete = [](const JsonValue& ev) {
    return ev.Find("ph")->s == "X";
  };
  int64_t query_ts = -1, query_end = -1;
  std::vector<std::string> names;
  for (const JsonValue& ev : events->elements) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->s == "X" || ph->s == "i") << "unexpected ph " << ph->s;
    for (const char* key : {"name", "ts", "pid", "tid"}) {
      ASSERT_NE(ev.Find(key), nullptr) << key;
    }
    if (is_complete(ev)) {
      ASSERT_NE(ev.Find("dur"), nullptr) << ev.Find("name")->s;
    } else {
      EXPECT_EQ(ev.Find("dur"), nullptr) << ev.Find("name")->s;
    }
    names.push_back(ev.Find("name")->s);
    const JsonValue* cat = ev.Find("cat");
    if (is_complete(ev) && cat != nullptr && cat->s == "query") {
      query_ts = ev.Find("ts")->i;
      query_end = query_ts + ev.Find("dur")->i;
    }
  }
  ASSERT_GE(query_ts, 0) << "no query-level event";

  // Every span fits inside the query event and every instant falls within
  // it (1us slack: durations are clamped up to 1us so sub-microsecond spans
  // can overhang slightly).
  for (const JsonValue& ev : events->elements) {
    int64_t ts = ev.Find("ts")->i;
    int64_t dur = is_complete(ev) ? ev.Find("dur")->i : 0;
    EXPECT_GE(ts, query_ts) << ev.Find("name")->s;
    EXPECT_LE(ts + dur, query_end + 1) << ev.Find("name")->s;
  }

  // The export covers Catalyst phases, operators, stages and tasks.
  auto contains = [&](const std::string& needle) {
    for (const std::string& n : names) {
      if (n.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  for (const char* expected :
       {"optimize", "planning", "execution", "BroadcastHashJoin",
        "HashAggregate", "Exchange", "p0"}) {
    EXPECT_TRUE(contains(expected)) << expected;
  }
}

// ---- Catalyst rule statistics ----------------------------------------------

TEST(RuleStatsTest, EffectiveMovesOnlyWhenARuleRewrites) {
  SqlContext ctx;
  Numbers(ctx, 100).RegisterTempTable("t");

  // Two stacked filters: CombineFilters must fire and be counted effective.
  ctx.Sql("SELECT x FROM (SELECT x, k FROM t WHERE x < 90) sub WHERE x > 10")
      .Collect();
  auto stats = ctx.last_profile().rule_stats();
  bool saw_effective = false, saw_ineffective = false;
  for (const auto& [key, stat] : stats) {
    EXPECT_GT(stat.invocations, 0) << key;
    EXPECT_LE(stat.effective, stat.invocations) << key;
    EXPECT_GE(stat.wall_ns, 0) << key;
    if (stat.effective > 0) saw_effective = true;
    if (stat.effective == 0) saw_ineffective = true;
  }
  EXPECT_TRUE(saw_effective);
  EXPECT_TRUE(saw_ineffective);
  auto combine = stats.find("Operator Optimizations/CombineFilters");
  ASSERT_NE(combine, stats.end());
  EXPECT_GT(combine->second.effective, 0);

  // A plan those rules cannot touch: the same rules run but stay at zero.
  ctx.Sql("SELECT x FROM t").Collect();
  stats = ctx.last_profile().rule_stats();
  combine = stats.find("Operator Optimizations/CombineFilters");
  ASSERT_NE(combine, stats.end());
  EXPECT_GT(combine->second.invocations, 0);
  EXPECT_EQ(combine->second.effective, 0);
}

// ---- reconciliation with the legacy metrics --------------------------------

TEST(LegacyReconcileTest, SpillCountersMatchLegacyAggregates) {
  EngineConfig config;
  config.query_memory_limit_bytes = 64 * 1024;
  config.spill_dir = ScratchPath("spill");
  SqlContext ctx(config);
  Numbers(ctx, 20000).RegisterTempTable("fact");
  Dimension(ctx, 10).RegisterTempTable("dim");

  // Group by the 20000-distinct-key column so the aggregation map cannot fit
  // in the 64KiB budget and must spill.
  std::vector<Row> rows =
      ctx.Sql(
             "SELECT fact.x, count(*) AS c FROM fact "
             "JOIN dim ON fact.k = dim.k GROUP BY fact.x")
          .Collect();
  ASSERT_EQ(rows.size(), 20000u);

  const QueryProfile& profile = ctx.last_profile();
  Metrics& metrics = ctx.exec().metrics();
  EXPECT_GT(profile.Total(ProfileCounter::kSpillBytes), 0);
  EXPECT_EQ(profile.Total(ProfileCounter::kSpillBytes),
            metrics.Get("memory.spill_bytes"));
  EXPECT_EQ(profile.Total(ProfileCounter::kSpillFiles),
            metrics.Get("memory.spill_files"));
  EXPECT_EQ(profile.Total(ProfileCounter::kPeakReservedBytes),
            metrics.Get("memory.peak_reserved_bytes"));
  EXPECT_GT(metrics.Get("memory.peak_reserved_bytes"), 0);

  // The spill shows up attributed to operator spans, and EXPLAIN ANALYZE's
  // totals section reports it.
  int64_t op_spill = 0;
  Walk(profile.root(), [&](const ProfileSpan* s) {
    op_spill += s->Counter(ProfileCounter::kSpillBytes);
  });
  EXPECT_EQ(op_spill, metrics.Get("memory.spill_bytes"));
  std::string rendered = profile.RenderAnalyzed();
  EXPECT_NE(rendered.find("spilled="), std::string::npos) << rendered;

  std::filesystem::remove_all(config.spill_dir);
}

TEST(LegacyReconcileTest, SourceCountersForwardToLegacyKeys) {
  SqlContext ctx;
  std::string path = ScratchPath("json") + ".json";
  {
    std::ofstream out(path);
    out << "{\"a\": 1}\n{\"a\": 2}\nnot json\n{\"a\": 3}\n";
  }
  DataFrame df = ctx.Read().Format("json").Mode("DROPMALFORMED").Load(path);
  EXPECT_EQ(df.Collect().size(), 3u);
  std::filesystem::remove(path);

  const QueryProfile& profile = ctx.last_profile();
  Metrics& metrics = ctx.exec().metrics();
  EXPECT_EQ(profile.Total(ProfileCounter::kRowsDropped), 1);
  EXPECT_EQ(metrics.Get("source.rows_dropped"), 1);
  EXPECT_EQ(metrics.Get("source.malformed_records"), 1);
  EXPECT_EQ(profile.Total(ProfileCounter::kRowsScanned),
            metrics.Get("source.rows_scanned"));
}

// ---- profiling disabled ----------------------------------------------------

TEST(ProfilingDisabledTest, LegacyMetricsStillWorkWithoutSpans) {
  EngineConfig config;
  config.profiling_enabled = false;
  SqlContext ctx(config);
  Numbers(ctx, 200).RegisterTempTable("t");
  std::vector<Row> rows = ctx.Sql("SELECT k, sum(x) FROM t GROUP BY k").Collect();
  EXPECT_EQ(rows.size(), 10u);

  const QueryProfile& profile = ctx.last_profile();
  EXPECT_FALSE(profile.detailed());
  EXPECT_EQ(profile.root(), nullptr);
  EXPECT_TRUE(profile.finished());
  // Legacy aggregates keep flowing; renderers stay safe.
  EXPECT_GT(ctx.exec().metrics().Get("task.attempts"), 0);
  EXPECT_NO_THROW(profile.ToJson());
  EXPECT_NO_THROW(profile.ToChromeTraceJson());
  EXPECT_NO_THROW(profile.RenderAnalyzed());
  EXPECT_NO_THROW(profile.SummaryLine());
}

TEST(ProfilingDisabledTest, TracePathRequiresProfiling) {
  EngineConfig config;
  config.profiling_enabled = false;
  config.trace_path = "/tmp/never-written.json";
  EXPECT_THROW(SqlContext ctx(config), ExecutionError);
}

}  // namespace
}  // namespace ssql
