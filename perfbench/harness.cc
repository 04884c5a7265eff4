#include "perfbench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "engine/query_profile.h"
#include "sql/parser.h"
#include "util/log.h"

namespace perfbench {

using ssql::ProfileCounter;
using ssql::ProfileSpan;
using ssql::SpanKind;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Fnv64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

uint32_t OpTrace::Begin(const std::string& name, const std::string& slot) {
  Span span;
  span.id = static_cast<uint32_t>(spans.size() + 1);
  span.parent = open;
  span.name = name;
  span.slot = slot;
  span.start_ns = NowNs();
  spans.push_back(std::move(span));
  open = spans.back().id;
  return open;
}

void OpTrace::End(uint32_t id) {
  Span& span = spans[id - 1];
  span.end_ns = NowNs();
  open = span.parent;
}

void OpTrace::AddClosed(const std::string& name, const std::string& slot,
                        int64_t start_ns, int64_t end_ns) {
  Span span;
  span.id = static_cast<uint32_t>(spans.size() + 1);
  span.parent = open;
  span.name = name;
  span.slot = slot;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans.push_back(std::move(span));
}

namespace {

// The traced run learns each query's profile at the one moment it is both
// complete and alive: QueryContext::Finish logs "query.slow" (the threshold
// is 0 in the traced run) on the thread that called Execute, before
// Execute returns and drops the context. on_start hands this thread its
// QueryContext; the log sink digests that context's profile when its
// query.slow line arrives. Reading the profile after Execute returns is not
// safe with several clients: the context's last owner may then be another
// thread's last_profile() slot, which the next query replaces.
thread_local OpTrace* tls_trace = nullptr;
thread_local ssql::QueryContext* tls_query = nullptr;

std::string OperatorFamily(const std::string& name) {
  if (name.find("Join") != std::string::npos) return "join";
  if (name.rfind("HashAggregate", 0) == 0) return "aggregate";
  if (name == "Exchange" || name == "Coalesce") return "exchange";
  if (name == "Sort" || name == "Limit") return "sort_limit";
  if (name == "Filter" || name == "Project" || name == "Project+Filter") {
    return "filter_project";
  }
  if (name.find("Scan") != std::string::npos || name == "InMemoryRelation" ||
      name == "Sample" || name == "Union") {
    return "scan";
  }
  return "other";
}

std::string SlotOf(const ProfileSpan& span) {
  switch (span.kind) {
    case SpanKind::kQuery:
      return "engine.lifecycle";
    case SpanKind::kPhase:
      if (span.name == "optimize") return "catalyst.optimize";
      if (span.name == "planning") return "catalyst.plan";
      return "engine.lifecycle";
    case SpanKind::kOperator:
      return "exec." + OperatorFamily(span.name);
    case SpanKind::kStage:
      if (span.name == "batch.pack") return "columnar.pack";
      if (span.name == "batch.unpack") return "columnar.unpack";
      return "";
    case SpanKind::kTask:
      return "";
  }
  return "";
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return covered;
}

/// Copies the profile's span tree (tasks excluded) into `trace` under its
/// open span, and sums what the per-layer metrics need.
ProfileDigest Digest(const ssql::QueryProfile& profile, OpTrace* trace) {
  ProfileDigest digest;
  const uint32_t parent = trace->open;
  std::function<void(const ProfileSpan*, uint32_t)> walk =
      [&](const ProfileSpan* span, uint32_t parent_id) {
        const int64_t end = span->end_ns.load(std::memory_order_acquire);
        if (span->kind == SpanKind::kTask) return;
        Span out;
        out.id = static_cast<uint32_t>(trace->spans.size() + 1);
        out.parent = parent_id;
        out.name = span->name;
        out.slot = SlotOf(*span);
        out.start_ns = span->start_ns;
        out.end_ns = end;
        trace->spans.push_back(out);
        if (span->kind == SpanKind::kPhase && span->name == "execution") {
          digest.execute_ns += end - span->start_ns;
        }
        if (span->kind == SpanKind::kStage) {
          std::vector<std::pair<int64_t, int64_t>> tasks;
          for (const ProfileSpan* child : span->children) {
            if (child->kind == SpanKind::kTask) {
              tasks.emplace_back(child->start_ns, child->end_ns.load());
            }
          }
          digest.stage_wait_ns +=
              (end - span->start_ns) - CoveredNs(tasks, span->start_ns, end);
        }
        if (span->kind == SpanKind::kOperator &&
            span->name == "HashAggregate(Partial)") {
          digest.partial_agg_in += span->Counter(ProfileCounter::kRowsIn);
          digest.partial_agg_out += span->Counter(ProfileCounter::kRowsOut);
        }
        for (const ProfileSpan* child : span->children) walk(child, out.id);
      };
  if (profile.root() != nullptr) walk(profile.root(), parent);
  for (int i = 0; i < ssql::kNumProfileCounters; ++i) {
    auto c = static_cast<ProfileCounter>(i);
    digest.totals[ssql::ProfileCounterName(c)] = profile.Total(c);
  }
  for (const auto& [rule, stat] : profile.rule_stats()) {
    digest.rule_invocations += stat.invocations;
    digest.rule_effective += stat.effective;
  }
  digest.worst_misestimate = profile.WorstMisestimate();
  digest.peak_reserved_bytes = profile.AggregateStats().peak_reserved_bytes;
  return digest;
}

void CaptureSink(ssql::LogLevel, const std::string& line) {
  if (tls_query != nullptr &&
      line.find(" query.slow query=" + std::to_string(tls_query->query_id()) +
                " ") != std::string::npos) {
    const int64_t start = NowNs();
    tls_trace->queries.push_back(Digest(tls_query->profile(), tls_trace));
    tls_query = nullptr;
    tls_trace->AddClosed("profile digest", "bench.capture", start, NowNs());
    return;
  }
  // Every query logs query.slow in the traced run; only other events are
  // worth showing.
  if (line.find(" query.slow ") != std::string::npos) return;
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace

void InstallCaptureSink() { ssql::SetLogSink(CaptureSink); }
void RemoveCaptureSink() { ssql::SetLogSink(nullptr); }

ssql::PlanPtr OpRunner::ParseAndAnalyze(const std::string& sql) {
  ssql::ParsedStatement parsed;
  {
    ScopedSpan span(trace_, "ParseSql", "sql.parse");
    parsed = ssql::ParseSql(sql);
  }
  ScopedSpan span(trace_, "SqlContext::Analyze", "catalyst.analyze");
  return ctx_.Analyze(parsed.plan);
}

std::vector<ssql::Row> OpRunner::Sql(const std::string& sql) {
  return Run(ParseAndAnalyze(sql));
}

std::vector<ssql::Row> OpRunner::Run(const ssql::PlanPtr& analyzed) {
  ssql::QueryOptions options;
  if (trace_ != nullptr) {
    options.on_start = [this](ssql::QueryContext& query) {
      // Everything between the Execute call and admission is queueing.
      trace_->AddClosed("admission", "engine.admission_wait",
                        trace_->spans[trace_->open - 1].start_ns, NowNs());
      trace_->last_query_id = query.query_id();
      tls_trace = trace_;
      tls_query = &query;
    };
  }
  ssql::RowDataset data;
  {
    ScopedSpan span(trace_, "SqlContext::Execute", "engine.lifecycle");
    data = ctx_.Execute(analyzed, options);
  }
  tls_query = nullptr;
  ScopedSpan span(trace_, "RowDataset::Collect", "api.collect");
  return data.Collect();
}

void OpRunner::Save(const ssql::DataFrame& df, const std::string& provider,
                    const std::string& path) {
  {
    ScopedSpan span(trace_, "DataFrame::Save", "datasources.write");
    df.Save(provider, {{"path", path}});
  }
  if (trace_ == nullptr) return;
  // Save executes its plan itself, without QueryOptions; its record in the
  // finished-query ring gives that execution's duration. Ops that save run
  // on one client, so the queries after the op's own are Save's.
  ScopedSpan span(trace_, "query records", "bench.capture");
  for (const ssql::QueryRecord& record : ctx_.exec().QueryRecords()) {
    if (record.id > trace_->last_query_id) {
      trace_->save_exec_ns += record.duration_ms * 1'000'000;
    }
  }
}

}  // namespace perfbench
