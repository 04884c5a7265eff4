// The repository benchmark: runs one workload for a fixed window
// and prints its metrics; the last line of stdout is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
//
//   perfbench --workload amplab_files --seed 1 --seconds 30 --trace 0
//       --work-dir <scratch dir> [--spans-out <file>]
//   perfbench --selftest --work-dir <scratch dir>
//
// --trace 0 reports the end-to-end metrics with the benchmark's own tracing
// off and engine tracing at its defaults. --trace 1 runs half the window
// untraced and half traced, and reports the per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "engine/diagnostics.h"
#include "perfbench/harness.h"

#ifndef SSQL_PERFBENCH_COMPILER
#define SSQL_PERFBENCH_COMPILER "unknown"
#endif
#ifndef SSQL_PERFBENCH_BUILD_TYPE
#define SSQL_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string work_dir;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args->workload = value;
      else if (flag == "--seed") args->seed = std::stoull(value);
      else if (flag == "--seconds") args->seconds = std::stod(value);
      else if (flag == "--trace") args->trace = std::stoi(value) != 0;
      else if (flag == "--work-dir") args->work_dir = value;
      else if (flag == "--spans-out") args->spans_out = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->work_dir.empty() && (args->selftest || args->seconds > 0);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile of sorted values.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

uint64_t ClientSeed(uint64_t seed, int client) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(client) + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 31);
}

struct Sample {
  int kind = 0;
  double latency_ms = 0;
};

/// One measured window: every op's latency, the errors, the CPU used, and
/// (traced) every op's spans.
struct Window {
  std::vector<Sample> samples;
  std::vector<std::unique_ptr<OpTrace>> traces;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

std::atomic<uint64_t> next_op_id{1};
std::atomic<int> errors_printed{0};

/// Runs one op and checks its result. Returns false if it was wrong or
/// threw; `latency_ms` is the op's engine work, without the check.
bool RunOne(Workload& w, ssql::SqlContext& ctx, Client& client,
            std::unique_ptr<OpTrace>* trace_out, Sample* sample) {
  std::unique_ptr<OpTrace> trace;
  if (trace_out != nullptr) {
    trace = std::make_unique<OpTrace>();
    trace->op_id = next_op_id++;
  }
  OpRunner runner(ctx, trace.get());
  std::string error;
  OpResult result;
  const int64_t start = NowNs();
  const uint32_t root = trace ? trace->Begin("op", "bench.unattributed") : 0;
  try {
    result = w.RunOp(runner, client);
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (trace) trace->End(root);
  sample->kind = result.kind;
  sample->latency_ms = static_cast<double>(NowNs() - start) / 1e6;
  if (error.empty() && result.check) {
    try {
      error = result.check();
    } catch (const std::exception& e) {
      error = std::string("check threw: ") + e.what();
    }
  }
  if (!error.empty() && errors_printed++ < 5) {
    std::fprintf(stderr, "perfbench: op failed (%s): %s\n",
                 w.kinds()[result.kind].c_str(), error.c_str());
  }
  if (trace_out != nullptr) *trace_out = std::move(trace);
  return error.empty();
}

Window Measure(Workload& w, ssql::SqlContext& ctx, std::vector<Client>& clients,
               double seconds, bool traced) {
  const int n = static_cast<int>(clients.size());
  std::vector<Window> parts(n);
  const double cpu0 = CpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Window& part = parts[c];
      // A client with a round in progress finishes it, so every window
      // holds whole rounds and the same mix of op kinds.
      while (NowNs() < deadline || !clients[c].order.empty()) {
        Sample sample;
        std::unique_ptr<OpTrace> trace;
        const bool ok =
            RunOne(w, ctx, clients[c], traced ? &trace : nullptr, &sample);
        ++part.attempted;
        if (!ok) ++part.failed;
        part.samples.push_back(sample);
        if (trace) part.traces.push_back(std::move(trace));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Window out;
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  out.cpu_s = CpuSeconds() - cpu0;
  for (Window& part : parts) {
    out.attempted += part.attempted;
    out.failed += part.failed;
    out.samples.insert(out.samples.end(), part.samples.begin(),
                       part.samples.end());
    for (auto& t : part.traces) out.traces.push_back(std::move(t));
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Median latency of each op kind that ran, by kind name.
std::map<std::string, double> KindMedians(const Window& win, const Workload& w) {
  std::vector<std::vector<double>> by_kind(w.kinds().size());
  for (const Sample& s : win.samples) by_kind[s.kind].push_back(s.latency_ms);
  std::map<std::string, double> out;
  for (size_t k = 0; k < by_kind.size(); ++k) {
    if (!by_kind[k].empty()) out[w.kinds()[k]] = Median(by_kind[k]);
  }
  return out;
}

/// Geometric mean of the kinds' median latencies: a 2x change on a 3 ms
/// query counts as much as one on a 900 ms query.
double GeomeanMs(const Window& win, const Workload& w) {
  double log_sum = 0;
  int kinds = 0;
  for (const auto& [kind, median] : KindMedians(win, w)) {
    log_sum += std::log(median);
    ++kinds;
  }
  return kinds ? std::exp(log_sum / kinds) : 0;
}

std::vector<Metric> EndToEnd(const Window& win, const Workload& w,
                             double setup_s) {
  std::vector<double> all;
  for (const Sample& s : win.samples) all.push_back(s.latency_ms);
  std::sort(all.begin(), all.end());
  const double ops = static_cast<double>(all.size());
  return {
      {"ops_per_s", ops / win.wall_s, "1/s"},
      {"op_p50_ms", Quantile(all, 0.5), "ms"},
      {"op_p90_ms", Quantile(all, 0.9), "ms"},
      {"cpu_ms_per_op", win.cpu_s * 1000 / ops, "ms"},
      {"query_geomean_ms", GeomeanMs(win, w), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
}

/// Self time of every accounted span (non-empty slot), summed by slot. A
/// span's children for this purpose are the accounted spans whose nearest
/// accounted ancestor it is; detail spans (stages, tasks) belong to the
/// operator that launched them.
std::map<std::string, double> SelfNsBySlot(const OpTrace& t) {
  const size_t n = t.spans.size();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(n + 1);
  for (const Span& s : t.spans) {
    if (s.slot.empty()) continue;
    uint32_t p = s.parent;
    while (p != 0 && t.spans[p - 1].slot.empty()) p = t.spans[p - 1].parent;
    kids[p].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> out;
  for (const Span& s : t.spans) {
    if (s.slot.empty()) continue;
    auto& iv = kids[s.id];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cursor = s.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      covered += b - a;
      cursor = b;
    }
    out[s.slot] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

struct LayerInputs {
  double journal_appended = 0;
  double journal_dropped = 0;
  double queries_started = 0;
  double untraced_geomean_ms = 0;
  double traced_geomean_ms = 0;
  double cache_build_s = 0;
};

std::vector<Metric> PerLayer(const Window& win, const LayerInputs& in) {
  // Additive quantities are averaged over ops (a layer that only some op
  // kinds use would read 0 as a median); levels and shares take the
  // median op; ratios are taken over the window's totals.
  std::map<std::string, double> sum;
  std::map<std::string, std::vector<double>> per_op;
  double rule_inv = 0, rule_eff = 0, agg_in = 0, agg_out = 0, returned = 0;
  const double ops = std::max<size_t>(win.traces.size(), 1);
  for (const auto& t : win.traces) {
    std::map<std::string, double> self = SelfNsBySlot(*t);
    const Span& root = t->spans.front();
    const double wall = static_cast<double>(root.end_ns - root.start_ns);
    for (const auto& [slot, ns] : self) sum[slot] += ns;
    sum["save_exec"] += static_cast<double>(t->save_exec_ns);
    double worst = 0, peak = 0;
    for (const ProfileDigest& q : t->queries) {
      sum["execute"] += static_cast<double>(q.execute_ns);
      sum["stage_wait"] += static_cast<double>(q.stage_wait_ns);
      for (const char* c : {"attempts", "retries", "shuffle_rows",
                            "broadcast_rows", "build_rows", "probe_rows",
                            "spill_bytes", "spill_files", "rows_scanned"}) {
        sum[c] += static_cast<double>(q.totals.at(c));
      }
      returned += static_cast<double>(q.totals.at("rows_returned"));
      rule_inv += static_cast<double>(q.rule_invocations);
      rule_eff += static_cast<double>(q.rule_effective);
      agg_in += static_cast<double>(q.partial_agg_in);
      agg_out += static_cast<double>(q.partial_agg_out);
      worst = std::max(worst, q.worst_misestimate);
      peak = std::max(peak, static_cast<double>(q.peak_reserved_bytes));
    }
    per_op["worst"].push_back(worst);
    per_op["peak"].push_back(peak / (1 << 20));
    per_op["unattributed"].push_back(
        wall > 0 ? 100.0 * self["bench.unattributed"] / wall : 0);
  }
  auto mean = [&](const std::string& key, double scale) {
    return sum[key] / scale / ops;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<Metric> out = {
      {"sql.parse_us", mean("sql.parse", 1e3), "us"},
      {"catalyst.analyze_us", mean("catalyst.analyze", 1e3), "us"},
      {"catalyst.optimize_us", mean("catalyst.optimize", 1e3), "us"},
      {"catalyst.plan_us", mean("catalyst.plan", 1e3), "us"},
      {"catalyst.rule_effective_ratio", ratio(rule_eff, rule_inv), "ratio"},
      {"catalyst.worst_misestimate", Median(per_op["worst"]), "ratio"},
      {"engine.admission_wait_ms", mean("engine.admission_wait", 1e6), "ms"},
      {"engine.execute_ms", mean("execute", 1e6), "ms"},
      {"engine.lifecycle_ms", mean("engine.lifecycle", 1e6), "ms"},
      {"engine.stage_wait_ms", mean("stage_wait", 1e6), "ms"},
      {"engine.task_attempts", mean("attempts", 1), "count"},
      {"engine.task_retries", mean("retries", 1), "count"},
      {"engine.peak_reserved_mb", Median(per_op["peak"]), "MB"},
      {"engine.queries_per_op", in.queries_started / ops, "count"},
  };
  for (const char* family : {"scan", "filter_project", "aggregate", "exchange",
                             "join", "sort_limit", "other"}) {
    out.push_back({std::string("exec.") + family + "_self_ms",
                   mean(std::string("exec.") + family, 1e6), "ms"});
  }
  const double write_ns = std::max(0.0, sum["datasources.write"] - sum["save_exec"]);
  std::vector<Metric> rest = {
      {"exec.partial_agg_reduction", ratio(agg_out, agg_in), "ratio"},
      {"exec.shuffle_rows", mean("shuffle_rows", 1), "count"},
      {"exec.broadcast_rows", mean("broadcast_rows", 1), "count"},
      {"exec.build_rows", mean("build_rows", 1), "count"},
      {"exec.probe_rows", mean("probe_rows", 1), "count"},
      {"columnar.pack_ms", mean("columnar.pack", 1e6), "ms"},
      {"columnar.unpack_ms", mean("columnar.unpack", 1e6), "ms"},
      {"columnar.cache_build_s", in.cache_build_s, "s"},
      {"datasources.rows_scanned", mean("rows_scanned", 1), "count"},
      {"datasources.pushdown_ratio", ratio(returned, sum["rows_scanned"]), "ratio"},
      {"datasources.open_ms", mean("datasources.open", 1e6), "ms"},
      {"datasources.write_ms", write_ns / 1e6 / ops, "ms"},
      {"util.spill_mb", mean("spill_bytes", 1 << 20), "MB"},
      {"util.spill_files", mean("spill_files", 1), "count"},
      {"util.journal_events", in.journal_appended / ops, "count"},
      {"util.journal_dropped", in.journal_dropped / ops, "count"},
      {"api.collect_ms", mean("api.collect", 1e6), "ms"},
      {"api.dataframe_us", mean("api.dataframe", 1e3), "us"},
      {"bench.capture_us", mean("bench.capture", 1e3), "us"},
      {"bench.unattributed_pct", Median(per_op["unattributed"]), "%"},
      {"bench.trace_overhead_pct",
       100.0 * (ratio(in.traced_geomean_ms, in.untraced_geomean_ms) - 1.0), "%"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void WriteSpans(const std::string& path, const Window& win, int64_t origin) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  for (const auto& t : win.traces) {
    for (const Span& s : t->spans) {
      out << "{\"op\":" << t->op_id << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\""
          << JsonEscape(s.name) << "\",\"slot\":\"" << s.slot
          << "\",\"start_us\":" << Num((s.start_ns - origin) / 1e3)
          << ",\"end_us\":" << Num((s.end_ns - origin) / 1e3) << "}\n";
    }
  }
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.work_dir);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const ssql::EngineConfig config = w->Config(args.work_dir);
  w->Generate(args.seed);

  // Set-up, several times; the last context is the one measured.
  std::vector<double> setup_s, cache_build_s;
  std::unique_ptr<ssql::SqlContext> ctx;
  for (int r = 0; r < w->setup_repeats(); ++r) {
    ctx.reset();
    const std::string dir = args.work_dir + "/setup";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    w->PrepareSetup();
    OpTrace setup_trace;
    const int64_t start = NowNs();
    ctx = std::make_unique<ssql::SqlContext>(config);
    w->Setup(*ctx, dir, &setup_trace);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    double cache_ns = 0;
    for (const Span& s : setup_trace.spans) {
      if (s.slot == "columnar.cache_build") cache_ns += s.end_ns - s.start_ns;
    }
    cache_build_s.push_back(cache_ns / 1e9);
  }

  std::vector<Client> clients(w->clients());
  for (int c = 0; c < w->clients(); ++c) {
    clients[c].rng.seed(ClientSeed(args.seed, c));
  }
  // Warm-up: outside the measured window, but checked like any op.
  uint64_t attempted = 0, failed = 0;
  for (int i = 0; i < w->warmup_ops(); ++i) {
    Sample sample;
    ++attempted;
    if (!RunOne(*w, *ctx, clients[0], nullptr, &sample)) ++failed;
  }

  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  Window untraced = Measure(*w, *ctx, clients, window_s, false);
  attempted += untraced.attempted;
  failed += untraced.failed;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(untraced, *w, Median(setup_s));
  } else {
    ctx->UpdateConfig([](ssql::EngineConfig& c) {
      c.slow_query_threshold_ms = 0;  // every query logs at finish
      c.log_level = "warn";
    });
    ssql::ExecContext& engine = ctx->exec();
    auto& started = engine.registry().Counter("ssql_queries_started_total");
    LayerInputs in;
    const double appended0 = static_cast<double>(engine.journal().appended());
    const double dropped0 = static_cast<double>(engine.journal().dropped());
    const double started0 = static_cast<double>(started.value());
    const int64_t origin = NowNs();
    InstallCaptureSink();
    Window traced = Measure(*w, *ctx, clients, window_s, true);
    RemoveCaptureSink();
    ctx->SetConfig(config);
    attempted += traced.attempted;
    failed += traced.failed;
    in.journal_appended = engine.journal().appended() - appended0;
    in.journal_dropped = engine.journal().dropped() - dropped0;
    in.queries_started = started.value() - started0;
    in.untraced_geomean_ms = GeomeanMs(untraced, *w);
    in.traced_geomean_ms = GeomeanMs(traced, *w);
    in.cache_build_s = Median(cache_build_s);
    metrics = PerLayer(traced, in);
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, traced, origin);
  }
  failed += static_cast<uint64_t>(w->FinalChecks(*ctx));

  // Facts about the run, then one row per metric, then the result object.
  std::string kinds;
  for (const auto& [kind, median] : KindMedians(untraced, *w)) {
    kinds += (kinds.empty() ? "\"" : ", \"") + kind + "\": " + Num(median);
  }
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"clients\": %d, \"ops\": %zu, \"setup_runs\": %zu, "
      "\"kind_median_ms\": {%s}, \"engine_config\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), SSQL_PERFBENCH_COMPILER,
      SSQL_PERFBENCH_BUILD_TYPE, w->clients(), untraced.samples.size(),
      setup_s.size(), kinds.c_str(),
      JsonEscape(ssql::RenderEngineConfig(config)).c_str());
  for (const Metric& m : metrics) {
    std::printf("%-32s %16s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  ctx.reset();
  std::filesystem::remove_all(args.work_dir);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--spans-out <file>] | --selftest --work-dir <dir>\n");
    return 2;
  }
  try {
    if (args.selftest) return perfbench::RunSelfTest(args.work_dir) == 0 ? 0 : 1;
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
