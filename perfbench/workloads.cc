// The four workloads of the repository benchmark, their native reference
// results, and the self-test of the result checks.
//
// Inputs come from the AMPLab generators in bench/workloads.h at the sizes
// of the paper's Figure 8 (60k rankings, 200k uservisits), seeded from the
// benchmark's --seed. References are computed from the generated arrays by
// plain loops, in the style of bench_fig8_amplab.cc's "impala" paths.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "bench/workloads.h"
#include "perfbench/harness.h"

namespace perfbench {

using ssql::DataFrame;
using ssql::EngineConfig;
using ssql::PlanPtr;
using ssql::Row;
using ssql::SqlContext;
using ssql::Value;
namespace F = ssql::functions;

EngineConfig Workload::Config(const std::string& work_dir) const {
  EngineConfig config = ssql::bench::SparkSqlConfig();
  config.spill_dir = work_dir + "/spill";
  return config;
}

namespace {

constexpr size_t kRankings = 60000;
constexpr size_t kUserVisits = 200000;
// bench_fig8_amplab.cc's threshold: the 10 MB uservisits file never
// broadcasts, so Q3's join order is a real planner decision.
constexpr uint64_t kFig8BroadcastThreshold = 4ull * 1024 * 1024;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of one generator stream of a run: every input derives from --seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return SplitMix(seed * 0x100 + stream);
}

std::string Err(const char* what, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: got %.9g, want %.9g", what, got, want);
  return buf;
}

// ---- AMPLab (Fig. 8) queries and their native references ------------------

struct Q1Ref {
  int64_t rows = 0;
  uint64_t checksum = 0;  // sum over result rows of Fnv64(url) + rank
};
struct Q2Ref {
  int64_t groups = 0;
  double revenue = 0;
};
struct Q3Ref {
  std::string ip;
  double revenue = 0;
};

struct AmplabQuery {
  std::string name;
  std::string sql;
  int type = 1;  // 1, 2 or 3
  int param = 0;  // Q1 cutoff / Q2 prefix
  std::string until;  // Q3 window end
};

std::vector<AmplabQuery> AmplabQueries() {
  std::vector<AmplabQuery> out;
  const std::pair<const char*, int> q1[] = {
      {"q1a", 9500}, {"q1b", 5000}, {"q1c", 100}};
  for (auto [name, cutoff] : q1) {
    out.push_back({name,
                   "SELECT pageURL, pageRank FROM rankings WHERE pageRank > " +
                       std::to_string(cutoff),
                   1, cutoff, ""});
  }
  const std::pair<const char*, int> q2[] = {{"q2a", 4}, {"q2b", 8}, {"q2c", 12}};
  for (auto [name, prefix] : q2) {
    const std::string p = std::to_string(prefix);
    out.push_back({name,
                   "SELECT substr(sourceIP, 1, " + p +
                       "), sum(adRevenue) FROM uservisits GROUP BY "
                       "substr(sourceIP, 1, " + p + ")",
                   2, prefix, ""});
  }
  const std::pair<const char*, const char*> q3[] = {
      {"q3a", "1980-04-01"}, {"q3b", "1983-01-01"}, {"q3c", "2010-01-01"}};
  for (auto [name, until] : q3) {
    out.push_back(
        {name,
         std::string("SELECT sourceIP, sum(adRevenue) AS totalRevenue, "
                     "avg(pageRank) AS avgPageRank FROM rankings JOIN "
                     "uservisits ON pageURL = destURL WHERE visitDate BETWEEN "
                     "'1980-01-01' AND '") +
             until + "' GROUP BY sourceIP ORDER BY totalRevenue DESC LIMIT 1",
         3, 0, until});
  }
  return out;
}

Q1Ref RefQ1(const ssql::bench::RankingsData& r, int cutoff) {
  Q1Ref ref;
  for (size_t i = 0; i < r.page_rank.size(); ++i) {
    if (r.page_rank[i] > cutoff) {
      ++ref.rows;
      ref.checksum += Fnv64(r.page_url[i]) + static_cast<uint64_t>(r.page_rank[i]);
    }
  }
  return ref;
}

Q2Ref RefQ2(const ssql::bench::UserVisitsData& v, int prefix) {
  std::unordered_map<std::string, double> groups;
  Q2Ref ref;
  for (size_t i = 0; i < v.source_ip.size(); ++i) {
    groups[v.source_ip[i].substr(0, prefix)] += v.ad_revenue[i];
    ref.revenue += v.ad_revenue[i];
  }
  ref.groups = static_cast<int64_t>(groups.size());
  return ref;
}

Q3Ref RefQ3(const ssql::bench::RankingsData& r,
            const ssql::bench::UserVisitsData& v, const std::string& until) {
  ssql::DateValue lo, hi;
  ssql::ParseDate("1980-01-01", &lo);
  ssql::ParseDate(until, &hi);
  std::unordered_set<std::string> urls(r.page_url.begin(), r.page_url.end());
  std::unordered_map<std::string, double> by_ip;
  for (size_t i = 0; i < v.dest_url.size(); ++i) {
    if (v.visit_date_days[i] < lo.days || v.visit_date_days[i] > hi.days) {
      continue;
    }
    if (urls.count(v.dest_url[i]) == 0) continue;
    by_ip[v.source_ip[i]] += v.ad_revenue[i];
  }
  Q3Ref ref;
  for (const auto& [ip, revenue] : by_ip) {
    if (ref.ip.empty() || revenue > ref.revenue) {
      ref.ip = ip;
      ref.revenue = revenue;
    }
  }
  return ref;
}

std::string CheckQ1(const std::vector<Row>& rows, const Q1Ref& ref) {
  uint64_t checksum = 0;
  for (const Row& row : rows) {
    checksum += Fnv64(row.GetString(0)) +
                static_cast<uint64_t>(row.Get(1).AsInt64());
  }
  if (static_cast<int64_t>(rows.size()) != ref.rows) {
    return Err("q1 rows", rows.size(), ref.rows);
  }
  if (checksum != ref.checksum) return "q1 url checksum differs";
  return "";
}

std::string CheckQ2(const std::vector<Row>& rows, const Q2Ref& ref) {
  double revenue = 0;
  for (const Row& row : rows) revenue += row.Get(1).AsDouble();
  if (static_cast<int64_t>(rows.size()) != ref.groups) {
    return Err("q2 groups", rows.size(), ref.groups);
  }
  if (!Near(revenue, ref.revenue)) return Err("q2 revenue", revenue, ref.revenue);
  return "";
}

std::string CheckQ3(const std::vector<Row>& rows, const Q3Ref& ref) {
  if (rows.size() != 1) return Err("q3 rows", rows.size(), 1);
  if (rows[0].GetString(0) != ref.ip) {
    return "q3 top sourceIP " + rows[0].GetString(0) + ", want " + ref.ip;
  }
  const double revenue = rows[0].Get(1).AsDouble();
  if (!Near(revenue, ref.revenue)) return Err("q3 revenue", revenue, ref.revenue);
  return "";
}

/// The generated AMPLab tables, shared by amplab_* and etl_spill.
struct AmplabInputs {
  ssql::bench::RankingsData rankings;
  ssql::bench::UserVisitsData visits;

  void Generate(uint64_t seed) {
    rankings = ssql::bench::GenerateRankings(kRankings, StreamSeed(seed, 1));
    visits = ssql::bench::GenerateUserVisits(kUserVisits, kRankings,
                                             StreamSeed(seed, 2));
  }
  void Prepare() {
    rankings_rows = ssql::bench::RankingsRows(rankings);
    visits_rows = ssql::bench::UserVisitsRows(visits);
  }
  // Each consumes the rows Prepare() made.
  DataFrame RankingsFrame(SqlContext& ctx) {
    return ctx.CreateDataFrame(ssql::bench::RankingsSchema(),
                               std::move(rankings_rows));
  }
  DataFrame VisitsFrame(SqlContext& ctx) {
    return ctx.CreateDataFrame(ssql::bench::UserVisitsSchema(),
                               std::move(visits_rows));
  }

 private:
  std::vector<Row> rankings_rows;
  std::vector<Row> visits_rows;
};

class AmplabWorkload : public Workload {
 public:
  explicit AmplabWorkload(bool cached) : cached_(cached) {}

  EngineConfig Config(const std::string& work_dir) const override {
    EngineConfig config = Workload::Config(work_dir);
    config.broadcast_threshold_bytes = kFig8BroadcastThreshold;
    return config;
  }
  int warmup_ops() const override { return static_cast<int>(queries_.size()); }
  // Caching makes this set-up twice as long as the others.
  int setup_repeats() const override { return cached_ ? 3 : 5; }
  std::vector<std::string> kinds() const override {
    std::vector<std::string> names;
    for (const auto& q : queries_) names.push_back(q.name);
    return names;
  }

  void Generate(uint64_t seed) override {
    inputs_.Generate(seed);
    for (const auto& q : queries_) {
      if (q.type == 1) q1_.push_back(RefQ1(inputs_.rankings, q.param));
      if (q.type == 2) q2_.push_back(RefQ2(inputs_.visits, q.param));
      if (q.type == 3) q3_.push_back(RefQ3(inputs_.rankings, inputs_.visits, q.until));
    }
  }
  void PrepareSetup() override { inputs_.Prepare(); }

  void Setup(SqlContext& ctx, const std::string& dir, OpTrace* trace) override {
    // Inputs go through the engine's write path (DataFrame::Save as colf,
    // the Parquet stand-in) and are registered as file-backed tables.
    const std::string rankings = dir + "/rankings.colf";
    const std::string visits = dir + "/uservisits.colf";
    inputs_.RankingsFrame(ctx).SaveAsColf(rankings);
    inputs_.VisitsFrame(ctx).SaveAsColf(visits);
    ctx.Read().Format("colf").Load(rankings).RegisterTempTable("rankings");
    ctx.Read().Format("colf").Load(visits).RegisterTempTable("uservisits");
    if (cached_) {
      ScopedSpan span(trace, "DataFrame::Cache", "columnar.cache_build");
      ctx.Table("rankings").Cache();
      ctx.Table("uservisits").Cache();
    }
  }

  OpResult RunOp(OpRunner& runner, Client& client) override {
    // Rounds of the nine queries, each round in a seeded shuffled order.
    if (client.order.empty()) {
      for (int i = static_cast<int>(queries_.size()) - 1; i >= 0; --i) {
        client.order.push_back(i);
      }
      std::shuffle(client.order.begin(), client.order.end(), client.rng);
    }
    OpResult result;
    result.kind = client.order.back();
    client.order.pop_back();
    std::vector<Row> rows = runner.Sql(queries_[result.kind].sql);
    result.check = [this, kind = result.kind, rows = std::move(rows)] {
      return Check(kind, rows);
    };
    return result;
  }

  std::string Check(int kind, const std::vector<Row>& rows) const {
    const AmplabQuery& q = queries_[kind];
    const size_t i = static_cast<size_t>(kind % 3);
    if (q.type == 1) return CheckQ1(rows, q1_[i]);
    if (q.type == 2) return CheckQ2(rows, q2_[i]);
    return CheckQ3(rows, q3_[i]);
  }

  /// Result row counts: what two seeds should share.
  std::map<std::string, int64_t> Shapes(SqlContext& ctx) {
    std::map<std::string, int64_t> shapes;
    for (const auto& q : queries_) {
      shapes[q.name + ".rows"] =
          static_cast<int64_t>(ctx.Sql(q.sql).Collect().size());
    }
    return shapes;
  }

  std::vector<AmplabQuery> queries_ = AmplabQueries();
  AmplabInputs inputs_;
  std::vector<Q1Ref> q1_;
  std::vector<Q2Ref> q2_;
  std::vector<Q3Ref> q3_;

 private:
  bool cached_;
};

// ---- short_queries ------------------------------------------------------

constexpr size_t kSmallRows = 1000;

/// Small queries over a 1k-row in-memory copy of rankings: point filter,
/// small GROUP BY and small self-join, each through SQL and through the
/// DataFrame DSL, plus a read of system.queries every 20th op.
class ShortQueriesWorkload : public Workload {
 public:
  enum Kind {
    kPointSql, kGroupSql, kJoinSql, kPointDsl, kGroupDsl, kJoinDsl, kSystem,
  };

  int clients() const override { return 4; }
  int warmup_ops() const override { return 200; }
  int setup_repeats() const override { return 31; }  // ~3 ms each
  std::vector<std::string> kinds() const override {
    return {"point_sql", "group_sql", "join_sql", "point_dsl",
            "group_dsl", "join_dsl", "system_queries"};
  }

  void Generate(uint64_t seed) override {
    data_ = ssql::bench::GenerateRankings(kSmallRows, StreamSeed(seed, 3));
  }
  void PrepareSetup() override { rows_ = ssql::bench::RankingsRows(data_); }

  void Setup(SqlContext& ctx, const std::string& dir, OpTrace*) override {
    // Written through the write path, read back, and held in memory as
    // rows: the queries then scan no file.
    const std::string path = dir + "/r1k.colf";
    ctx.CreateDataFrame(ssql::bench::RankingsSchema(), std::move(rows_))
        .SaveAsColf(path);
    ctx.CreateDataFrame(ssql::bench::RankingsSchema(),
                        ctx.ReadColf(path).Collect())
        .RegisterTempTable("r1k");
  }

  OpResult RunOp(OpRunner& runner, Client& client) override {
    OpResult result;
    const uint64_t n = client.ops++;
    result.kind = n % 20 == 19 ? kSystem : static_cast<int>(client.rng() % 6);
    SqlContext& ctx = runner.ctx();
    std::vector<Row> rows;
    switch (result.kind) {
      case kPointSql:
      case kPointDsl: {
        const size_t k = client.rng() % kSmallRows;
        const std::string url = data_.page_url[k];
        if (result.kind == kPointSql) {
          rows = runner.Sql("SELECT pageURL, pageRank, avgDuration FROM r1k "
                            "WHERE pageURL = '" + url + "'");
        } else {
          rows = runner.Run(Dsl(runner, [&] {
            DataFrame t = ctx.Table("r1k");
            return t.Where(t("pageURL") == F::Lit(Value(url)))
                .Select({"pageURL", "pageRank", "avgDuration"});
          }));
        }
        result.check = [this, k, rows = std::move(rows)] {
          return CheckPoint(rows, k);
        };
        break;
      }
      case kGroupSql:
      case kGroupDsl: {
        const int cutoff = static_cast<int>(client.rng() % 2000);
        if (result.kind == kGroupSql) {
          rows = runner.Sql(
              "SELECT avgDuration, count(*) AS n, sum(pageRank) AS total "
              "FROM r1k WHERE pageRank > " + std::to_string(cutoff) +
              " GROUP BY avgDuration");
        } else {
          rows = runner.Run(Dsl(runner, [&] {
            DataFrame t = ctx.Table("r1k");
            return t.Where(t("pageRank") > F::Lit(Value(int32_t{cutoff})))
                .GroupBy({"avgDuration"})
                .Agg({F::CountStar().As("n"),
                      F::Sum(F::Col("pageRank")).As("total")});
          }));
        }
        result.check = [this, cutoff, rows = std::move(rows)] {
          return CheckGroup(rows, RefGroup(cutoff));
        };
        break;
      }
      case kJoinSql:
      case kJoinDsl: {
        const int duration = static_cast<int>(client.rng() % 100);
        if (result.kind == kJoinSql) {
          rows = runner.Sql(
              "SELECT a.pageURL, b.pageURL, b.pageRank FROM r1k a JOIN r1k b "
              "ON a.pageRank = b.pageRank WHERE a.avgDuration = " +
              std::to_string(duration));
        } else {
          rows = runner.Run(Dsl(runner, [&] {
            DataFrame a = ctx.Table("r1k");
            DataFrame b = ctx.Table("r1k").Select(
                {F::Col("pageURL").As("url_b"), F::Col("pageRank").As("rank_b")});
            return a.Where(a("avgDuration") == F::Lit(Value(int32_t{duration})))
                .Join(b, a("pageRank") == b("rank_b"))
                .Select({a("pageURL"), b("url_b"), b("rank_b")});
          }));
        }
        result.check = [this, duration, rows = std::move(rows)] {
          return CheckJoin(rows, RefJoin(duration));
        };
        break;
      }
      case kSystem:
        rows = runner.Sql("SELECT id, status FROM system.queries");
        result.check = [&ctx, rows = std::move(rows)] {
          return CheckSystem(rows, ctx.config());
        };
        break;
    }
    return result;
  }

  struct GroupRef {
    int64_t groups = 0;
    int64_t rows = 0;
    int64_t rank_sum = 0;
  };
  struct JoinRef {
    int64_t rows = 0;
    int64_t rank_sum = 0;
  };

  GroupRef RefGroup(int cutoff) const {
    std::set<int32_t> durations;
    GroupRef ref;
    for (size_t i = 0; i < kSmallRows; ++i) {
      if (data_.page_rank[i] <= cutoff) continue;
      durations.insert(data_.avg_duration[i]);
      ++ref.rows;
      ref.rank_sum += data_.page_rank[i];
    }
    ref.groups = static_cast<int64_t>(durations.size());
    return ref;
  }

  JoinRef RefJoin(int duration) const {
    std::unordered_map<int32_t, int64_t> rank_count;
    for (int32_t rank : data_.page_rank) ++rank_count[rank];
    JoinRef ref;
    for (size_t i = 0; i < kSmallRows; ++i) {
      if (data_.avg_duration[i] != duration) continue;
      const int64_t matches = rank_count[data_.page_rank[i]];
      ref.rows += matches;
      ref.rank_sum += matches * data_.page_rank[i];
    }
    return ref;
  }

  std::string CheckPoint(const std::vector<Row>& rows, size_t k) const {
    if (rows.size() != 1) return Err("point rows", rows.size(), 1);
    if (rows[0].GetString(0) != data_.page_url[k] ||
        rows[0].Get(1).AsInt64() != data_.page_rank[k] ||
        rows[0].Get(2).AsInt64() != data_.avg_duration[k]) {
      return "point row differs for " + data_.page_url[k];
    }
    return "";
  }

  static std::string CheckGroup(const std::vector<Row>& rows,
                                const GroupRef& ref) {
    int64_t n = 0, total = 0;
    for (const Row& row : rows) {
      n += row.Get(1).AsInt64();
      total += row.Get(2).AsInt64();
    }
    if (static_cast<int64_t>(rows.size()) != ref.groups) {
      return Err("group count", rows.size(), ref.groups);
    }
    if (n != ref.rows) return Err("group rows", n, ref.rows);
    if (total != ref.rank_sum) return Err("group rank sum", total, ref.rank_sum);
    return "";
  }

  static std::string CheckJoin(const std::vector<Row>& rows, const JoinRef& ref) {
    int64_t rank_sum = 0;
    for (const Row& row : rows) rank_sum += row.Get(2).AsInt64();
    if (static_cast<int64_t>(rows.size()) != ref.rows) {
      return Err("join rows", rows.size(), ref.rows);
    }
    if (rank_sum != ref.rank_sum) return Err("join rank sum", rank_sum, ref.rank_sum);
    return "";
  }

  /// system.queries under concurrent clients has no fixed answer; check its
  /// invariants: the reading query itself is listed, ids are unique, and
  /// at most the retained finished queries plus the running ones appear.
  static std::string CheckSystem(const std::vector<Row>& rows,
                                 const EngineConfig& config) {
    std::set<int64_t> ids;
    bool running = false;
    for (const Row& row : rows) {
      if (!ids.insert(row.Get(0).AsInt64()).second) return "duplicate query id";
      running = running || row.GetString(1) == "RUNNING";
    }
    if (!running) return "system.queries lists no running query";
    if (rows.size() > config.finished_query_retention + 8) {
      return Err("system.queries rows", rows.size(),
                 config.finished_query_retention + 8);
    }
    return "";
  }

  ssql::bench::RankingsData data_;

 private:
  std::vector<Row> rows_;

  template <typename Build>
  static PlanPtr Dsl(OpRunner& runner, Build&& build) {
    ScopedSpan span(runner.trace(), "DataFrame DSL", "api.dataframe");
    return build().plan();
  }
};

// ---- etl_spill -----------------------------------------------------------

// Below the job's unbounded peak, so the GROUP BY spills. At 8 MB the job
// fails instead: the planner broadcasts rankings from an estimate far below
// its built size, and broadcast joins cannot spill. That defect is left
// visible for a planner fix, not hidden by a different budget.
constexpr int64_t kEtlMemoryLimit = 16ll * 1024 * 1024;

const char* kEtlSql =
    "SELECT sourceIP, sum(adRevenue) AS revenue, avg(pageRank) AS "
    "avgPageRank FROM uservisits_csv JOIN rankings_json ON destURL = pageURL "
    "GROUP BY sourceIP";

struct EtlRef {
  int64_t groups = 0;
  double revenue = 0;
};

std::string CheckEtl(const std::vector<Row>& rows, const EtlRef& ref) {
  double revenue = 0;
  for (const Row& row : rows) revenue += row.Get(1).AsDouble();
  if (static_cast<int64_t>(rows.size()) != ref.groups) {
    return Err("etl rows", rows.size(), ref.groups);
  }
  if (!Near(revenue, ref.revenue)) return Err("etl revenue", revenue, ref.revenue);
  return "";
}

/// One op is one job: read rankings from JSON (schema inference) and
/// uservisits from CSV, join, GROUP BY sourceIP, write the result as colf.
class EtlSpillWorkload : public Workload {
 public:
  explicit EtlSpillWorkload(std::string work_dir)
      : out_dir_(std::move(work_dir) + "/etl-out") {}

  EngineConfig Config(const std::string& work_dir) const override {
    EngineConfig config = Workload::Config(work_dir);
    config.query_memory_limit_bytes = kEtlMemoryLimit;
    return config;
  }
  int warmup_ops() const override { return 1; }
  std::vector<std::string> kinds() const override { return {"etl_job"}; }

  void Generate(uint64_t seed) override {
    inputs_.Generate(seed);
    std::unordered_map<std::string, int> ips;
    std::unordered_set<std::string> urls(inputs_.rankings.page_url.begin(),
                                         inputs_.rankings.page_url.end());
    ref_ = EtlRef();
    for (size_t i = 0; i < inputs_.visits.source_ip.size(); ++i) {
      if (urls.count(inputs_.visits.dest_url[i]) == 0) continue;
      ips[inputs_.visits.source_ip[i]] = 1;
      ref_.revenue += inputs_.visits.ad_revenue[i];
    }
    ref_.groups = static_cast<int64_t>(ips.size());
  }
  void PrepareSetup() override { inputs_.Prepare(); }

  void Setup(SqlContext& ctx, const std::string& dir, OpTrace*) override {
    rankings_path_ = dir + "/rankings.json";
    visits_path_ = dir + "/uservisits.csv";
    inputs_.RankingsFrame(ctx).SaveAsJson(rankings_path_);
    inputs_.VisitsFrame(ctx).SaveAsCsv(visits_path_);
  }

  OpResult RunOp(OpRunner& runner, Client& client) override {
    SqlContext& ctx = runner.ctx();
    OpResult result;
    DataFrame rankings, visits;
    {
      ScopedSpan span(runner.trace(), "SqlContext::ReadJson", "datasources.open");
      rankings = ctx.ReadJson(rankings_path_);
    }
    {
      ScopedSpan span(runner.trace(), "DataFrameReader::Load", "datasources.open");
      visits = ctx.Read()
                   .Format("csv")
                   .Schema("sourceIP string, destURL string, visitDate date, "
                           "adRevenue double")
                   .Load(visits_path_);
    }
    rankings.RegisterTempTable("rankings_json");
    visits.RegisterTempTable("uservisits_csv");
    PlanPtr plan = runner.ParseAndAnalyze(kEtlSql);
    std::vector<Row> rows = runner.Run(plan);
    DataFrame out;
    {
      ScopedSpan span(runner.trace(), "SqlContext::CreateDataFrame",
                      "api.dataframe");
      std::vector<ssql::Field> fields;
      for (const auto& attr : plan->Output()) {
        fields.emplace_back(attr->name(), attr->data_type(), attr->nullable());
      }
      out = ctx.CreateDataFrame(ssql::StructType::Make(std::move(fields)),
                                std::move(rows));
    }
    std::filesystem::create_directories(out_dir_);
    const std::string path =
        out_dir_ + "/job-" + std::to_string(client.ops++) + ".colf";
    runner.Save(out, "colf", path);
    outputs_.push_back(path);
    return result;
  }

  /// Reads every job's colf output back, after the measured window.
  int FinalChecks(SqlContext& ctx) override {
    int wrong = 0;
    for (const std::string& path : outputs_) {
      const std::string error = CheckEtl(ctx.ReadColf(path).Collect(), ref_);
      if (!error.empty()) {
        std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(), error.c_str());
        ++wrong;
      }
      std::filesystem::remove(path);
    }
    outputs_.clear();
    return wrong;
  }

  AmplabInputs inputs_;
  EtlRef ref_;
  std::vector<std::string> outputs_;

 private:
  std::string out_dir_;
  std::string rankings_path_;
  std::string visits_path_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"amplab_files", "amplab_cached", "short_queries", "etl_spill"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir) {
  if (name == "amplab_files") return std::make_unique<AmplabWorkload>(false);
  if (name == "amplab_cached") return std::make_unique<AmplabWorkload>(true);
  if (name == "short_queries") return std::make_unique<ShortQueriesWorkload>();
  if (name == "etl_spill") return std::make_unique<EtlSpillWorkload>(work_dir);
  return nullptr;
}

// ---- self-test -------------------------------------------------------------

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// A check must accept the true reference and flag every perturbed one.
template <typename Ref, typename CheckFn>
void ExpectFlags(const std::string& what, const std::vector<Row>& rows,
                 const Ref& ref, CheckFn check,
                 const std::vector<std::pair<std::string, Ref>>& perturbed) {
  const std::string error = check(rows, ref);
  Expect(error.empty(), what + " matches its reference" +
                            (error.empty() ? "" : " (" + error + ")"));
  for (const auto& [field, bad] : perturbed) {
    Expect(!check(rows, bad).empty(), what + " flags a perturbed " + field);
  }
}

std::unique_ptr<SqlContext> SetUp(Workload& w, uint64_t seed,
                                  const std::string& dir) {
  std::filesystem::create_directories(dir);
  w.Generate(seed);
  w.PrepareSetup();
  auto ctx = std::make_unique<SqlContext>(w.Config(dir));
  w.Setup(*ctx, dir, nullptr);
  return ctx;
}

}  // namespace

int RunSelfTest(const std::string& work_dir) {
  failures = 0;
  {
    AmplabWorkload w(false);
    auto ctx = SetUp(w, 1, work_dir + "/selftest-amplab");
    OpRunner runner(*ctx, nullptr);
    for (size_t k = 0; k < w.queries_.size(); ++k) {
      const AmplabQuery& q = w.queries_[k];
      std::vector<Row> rows = runner.Sql(q.sql);
      const size_t i = k % 3;
      if (q.type == 1) {
        Q1Ref rows_off = w.q1_[i], sum_off = w.q1_[i];
        rows_off.rows += 1;
        sum_off.checksum ^= 1;
        ExpectFlags(q.name, rows, w.q1_[i], CheckQ1,
                    {{"row count", rows_off}, {"url checksum", sum_off}});
      } else if (q.type == 2) {
        Q2Ref groups_off = w.q2_[i], revenue_off = w.q2_[i];
        groups_off.groups -= 1;
        revenue_off.revenue *= 1.001;
        ExpectFlags(q.name, rows, w.q2_[i], CheckQ2,
                    {{"group count", groups_off}, {"revenue sum", revenue_off}});
      } else {
        Q3Ref ip_off = w.q3_[i], revenue_off = w.q3_[i];
        ip_off.ip += "0";
        revenue_off.revenue += 0.01;
        ExpectFlags(q.name, rows, w.q3_[i], CheckQ3,
                    {{"top sourceIP", ip_off}, {"top revenue", revenue_off}});
      }
    }
    // Two seeds give the same shapes within the generator's distribution.
    std::map<std::string, int64_t> a = w.Shapes(*ctx);
    AmplabWorkload w2(false);
    auto ctx2 = SetUp(w2, 2, work_dir + "/selftest-amplab2");
    std::map<std::string, int64_t> b = w2.Shapes(*ctx2);
    for (const auto& [key, value] : a) {
      const double tolerance = key.rfind("q1", 0) == 0 ? 0.05 : 0.01;
      const bool same = std::abs(static_cast<double>(b[key] - value)) <=
                        tolerance * std::max<int64_t>(value, 1);
      Expect(same, "seeds 1 and 2 agree on " + key + " (" +
                       std::to_string(value) + " vs " +
                       std::to_string(b[key]) + ")");
    }
  }
  {
    ShortQueriesWorkload w;
    auto ctx = SetUp(w, 1, work_dir + "/selftest-short");
    OpRunner runner(*ctx, nullptr);
    Client client;
    client.rng.seed(7);
    std::set<int> kinds_ok;
    for (int i = 0; i < 200; ++i) {
      OpResult r = w.RunOp(runner, client);
      const std::string error = r.check();
      if (error.empty()) kinds_ok.insert(r.kind);
      if (!error.empty()) Expect(false, w.kinds()[r.kind] + ": " + error);
    }
    Expect(kinds_ok.size() == w.kinds().size(),
           "short_queries ran every kind correctly");
    std::vector<Row> group = runner.Sql(
        "SELECT avgDuration, count(*) AS n, sum(pageRank) AS total FROM r1k "
        "WHERE pageRank > 500 GROUP BY avgDuration");
    ShortQueriesWorkload::GroupRef gref = w.RefGroup(500);
    auto g1 = gref, g2 = gref, g3 = gref;
    g1.groups += 1;
    g2.rows -= 1;
    g3.rank_sum += 1;
    ExpectFlags("short group", group, gref, ShortQueriesWorkload::CheckGroup,
                {{"group count", g1}, {"row count", g2}, {"rank sum", g3}});
    std::vector<Row> join = runner.Sql(
        "SELECT a.pageURL, b.pageURL, b.pageRank FROM r1k a JOIN r1k b ON "
        "a.pageRank = b.pageRank WHERE a.avgDuration = 7");
    ShortQueriesWorkload::JoinRef jref = w.RefJoin(7);
    auto j1 = jref, j2 = jref;
    j1.rows += 1;
    j2.rank_sum -= 1;
    ExpectFlags("short join", join, jref, ShortQueriesWorkload::CheckJoin,
                {{"row count", j1}, {"rank sum", j2}});
    std::vector<Row> point = runner.Sql(
        "SELECT pageURL, pageRank, avgDuration FROM r1k WHERE pageURL = '" +
        w.data_.page_url[3] + "'");
    Expect(w.CheckPoint(point, 3).empty(), "short point matches its reference");
    Expect(!w.CheckPoint(point, 4).empty(), "short point flags another row");
  }
  {
    EtlSpillWorkload w(work_dir + "/selftest-etl");
    auto ctx = SetUp(w, 1, work_dir + "/selftest-etl");
    OpRunner runner(*ctx, nullptr);
    Client client;
    w.RunOp(runner, client);
    std::vector<Row> rows = ctx->ReadColf(w.outputs_.at(0)).Collect();
    EtlRef groups_off = w.ref_, revenue_off = w.ref_;
    groups_off.groups += 1;
    revenue_off.revenue *= 0.999;
    ExpectFlags("etl read-back", rows, w.ref_, CheckEtl,
                {{"row count", groups_off}, {"revenue total", revenue_off}});
    Expect(w.FinalChecks(*ctx) == 0, "etl final checks pass");
  }
  std::filesystem::remove_all(work_dir);
  std::printf("selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
