// Vectorized execution tests: the planner's row/batch boundary stamp in
// EXPLAIN, batched-vs-row result equivalence on the targeted pipeline
// shapes (partial-aggregate fast path and its generic fallback, the
// batched join probe), batch-size edge cases including batch_size=1, the
// natively columnar colf scan against the row path and the cache, and
// config knob validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>

#include "api/sql_context.h"
#include "datasources/colf_format.h"
#include "engine/exec_context.h"
#include "test_temp_path.h"

namespace ssql {
namespace {

EngineConfig BaseConfig(bool vectorized, size_t batch_size = 1024) {
  EngineConfig config;
  config.num_threads = 2;
  config.default_parallelism = 3;
  config.vectorized_enabled = vectorized;
  config.batch_size = batch_size;
  return config;
}

std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(r.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// Registers a mixed-type table (with nulls in every nullable column) and
/// caches it, so queries plan over the natively columnar cache-backed Scan
/// — a source shape that engages the batched pipeline.
void SetupCachedTable(SqlContext& ctx, const std::string& name, size_t rows,
                      uint64_t seed = 11) {
  auto schema = StructType::Make({
      Field("k", DataType::Int32(), true),
      Field("v", DataType::Int64(), true),
      Field("d", DataType::Double(), true),
      Field("s", DataType::String(), false),
  });
  std::mt19937_64 rng(seed);
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    Value k = rng() % 7 == 0 ? Value::Null()
                             : Value(static_cast<int32_t>(rng() % 10));
    Value v = rng() % 11 == 0 ? Value::Null()
                              : Value(static_cast<int64_t>(rng() % 1000));
    Value d = rng() % 13 == 0
                  ? Value::Null()
                  : Value(static_cast<double>(rng() % 10000) / 16.0);
    data.push_back(Row({k, v, d, Value("s" + std::to_string(rng() % 5))}));
  }
  DataFrame df = ctx.CreateDataFrame(schema, data);
  df.RegisterTempTable(name);
  df.Cache();
}

/// Runs `sql` in a vectorized and a row-path context over the same cached
/// table and expects identical (bit-for-bit, order-insensitive) results.
void ExpectBatchedMatchesRows(const std::string& sql, size_t rows,
                              size_t batch_size) {
  SqlContext batched(BaseConfig(true, batch_size));
  SqlContext row_path(BaseConfig(false));
  SetupCachedTable(batched, "t", rows);
  SetupCachedTable(row_path, "t", rows);
  auto a = Canonical(batched.Sql(sql).Collect());
  auto b = Canonical(row_path.Sql(sql).Collect());
  EXPECT_EQ(a, b) << sql << " (rows=" << rows
                  << ", batch_size=" << batch_size << ")";
}

/// Whether some line of `plan` naming `op` carries the [batched] stamp.
bool StampedBatched(const std::string& plan, const std::string& op) {
  for (size_t pos = plan.find(op); pos != std::string::npos;
       pos = plan.find(op, pos + 1)) {
    size_t eol = plan.find('\n', pos);
    if (plan.substr(pos, eol - pos).find("[batched]") != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(VectorizedPlanTest, ExplainStampsBatchedPipelineOverCache) {
  SqlContext ctx(BaseConfig(true));
  SetupCachedTable(ctx, "t", 100);
  std::string plan =
      ctx.Sql("SELECT sum(v), count(*) FROM t WHERE k > 2").Explain(true);
  // The whole map-side pipeline runs batched: columnar scan, filter, and
  // the partial aggregate; the final aggregate sits above the shuffle and
  // stays row-based.
  for (const char* op : {"Scan cache:", "HashAggregate(Partial)"}) {
    EXPECT_TRUE(StampedBatched(plan, op))
        << op << " not stamped [batched] in:\n" << plan;
  }
  size_t fin = plan.find("HashAggregate(Final)");
  ASSERT_NE(fin, std::string::npos) << plan;
  size_t fin_eol = plan.find('\n', fin);
  EXPECT_EQ(plan.substr(fin, fin_eol - fin).find("[batched]"),
            std::string::npos)
      << plan;
}

TEST(VectorizedPlanTest, RowSourcesStayOnRowPath) {
  // Over a row-native source (uncached local relation) the pack at the
  // scan boundary costs more than the vector kernels save, so nothing in
  // the plan runs batched.
  SqlContext ctx(BaseConfig(true));
  auto schema = StructType::Make({Field("a", DataType::Int32(), false)});
  std::vector<Row> rows = {Row({Value(int32_t{1})}), Row({Value(int32_t{2})})};
  ctx.CreateDataFrame(schema, rows).RegisterTempTable("t");
  std::string plan = ctx.Sql("SELECT sum(a) FROM t WHERE a > 0").Explain(true);
  EXPECT_EQ(plan.find("[batched]"), std::string::npos) << plan;
}

TEST(VectorizedPlanTest, DisablingVectorizationClearsStamps) {
  SqlContext ctx(BaseConfig(false));
  SetupCachedTable(ctx, "t", 50);
  std::string plan =
      ctx.Sql("SELECT sum(v) FROM t WHERE k > 2").Explain(true);
  EXPECT_EQ(plan.find("[batched]"), std::string::npos) << plan;
}

TEST(VectorizedExecTest, FastPathGlobalAggregate) {
  // sum/count/avg/min/max over numeric lanes, no grouping: the batched
  // partial fast path (typed accumulators fed by lane loops).
  ExpectBatchedMatchesRows(
      "SELECT sum(v), count(*), count(d), avg(d), min(v), max(d) FROM t "
      "WHERE k >= 3",
      500, 64);
}

TEST(VectorizedExecTest, FastPathGroupedByIntKey) {
  ExpectBatchedMatchesRows(
      "SELECT k, sum(v), count(*), avg(d) FROM t GROUP BY k", 500, 64);
}

TEST(VectorizedExecTest, GenericFallbackGroupedByStringKey) {
  // A string key plus a second key is outside the typed fast paths: the
  // batched generic fallback (boxed fold over live rows) must agree with
  // the row path too.
  ExpectBatchedMatchesRows(
      "SELECT s, k, count(*), sum(v), avg(d) FROM t GROUP BY s, k", 500, 64);
}

/// Registers `g` (string keys: nulls, '', short keys, and keys longer than
/// the 15-byte small-string buffer; about 1500 distinct, more than one
/// 1024-row batch holds) with nullable `v`/`d` payloads and an int join
/// key `j`, plus a small `dim` table, both cached.
void SetupStringKeyTables(SqlContext& ctx) {
  auto schema = StructType::Make({
      Field("key", DataType::String(), true),
      Field("j", DataType::Int32(), false),
      Field("v", DataType::Int64(), true),
      Field("d", DataType::Double(), true),
  });
  std::mt19937_64 rng(29);
  std::vector<Row> data;
  for (int i = 0; i < 6000; ++i) {
    Value key;
    switch (rng() % 6) {
      case 0:
        key = Value::Null();
        break;
      case 1:
        key = Value(std::string());
        break;
      case 2:
        key = Value("k" + std::to_string(rng() % 40));
        break;
      default:
        key = Value("a-group-key-longer-than-sso-" +
                    std::to_string(rng() % 1500));
    }
    Value v = rng() % 9 == 0 ? Value::Null()
                             : Value(static_cast<int64_t>(rng() % 100000));
    Value d = rng() % 10 == 0
                  ? Value::Null()
                  : Value(static_cast<double>(rng() % 1000003) / 7.0);
    data.push_back(Row({key, Value(static_cast<int32_t>(rng() % 8)), v, d}));
  }
  DataFrame g = ctx.CreateDataFrame(schema, data);
  g.RegisterTempTable("g");
  g.Cache();
  auto dim_schema = StructType::Make({
      Field("id", DataType::Int32(), false),
      Field("w", DataType::Double(), false),
  });
  std::vector<Row> dim_rows;
  for (int i = 0; i < 6; ++i) {
    dim_rows.push_back(Row({Value(int32_t(i)), Value(i * 1.25 + 0.1)}));
  }
  DataFrame dim = ctx.CreateDataFrame(dim_schema, dim_rows);
  dim.RegisterTempTable("dim");
  dim.Cache();
}

/// Rows sorted by their rendering, for order-insensitive comparison.
std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.ToString() < b.ToString();
  });
  return rows;
}

/// Bit-for-bit equality (doubles compared by their bits, not a rendering).
void ExpectBitIdentical(const std::vector<Row>& got,
                        const std::vector<Row>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << what;
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& a = got[r].Get(c);
      const Value& b = want[r].Get(c);
      ASSERT_EQ(a.is_null(), b.is_null()) << what << " row " << r;
      if (a.is_null()) continue;
      ASSERT_EQ(a.type_id(), b.type_id()) << what << " row " << r;
      if (a.type_id() == TypeId::kDouble) {
        double x = a.f64(), y = b.f64();
        ASSERT_EQ(std::memcmp(&x, &y, sizeof x), 0)
            << what << " row " << r << ": " << x << " vs " << y;
      } else {
        ASSERT_TRUE(a.Equals(b)) << what << " row " << r << ": "
                                 << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

/// Runs `sql` under every combination of batch size, vectorization,
/// codegen and memory budget, against the generic path (codegen off, row
/// path, no budget) as the oracle.
void ExpectStringKeyResultsIdentical(const std::string& sql) {
  EngineConfig oracle_config = BaseConfig(false);
  oracle_config.codegen_enabled = false;
  SqlContext oracle(oracle_config);
  SetupStringKeyTables(oracle);
  const std::vector<Row> want = SortedRows(oracle.Sql(sql).Collect());
  ASSERT_FALSE(want.empty()) << sql;
  for (size_t batch_size : {size_t{1}, size_t{1024}}) {
    for (bool vectorized : {false, true}) {
      for (bool codegen : {false, true}) {
        for (bool budget : {false, true}) {
          EngineConfig config = BaseConfig(vectorized, batch_size);
          config.codegen_enabled = codegen;
          if (budget) config.query_memory_limit_bytes = 64 << 20;
          SqlContext ctx(config);
          SetupStringKeyTables(ctx);
          ExpectBitIdentical(
              SortedRows(ctx.Sql(sql).Collect()), want,
              sql + " (batch_size=" + std::to_string(batch_size) +
                  ", vectorized=" + std::to_string(vectorized) +
                  ", codegen=" + std::to_string(codegen) +
                  ", budget=" + std::to_string(budget) + ")");
        }
      }
    }
  }
}

TEST(VectorizedExecTest, StringKeyFastPathMatchesGenericPath) {
  // Null, empty and long keys over the batched partial (cached scan) and
  // the typed final.
  ExpectStringKeyResultsIdentical(
      "SELECT key, count(*), count(v), sum(v), avg(d), min(v), max(d), "
      "sum(d), min(d), max(j), avg(v) FROM g GROUP BY key");
}

TEST(VectorizedExecTest, ComputedStringKeyFastPathMatchesGenericPath) {
  // Q2's shape: the key is a substr of a string column, so its bytes come
  // from the evaluator's scratch rather than the input.
  ExpectStringKeyResultsIdentical(
      "SELECT substr(key, 1, 8), sum(v), count(*) FROM g "
      "WHERE j <> 3 GROUP BY substr(key, 1, 8)");
}

TEST(VectorizedExecTest, StringKeyOverJoinRowsMatchesGenericPath) {
  // Q3's shape: the partial aggregate's input is a join's output rows, so
  // the row form of the fast path reads the key from boxed rows.
  ExpectStringKeyResultsIdentical(
      "SELECT g.key, sum(g.v), avg(dim.w), count(*) FROM g JOIN dim "
      "ON g.j = dim.id GROUP BY g.key");
}

TEST(VectorizedExecTest, CountDistinctSurvivesAccumulatorTransport) {
  // COUNT(DISTINCT) carries a set-valued accumulator between the stages;
  // the partial stage's output columns must transport it verbatim.
  ExpectBatchedMatchesRows("SELECT k, count(DISTINCT s) FROM t GROUP BY k",
                           300, 64);
}

TEST(VectorizedExecTest, ProjectionExpressionsOverBatches) {
  ExpectBatchedMatchesRows(
      "SELECT k + 1, v * 2, d / 4.0, s FROM t WHERE v % 3 = 0 AND d > 10.0",
      500, 64);
}

TEST(VectorizedExecTest, BatchedJoinProbe) {
  // Broadcast join with the cached (natively columnar) table streaming as
  // the probe side; keys evaluate as whole columns, matches box lazily.
  for (const char* sql :
       {"SELECT t.k, t.v, dim.label FROM t JOIN dim ON t.k = dim.id",
        "SELECT t.k FROM t LEFT JOIN dim ON t.k = dim.id",
        "SELECT t.k, t.s FROM t LEFT SEMI JOIN dim ON t.k = dim.id"}) {
    SqlContext batched(BaseConfig(true, 64));
    SqlContext row_path(BaseConfig(false));
    for (SqlContext* ctx : {&batched, &row_path}) {
      SetupCachedTable(*ctx, "t", 400);
      auto dim_schema = StructType::Make({
          Field("id", DataType::Int32(), false),
          Field("label", DataType::String(), false),
      });
      std::vector<Row> dim_rows;
      for (int i = 0; i < 6; ++i) {
        dim_rows.push_back(
            Row({Value(int32_t(i)), Value("L" + std::to_string(i))}));
      }
      ctx->CreateDataFrame(dim_schema, dim_rows).RegisterTempTable("dim");
    }
    auto a = Canonical(batched.Sql(sql).Collect());
    auto b = Canonical(row_path.Sql(sql).Collect());
    EXPECT_EQ(a, b) << sql;
  }
}

TEST(VectorizedExecTest, BatchSizeOneDegeneratesCorrectly) {
  ExpectBatchedMatchesRows(
      "SELECT k, sum(v), count(*) FROM t WHERE d > 100.0 GROUP BY k", 200, 1);
}

TEST(VectorizedExecTest, MaximumBatchSizeAccepted) {
  ExpectBatchedMatchesRows("SELECT sum(v) FROM t", 100, 65536);
}

// ---- colf: the natively columnar file source -------------------------------

/// The Figure 8 AMPLab tables, small, written as colf files with
/// `row_group_size` rows per group. Rankings are written in pageRank order
/// and uservisits in visitDate order, so the Q1 and Q3 filters let zone
/// maps skip whole row groups; adRevenue carries nulls.
class AmplabColfFiles {
 public:
  explicit AmplabColfFiles(size_t row_group_size) {
    const std::string group = "g" + std::to_string(row_group_size);
    rankings_ = TestTempPath(group + "-rankings.colf");
    uservisits_ = TestTempPath(group + "-uservisits.colf");
    std::mt19937_64 rng(7);
    constexpr int kPages = 2000;
    std::vector<int32_t> ranks(kPages);
    for (auto& r : ranks) {
      double u = std::uniform_real_distribution<>(0, 1)(rng);
      r = static_cast<int32_t>(10000 * u * u * u);
    }
    std::sort(ranks.begin(), ranks.end());
    std::vector<Row> rankings;
    for (int i = 0; i < kPages; ++i) {
      rankings.push_back(Row({Value("url" + std::to_string(i)), Value(ranks[i]),
                              Value(static_cast<int32_t>(rng() % 100))}));
    }
    WriteColfFile(rankings_,
                  StructType::Make({Field("pageURL", DataType::String(), false),
                                    Field("pageRank", DataType::Int32(), false),
                                    Field("avgDuration", DataType::Int32(),
                                          false)}),
                  rankings, row_group_size);

    DateValue from, to;
    ParseDate("1980-01-01", &from);
    ParseDate("1990-01-01", &to);
    std::vector<int32_t> days(4000);
    for (auto& d : days) {
      d = from.days + static_cast<int32_t>(rng() % (to.days - from.days));
    }
    std::sort(days.begin(), days.end());
    std::vector<Row> visits;
    for (int32_t d : days) {
      std::string ip = std::to_string(rng() % 4) + "." +
                       std::to_string(rng() % 16) + "." +
                       std::to_string(rng() % 256) + "." +
                       std::to_string(rng() % 256);
      std::string url = "url" + std::to_string(rng() % kPages);
      Value revenue =
          rng() % 17 == 0
              ? Value::Null()
              : Value(std::uniform_real_distribution<>(0, 1000)(rng));
      visits.push_back(
          Row({Value(ip), Value(url), Value(DateValue{d}), revenue}));
    }
    WriteColfFile(
        uservisits_,
        StructType::Make({Field("sourceIP", DataType::String(), false),
                          Field("destURL", DataType::String(), false),
                          Field("visitDate", DataType::Date(), false),
                          Field("adRevenue", DataType::Double(), true)}),
        visits, row_group_size);
  }
  ~AmplabColfFiles() {
    std::filesystem::remove(rankings_);
    std::filesystem::remove(uservisits_);
  }

  /// Registers both tables in `ctx`, optionally cached.
  void Register(SqlContext& ctx, bool cache) const {
    DataFrame rankings = ctx.ReadColf(rankings_);
    DataFrame visits = ctx.ReadColf(uservisits_);
    rankings.RegisterTempTable("rankings");
    visits.RegisterTempTable("uservisits");
    if (cache) {
      rankings.Cache();
      visits.Cache();
    }
  }

 private:
  std::string rankings_;
  std::string uservisits_;
};

/// The nine Figure 8 query shapes (Q1a-c scan/filter, Q2a-c group by a
/// prefix, Q3a-c join + aggregate + top-1), parameters scaled to the data.
std::vector<std::string> AmplabQueries() {
  std::vector<std::string> out;
  for (int cutoff : {9000, 1000, 10}) {
    out.push_back("SELECT pageURL, pageRank FROM rankings WHERE pageRank > " +
                  std::to_string(cutoff));
  }
  for (int prefix : {3, 6, 9}) {
    const std::string p = std::to_string(prefix);
    out.push_back("SELECT substr(sourceIP, 1, " + p +
                  "), sum(adRevenue) FROM uservisits GROUP BY substr(sourceIP, "
                  "1, " + p + ")");
  }
  for (const char* until : {"1980-04-01", "1983-01-01", "1990-01-01"}) {
    out.push_back(
        std::string("SELECT sourceIP, sum(adRevenue) AS totalRevenue, "
                    "avg(pageRank) AS avgPageRank FROM rankings JOIN "
                    "uservisits ON pageURL = destURL WHERE visitDate BETWEEN "
                    "'1980-01-01' AND '") +
        until + "' GROUP BY sourceIP ORDER BY totalRevenue DESC LIMIT 1");
  }
  return out;
}

/// The source counters one query leaves in the engine metrics.
struct ScanCounters {
  int64_t groups_skipped = 0;
  int64_t rows_scanned = 0;
  int64_t rows_returned = 0;
  bool operator==(const ScanCounters&) const = default;
};

std::vector<std::string> RunCounted(SqlContext& ctx, const std::string& sql,
                                    ScanCounters* counters) {
  Metrics& metrics = ctx.exec().metrics();
  metrics.Reset();
  std::vector<std::string> rows = Canonical(ctx.Sql(sql).Collect());
  counters->groups_skipped = metrics.Get("colf.row_groups_skipped");
  counters->rows_scanned = metrics.Get("source.rows_scanned");
  counters->rows_returned = metrics.Get("source.rows_returned");
  return rows;
}

TEST(VectorizedColfTest, AmplabQueriesMatchRowPathAndCache) {
  // Row groups smaller (100) and larger (1500) than batch_size 1024, and
  // every group larger than batch_size 1.
  for (size_t group : {100, 1500}) {
    AmplabColfFiles files(group);
    for (size_t batch : {1, 1024}) {
      SqlContext batched(BaseConfig(true, batch));
      SqlContext row_path(BaseConfig(false));
      SqlContext cached(BaseConfig(true, batch));
      files.Register(batched, false);
      files.Register(row_path, false);
      files.Register(cached, true);
      int64_t skipped = 0;
      for (const std::string& sql : AmplabQueries()) {
        SCOPED_TRACE(sql + " (row_group_size=" + std::to_string(group) +
                     ", batch_size=" + std::to_string(batch) + ")");
        ScanCounters on, off;
        auto a = RunCounted(batched, sql, &on);
        auto b = RunCounted(row_path, sql, &off);
        auto c = Canonical(cached.Sql(sql).Collect());
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b);
        EXPECT_EQ(a, c);
        EXPECT_EQ(on, off);
        EXPECT_GT(on.rows_scanned, 0);
        skipped += on.groups_skipped;
      }
      // Zone maps prune on both paths (the Q1a/Q3a filters are selective
      // over the sorted columns).
      EXPECT_GT(skipped, 0);
    }
  }
}

TEST(VectorizedColfTest, ExplainStampsColfScanBatched) {
  AmplabColfFiles files(100);
  const std::string q2 =
      "SELECT substr(sourceIP, 1, 3), sum(adRevenue) FROM uservisits "
      "GROUP BY substr(sourceIP, 1, 3)";
  const std::string q3 = AmplabQueries().back();
  {
    // The colf Scan is a native root: the map-side aggregate of Q2 and the
    // broadcast probe of Q3 pull its batches directly.
    SqlContext ctx(BaseConfig(true));
    files.Register(ctx, false);
    for (const auto& [sql, parent] :
         {std::pair{q2, "HashAggregate(Partial)"},
          std::pair{q3, "BroadcastHashJoin"}}) {
      std::string plan = ctx.Sql(sql).Explain(true);
      EXPECT_TRUE(StampedBatched(plan, "Scan colf:")) << plan;
      EXPECT_TRUE(StampedBatched(plan, parent)) << plan;
    }
  }
  SqlContext off(BaseConfig(false));
  files.Register(off, false);
  std::string plan = off.Sql(q2).Explain(true);
  EXPECT_EQ(plan.find("[batched]"), std::string::npos) << plan;
}

TEST(VectorizedConfigTest, KnobsAreValidated) {
  EngineConfig config;
  config.batch_size = 0;
  EXPECT_THROW(ValidateEngineConfig(config), ExecutionError);
  config = EngineConfig();
  config.batch_size = 65537;
  EXPECT_THROW(ValidateEngineConfig(config), ExecutionError);
  config = EngineConfig();
  config.batch_size = 1;
  EXPECT_NO_THROW(ValidateEngineConfig(config));
  config.batch_size = 65536;
  EXPECT_NO_THROW(ValidateEngineConfig(config));
}

}  // namespace
}  // namespace ssql
