// Data source write path (Section 4.4.1's writing interfaces): round-trips
// through csv/json/colf/kvdb writers, failed file writes reported, plus assorted end-to-end coverage —
// the DecimalAggregates rewrite preserving values, COUNT(DISTINCT) in SQL,
// timestamps, and UNION validation.

#include <gtest/gtest.h>

#include <fstream>

#include "api/sql_context.h"
#include "datasources/data_source.h"
#include "datasources/kvdb.h"
#include "datasources/schema_inference.h"
#include "test_temp_path.h"

namespace ssql {
namespace {

DataFrame SampleFrame(SqlContext& ctx) {
  auto schema = StructType::Make({
      Field("id", DataType::Int64(), false),
      Field("name", DataType::String(), true),
      Field("score", DataType::Double(), true),
  });
  return ctx.CreateDataFrame(
      schema, {
                  Row({Value(int64_t{1}), Value("alpha"), Value(1.5)}),
                  Row({Value(int64_t{2}), Value::Null(), Value(2.5)}),
                  Row({Value(int64_t{3}), Value("gamma"), Value::Null()}),
              });
}

TEST(WritePathTest, CsvRoundTrip) {
  SqlContext ctx;
  std::string path = TestTempPath("wp.csv");
  SampleFrame(ctx).SaveAsCsv(path);
  auto read =
      ctx.Read("csv",
               {{"path", path}, {"schema", "id bigint, name string, score double"}})
          .Collect();
  ASSERT_EQ(read.size(), 3u);
  EXPECT_EQ(read[0].GetInt64(0), 1);
  EXPECT_EQ(read[2].GetString(1), "gamma");
  EXPECT_TRUE(read[2].IsNullAt(2));
}

TEST(WritePathTest, JsonRoundTrip) {
  SqlContext ctx;
  std::string path = TestTempPath("wp.json");
  SampleFrame(ctx).SaveAsJson(path);
  DataFrame read = ctx.ReadJson(path);
  auto rows = read.Collect();
  ASSERT_EQ(rows.size(), 3u);
  // Schema inference on our own output.
  EXPECT_GE(read.schema()->FieldIndex("id"), 0);
  EXPECT_GE(read.schema()->FieldIndex("score"), 0);
  EXPECT_EQ(rows[0].Get(read.schema()->FieldIndex("name")).str(), "alpha");
  EXPECT_TRUE(rows[1].IsNullAt(read.schema()->FieldIndex("name")));
}

TEST(WritePathTest, ColfRoundTripIncludingQuery) {
  SqlContext ctx;
  std::string path = TestTempPath("wp.colf");
  SampleFrame(ctx).SaveAsColf(path);
  ctx.ReadColf(path).RegisterTempTable("t");
  auto rows = ctx.Sql("SELECT name FROM t WHERE id >= 2 ORDER BY id").Collect();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].IsNullAt(0));
  EXPECT_EQ(rows[1].GetString(0), "gamma");
}

TEST(WritePathTest, KvdbWriteCreatesQueryableTable) {
  SqlContext ctx;
  SampleFrame(ctx).Save("kvdb", {{"table", "wp_table"}});
  ctx.Sql("CREATE TEMPORARY TABLE t USING kvdb OPTIONS (table 'wp_table')");
  EXPECT_EQ(ctx.Sql("SELECT count(*) FROM t").Collect()[0].GetInt64(0), 3);
}

TEST(WritePathTest, SqlResultCanBeSaved) {
  // The Figure 10 "separate jobs" pattern as API: save a query result.
  SqlContext ctx;
  SampleFrame(ctx).RegisterTempTable("src");
  std::string path = TestTempPath("wp_filtered.json");
  ctx.Sql("SELECT id, score FROM src WHERE score IS NOT NULL").SaveAsJson(path);
  EXPECT_EQ(ctx.ReadJson(path).Count(), 2);
}

TEST(WritePathTest, UnknownWriterErrors) {
  SqlContext ctx;
  EXPECT_THROW(SampleFrame(ctx).Save("nosuchsink", {}), AnalysisError);
  EXPECT_THROW(SampleFrame(ctx).Save("csv", {}), IoError);  // missing path
}

/// Saving to /dev/full (every write fails with ENOSPC, usually only at the
/// final flush) must surface as IoError naming the path, never as success
/// with a truncated file.
void ExpectFullDiskError(const std::string& provider) {
  SqlContext ctx;
  try {
    SampleFrame(ctx).Save(provider, {{"path", "/dev/full"}});
    ADD_FAILURE() << provider << " write to a full disk reported success";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(WritePathTest, CsvWriteToFullDiskThrows) { ExpectFullDiskError("csv"); }

TEST(WritePathTest, JsonWriteToFullDiskThrows) { ExpectFullDiskError("json"); }

TEST(WritePathTest, ColfWriteToFullDiskThrows) { ExpectFullDiskError("colf"); }

TEST(JsonSerializationTest, ValueToJsonEscapes) {
  EXPECT_EQ(ValueToJson(Value("a\"b\nc"), *DataType::String()),
            "\"a\\\"b\\nc\"");
  EXPECT_EQ(ValueToJson(Value::Null(), *DataType::String()), "null");
  EXPECT_EQ(ValueToJson(Value(true), *DataType::Boolean()), "true");
  EXPECT_EQ(ValueToJson(Value(int64_t{-5}), *DataType::Int64()), "-5");
  Value arr = Value::Array({Value(int32_t{1}), Value::Null()});
  EXPECT_EQ(ValueToJson(arr, *ArrayType::Make(DataType::Int32(), true)),
            "[1,null]");
}

// ---------------------------------------------------------------------------
// Assorted end-to-end coverage
// ---------------------------------------------------------------------------

TEST(DecimalEndToEndTest, DecimalAggregatesRewritePreservesSums) {
  // The Section 4.3.2 rule must not change results: sum a decimal column
  // with the optimization on (decimal(7,2): rewritten) and compare against
  // a straightforward recomputation.
  SqlContext ctx;
  auto schema = StructType::Make({Field("d", DecimalType::Make(7, 2), true)});
  std::vector<Row> rows;
  int64_t total_unscaled = 0;
  for (int i = 0; i < 500; ++i) {
    if (i % 50 == 0) {
      rows.push_back(Row({Value::Null()}));
      continue;
    }
    int64_t unscaled = (i * 137) % 100000 - 20000;
    total_unscaled += unscaled;
    rows.push_back(Row({Value(Decimal(unscaled, 7, 2))}));
  }
  ctx.CreateDataFrame(schema, rows).RegisterTempTable("decs");
  auto result = ctx.Sql("SELECT sum(d) FROM decs").Collect();
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].Get(0).type_id(), TypeId::kDecimal);
  EXPECT_EQ(result[0].Get(0).decimal().unscaled(), total_unscaled);
  EXPECT_EQ(result[0].Get(0).decimal().scale(), 2);
}

TEST(SqlCoverageTest, CountDistinct) {
  SqlContext ctx;
  auto schema = StructType::Make({Field("v", DataType::Int32(), true)});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(Row({i % 10 == 0 ? Value::Null() : Value(int32_t(i % 7))}));
  }
  ctx.CreateDataFrame(schema, rows).RegisterTempTable("t");
  auto result =
      ctx.Sql("SELECT count(DISTINCT v), count(v), count(*) FROM t").Collect();
  EXPECT_EQ(result[0].GetInt64(0), 7);
  EXPECT_EQ(result[0].GetInt64(1), 90);
  EXPECT_EQ(result[0].GetInt64(2), 100);
}

TEST(SqlCoverageTest, TimestampsEndToEnd) {
  SqlContext ctx;
  auto schema = StructType::Make({Field("ts", DataType::Timestamp(), false)});
  TimestampValue t1{1000000}, t2{2000000}, t3{3000000};
  ctx.CreateDataFrame(schema, {Row({Value(t1)}), Row({Value(t2)}),
                               Row({Value(t3)})})
      .RegisterTempTable("times");
  auto rows = ctx.Sql(
                     "SELECT count(*) FROM times WHERE ts > "
                     "CAST('1970-01-01' AS timestamp)")
                  .Collect();
  EXPECT_EQ(rows[0].GetInt64(0), 3);
  auto minmax = ctx.Sql("SELECT min(ts), max(ts) FROM times").Collect();
  EXPECT_EQ(minmax[0].Get(0).timestamp().micros, 1000000);
  EXPECT_EQ(minmax[0].Get(1).timestamp().micros, 3000000);
}

TEST(SqlCoverageTest, UnionValidation) {
  SqlContext ctx;
  auto two = StructType::Make({Field("a", DataType::Int32(), false),
                               Field("b", DataType::Int32(), false)});
  auto one = StructType::Make({Field("a", DataType::Int32(), false)});
  auto str = StructType::Make({Field("a", DataType::String(), false)});
  ctx.CreateDataFrame(two, {}).RegisterTempTable("two_cols");
  ctx.CreateDataFrame(one, {}).RegisterTempTable("one_col");
  ctx.CreateDataFrame(str, {}).RegisterTempTable("str_col");
  EXPECT_THROW(
      ctx.Sql("SELECT a, b FROM two_cols UNION ALL SELECT a FROM one_col"),
      AnalysisError);
  EXPECT_THROW(
      ctx.Sql("SELECT a FROM one_col UNION ALL SELECT a FROM str_col"),
      AnalysisError);
  // Compatible union is fine.
  EXPECT_EQ(ctx.Sql("SELECT a FROM one_col UNION ALL SELECT a FROM one_col")
                .Count(),
            0);
}

TEST(SqlCoverageTest, GroupByExpression) {
  SqlContext ctx;
  auto schema = StructType::Make({Field("s", DataType::String(), false)});
  std::vector<Row> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back(Row({Value("prefix" + std::to_string(i % 3) + "suffix" +
                              std::to_string(i))}));
  }
  ctx.CreateDataFrame(schema, rows).RegisterTempTable("t");
  auto result = ctx.Sql(
                       "SELECT substr(s, 1, 7), count(*) FROM t "
                       "GROUP BY substr(s, 1, 7) ORDER BY substr(s, 1, 7)")
                    .Collect();
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].GetString(0), "prefix0");
  EXPECT_EQ(result[0].GetInt64(1), 10);
}

TEST(SqlCoverageTest, CaseInsensitiveKeywordsAndNames) {
  SqlContext ctx;
  auto schema = StructType::Make({Field("MixedCase", DataType::Int32(), false)});
  ctx.CreateDataFrame(schema, {Row({Value(int32_t{5})})})
      .RegisterTempTable("T");
  auto rows =
      ctx.Sql("select MIXEDCASE from t where mixedcase > 1").Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetInt32(0), 5);
}

}  // namespace
}  // namespace ssql
