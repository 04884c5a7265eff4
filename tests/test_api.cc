// DataFrame API surface tests: native-object DataFrames (Section 3.5),
// WithColumn/As/CrossJoin/First/ToRdd, the RuleExecutor strategies, and
// the advisory-filter (inexact) data source re-check path, and the
// lifetime of local tables.

#include <gtest/gtest.h>

#include "api/native_objects.h"
#include "api/sql_context.h"
#include "catalyst/expr/literal.h"
#include "catalyst/optimizer/plan_rules.h"
#include "catalyst/tree/rule_executor.h"
#include "datasources/data_source.h"

namespace ssql {
namespace {

using functions::Avg;
using functions::Lit;

struct User {
  std::string name;
  int32_t age;
  double score;
};

ObjectSchema<User> UserSchema() {
  ObjectSchema<User> schema;
  schema.Add("name", DataType::String(), [](const User& u) { return Value(u.name); })
      .Add("age", DataType::Int32(), [](const User& u) { return Value(u.age); })
      .Add("score", DataType::Double(),
           [](const User& u) { return Value(u.score); });
  return schema;
}

TEST(NativeObjectsTest, PaperSection35Example) {
  // usersRDD = parallelize(List(User("Alice", 22), User("Bob", 19)));
  // usersDF = usersRDD.toDF — then query it relationally.
  SqlContext ctx;
  DataFrame users = DataFrameFromObjects<User>(
      ctx, "users", {{"Alice", 22, 9.0}, {"Bob", 19, 7.5}}, UserSchema());
  EXPECT_EQ(users.schema()->ToString(),
            "struct<name:string not null,age:int not null,score:double not null>");
  auto rows =
      users.Where(users("age") < Lit(Value(int32_t{21}))).Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetString(0), "Bob");
}

TEST(NativeObjectsTest, OnlyUsedFieldsAreExtracted) {
  // "extracting only the fields used in each query" — verified via the
  // extraction counter.
  SqlContext ctx;
  std::vector<User> data;
  for (int i = 0; i < 100; ++i) data.push_back({"u" + std::to_string(i), i, 1.0});
  DataFrame users =
      DataFrameFromObjects<User>(ctx, "users", std::move(data), UserSchema());
  users.RegisterTempTable("users");
  ctx.exec().metrics().Reset();
  ctx.Sql("SELECT age FROM users").Collect();
  // 1 field x 100 objects, not 3 x 100.
  EXPECT_EQ(ctx.exec().metrics().Get("objects.fields_extracted"), 100);
}

TEST(NativeObjectsTest, JoinObjectsWithTable) {
  // Section 3.5: "we could join the users RDD with a table in Hive".
  SqlContext ctx;
  DataFrame users = DataFrameFromObjects<User>(
      ctx, "users", {{"Alice", 22, 9.0}, {"Bob", 19, 7.5}}, UserSchema());
  auto views_schema = StructType::Make({
      Field("user", DataType::String(), false),
      Field("pages", DataType::Int32(), false),
  });
  DataFrame views = ctx.CreateDataFrame(
      views_schema,
      {Row({Value("Alice"), Value(int32_t{10})}),
       Row({Value("Alice"), Value(int32_t{20})}),
       Row({Value("Bob"), Value(int32_t{5})})});
  auto rows = users.Join(views, users("name") == views("user"))
                  .GroupBy({users("name")})
                  .Sum("pages")
                  .Collect();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.GetString(0) < b.GetString(0);
  });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].GetInt64(1), 30);
  EXPECT_EQ(rows[1].GetInt64(1), 5);
}

// ---------------------------------------------------------------------------
// DataFrame API odds and ends
// ---------------------------------------------------------------------------

class DataFrameApiTest : public ::testing::Test {
 protected:
  DataFrameApiTest() {
    auto schema = StructType::Make({
        Field("k", DataType::Int32(), false),
        Field("v", DataType::Double(), false),
    });
    std::vector<Row> rows;
    for (int i = 0; i < 20; ++i) {
      rows.push_back(Row({Value(int32_t(i % 4)), Value(double(i))}));
    }
    df_ = ctx_.CreateDataFrame(schema, rows);
  }

  SqlContext ctx_;
  DataFrame df_;
};

TEST_F(DataFrameApiTest, WithColumnAppends) {
  DataFrame extended =
      df_.WithColumn("doubled", df_("v") * Lit(Value(2.0)));
  EXPECT_EQ(extended.schema()->num_fields(), 3u);
  Row first = extended.First();
  EXPECT_DOUBLE_EQ(first.GetDouble(2), first.GetDouble(1) * 2);
}

TEST_F(DataFrameApiTest, AliasEnablesQualifiedAccess) {
  DataFrame aliased = df_.As("t");
  auto rows = aliased.Select(std::vector<std::string>{"t.k"}).Collect();
  EXPECT_EQ(rows.size(), 20u);
}

TEST_F(DataFrameApiTest, CrossJoinCounts) {
  auto schema = StructType::Make({Field("x", DataType::Int32(), false)});
  DataFrame small = ctx_.CreateDataFrame(
      schema, {Row({Value(int32_t{1})}), Row({Value(int32_t{2})})});
  EXPECT_EQ(df_.CrossJoin(small).Count(), 40);
}

TEST_F(DataFrameApiTest, FirstThrowsOnEmpty) {
  DataFrame empty = df_.Where(df_("v") > Lit(Value(1e9)));
  EXPECT_THROW(empty.First(), ExecutionError);
}

TEST_F(DataFrameApiTest, ToRddRoundTrip) {
  auto rdd = df_.ToRdd();
  EXPECT_EQ(rdd->Count(), 20u);
  auto doubled = rdd->Map([](const Row& r) { return r.GetDouble(1) * 2; });
  auto values = doubled->Collect();
  double total = 0;
  for (double v : values) total += v;
  EXPECT_DOUBLE_EQ(total, 2 * (19 * 20 / 2));
}

TEST_F(DataFrameApiTest, GroupedShorthands) {
  auto rows = df_.GroupBy(std::vector<std::string>{"k"}).Count().Collect();
  EXPECT_EQ(rows.size(), 4u);
  for (const Row& r : rows) EXPECT_EQ(r.GetInt64(1), 5);

  auto mins = df_.GroupBy(std::vector<std::string>{"k"}).Min("v").Collect();
  std::sort(mins.begin(), mins.end(), [](const Row& a, const Row& b) {
    return a.GetInt32(0) < b.GetInt32(0);
  });
  EXPECT_DOUBLE_EQ(mins[0].GetDouble(1), 0.0);
  EXPECT_DOUBLE_EQ(mins[3].GetDouble(1), 3.0);
}

TEST_F(DataFrameApiTest, ColumnDslComposition) {
  using functions::If;
  DataFrame flagged = df_.Select(
      {df_("k"),
       If(df_("v") >= Lit(Value(10.0)), Lit(Value("high")), Lit(Value("low")))
           .As("bucket")});
  auto rows = flagged.Collect();
  int high = 0;
  for (const Row& r : rows) {
    if (r.GetString(1) == "high") ++high;
  }
  EXPECT_EQ(high, 10);
}

// ---------------------------------------------------------------------------
// RuleExecutor strategies
// ---------------------------------------------------------------------------

TEST(RuleExecutorTest, OnceRunsSinglePass) {
  // A rule that wraps the plan in one extra Limit each time it runs.
  int applications = 0;
  PlanRule wrap{"Wrap", [&applications](const PlanPtr& p) -> PlanPtr {
    ++applications;
    return Limit::Make(10, p);
  }};
  RuleExecutor executor({RuleBatch{"test", 1, {wrap}}});
  PlanPtr leaf = LocalRelation::FromSchema(
      StructType::Make({Field("x", DataType::Int32(), false)}), {});
  PlanPtr result = executor.Execute(leaf);
  EXPECT_EQ(applications, 1);
  EXPECT_NE(AsPlan<Limit>(result), nullptr);
}

TEST(RuleExecutorTest, FixedPointStopsWhenStable) {
  // Collapses nested limits; once one Limit remains the batch is stable.
  PlanRule combine{"CombineLimits", CombineLimitsRule};
  RuleExecutor executor({RuleBatch{"test", 100, {combine}}});
  PlanPtr leaf = LocalRelation::FromSchema(
      StructType::Make({Field("x", DataType::Int32(), false)}), {});
  PlanPtr plan = leaf;
  for (int i = 0; i < 5; ++i) plan = Limit::Make(100 - i, plan);
  std::vector<RuleExecutor::TraceEntry> trace;
  PlanPtr result = executor.Execute(plan, &trace);
  int limits = 0;
  result->Foreach([&](const LogicalPlan& node) {
    if (AsPlan<Limit>(node) != nullptr) ++limits;
  });
  EXPECT_EQ(limits, 1);
  EXPECT_FALSE(trace.empty());
}

TEST(RuleExecutorTest, IterationCapPreventsRunaway) {
  // A rule that always changes the tree: the cap must stop it.
  PlanRule churn{"Churn", [](const PlanPtr& p) -> PlanPtr {
    const auto* limit = AsPlan<Limit>(p);
    int64_t n = limit != nullptr ? limit->n() + 1 : 0;
    PlanPtr child = limit != nullptr ? limit->child() : p;
    return Limit::Make(n, child);
  }};
  RuleExecutor executor({RuleBatch{"test", 7, {churn}}});
  PlanPtr leaf = LocalRelation::FromSchema(
      StructType::Make({Field("x", DataType::Int32(), false)}), {});
  PlanPtr result = executor.Execute(leaf);
  const auto* limit = AsPlan<Limit>(result);
  ASSERT_NE(limit, nullptr);
  EXPECT_EQ(limit->n(), 6);  // 7 iterations: 0,1,...,6
}

// ---------------------------------------------------------------------------
// Advisory (inexact) filters: the engine must re-check
// ---------------------------------------------------------------------------

/// A source whose pushed filters are advisory only — it returns false
/// positives on purpose (every other matching row plus some junk), like a
/// min/max-only store. Section 4.4.1: "the data source should attempt to
/// return only rows passing each filter, but it is allowed to return false
/// positives".
class SloppyRelation : public BaseRelation, public PrunedFilteredScan {
 public:
  std::string name() const override { return "sloppy"; }
  SchemaPtr schema() const override {
    return StructType::Make({Field("n", DataType::Int32(), false)});
  }
  std::vector<Row> ScanFiltered(
      QueryContext&, const std::vector<int>& columns,
      const std::vector<FilterSpec>& filters) const override {
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      Value v{static_cast<int32_t>(i)};
      bool matches = true;
      for (const auto& f : filters) matches = matches && f.Matches(v);
      // Deliberately sloppy: keep every matching row AND every 10th row.
      if (matches || i % 10 == 0) {
        Row row;
        for (int c : columns) {
          (void)c;
          row.Append(v);
        }
        rows.push_back(std::move(row));
      }
    }
    return rows;
  }
  bool FiltersAreExact() const override { return false; }
};

TEST(AdvisoryFilterTest, EngineReChecksInexactSources) {
  SqlContext ctx;
  DataFrame df(&ctx, LogicalRelation::Make(std::make_shared<SloppyRelation>()));
  df.RegisterTempTable("sloppy");
  auto rows = ctx.Sql("SELECT n FROM sloppy WHERE n >= 90").Collect();
  // Without the engine-side re-check the junk rows (0, 10, ..., 80)
  // would leak through.
  EXPECT_EQ(rows.size(), 10u);
  for (const Row& r : rows) EXPECT_GE(r.GetInt32(0), 90);
}

// ---------------------------------------------------------------------------
// Local tables live exactly as long as their DataFrame
// ---------------------------------------------------------------------------

TEST(LocalTableTest, RowsAreFreedWithTheirDataFrame) {
  SqlContext ctx;
  auto schema = StructType::Make({Field("x", DataType::Int32(), false)});
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(Row({Value(int32_t{i})}));
  std::weak_ptr<const std::vector<Row>> weak_rows;
  {
    DataFrame df = ctx.CreateDataFrame(schema, rows);
    const auto* local = AsPlan<LocalRelation>(df.plan());
    ASSERT_NE(local, nullptr);
    weak_rows = local->shared_rows();
    EXPECT_EQ(df.Collect().size(), 1000u);
    EXPECT_EQ(df.Where(df("x") < functions::Lit(Value(int32_t{10})))
                  .Collect()
                  .size(),
              10u);
  }
  EXPECT_TRUE(weak_rows.expired())
      << "a dropped DataFrame's rows are still pinned";
}

TEST(LocalTableTest, PartitionedViewIsBuiltOncePerParallelism) {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row({Value(int32_t{i})}));
  LocalTable table(std::make_shared<const std::vector<Row>>(std::move(rows)));
  RowDataset first = table.Partitioned(4);
  RowDataset again = table.Partitioned(4);
  ASSERT_EQ(first.num_partitions(), 4u);
  EXPECT_EQ(first.TotalRows(), 100u);
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(again.partition(p).get(), first.partition(p).get());
  }
  RowDataset other = table.Partitioned(3);
  EXPECT_EQ(other.num_partitions(), 3u);
  EXPECT_EQ(other.TotalRows(), 100u);
}

}  // namespace
}  // namespace ssql
