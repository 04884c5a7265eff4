// JSON parser and Section 5.1 schema-inference tests, including the
// paper's Figure 5/6 tweets example and the algebraic properties of the
// most-specific-supertype merge.

#include <gtest/gtest.h>

#include <fstream>

#include "api/sql_context.h"
#include "datasources/json_parser.h"
#include "datasources/schema_inference.h"
#include "test_temp_path.h"

namespace ssql {
namespace {

TEST(JsonParserTest, Scalars) {
  EXPECT_EQ(ParseJson("42").i, 42);
  EXPECT_EQ(ParseJson("42").kind, JsonValue::Kind::kInt);
  EXPECT_DOUBLE_EQ(ParseJson("4.5").d, 4.5);
  EXPECT_EQ(ParseJson("4.5").kind, JsonValue::Kind::kDouble);
  EXPECT_DOUBLE_EQ(ParseJson("1e3").d, 1000.0);
  EXPECT_TRUE(ParseJson("true").b);
  EXPECT_FALSE(ParseJson("false").b);
  EXPECT_EQ(ParseJson("null").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(ParseJson("\"hi\"").s, "hi");
  EXPECT_EQ(ParseJson("-7").i, -7);
}

TEST(JsonParserTest, StringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b")").s, "a\"b");
  EXPECT_EQ(ParseJson(R"("line\nbreak")").s, "line\nbreak");
  EXPECT_EQ(ParseJson(R"("tab\there")").s, "tab\there");
  EXPECT_EQ(ParseJson(R"("A")").s, "A");
  EXPECT_EQ(ParseJson(R"("é")").s, "\xc3\xa9");  // é as UTF-8
}

TEST(JsonParserTest, NestedStructures) {
  JsonValue v = ParseJson(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->elements.size(), 3u);
  EXPECT_EQ(a->elements[0].i, 1);
  EXPECT_EQ(a->elements[2].Find("b")->kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(v.Find("c")->Find("d")->b);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParserTest, Errors) {
  EXPECT_THROW(ParseJson("{"), ParseError);
  EXPECT_THROW(ParseJson("[1,"), ParseError);
  EXPECT_THROW(ParseJson("\"unterminated"), ParseError);
  EXPECT_THROW(ParseJson("{\"a\" 1}"), ParseError);
  EXPECT_THROW(ParseJson("tru"), ParseError);
  EXPECT_THROW(ParseJson("1 2"), ParseError);
}

TEST(JsonParserTest, JsonLinesAndArrays) {
  auto records = ParseJsonLines("{\"a\":1}\n\n{\"a\":2}\n{\"a\":3}");
  EXPECT_EQ(records.size(), 3u);
  auto from_array = ParseJsonLines("[{\"a\":1},{\"a\":2}]");
  EXPECT_EQ(from_array.size(), 2u);
  // Multi-line objects work too.
  auto multiline = ParseJsonLines("{\n \"a\": 1\n}\n{\"a\":2}");
  EXPECT_EQ(multiline.size(), 2u);
}

// The exact records of the paper's Figure 5.
const char* kTweets = R"JSON(
{"text": "This is a tweet about #Spark", "tags": ["#Spark"], "loc": {"lat": 45.1, "long": 90}}
{"text": "This is another tweet", "tags": [], "loc": {"lat": 39, "long": 88.5}}
{"text": "A #tweet without #location", "tags": ["#tweet", "#location"]}
)JSON";

TEST(SchemaInferenceTest, Figure6Schema) {
  auto records = ParseJsonLines(kTweets);
  ASSERT_EQ(records.size(), 3u);
  SchemaPtr schema = InferSchema(records);

  // "text STRING NOT NULL"
  int text = schema->FieldIndex("text");
  ASSERT_GE(text, 0);
  EXPECT_EQ(schema->field(text).type->id(), TypeId::kString);
  EXPECT_FALSE(schema->field(text).nullable);

  // "tags ARRAY<STRING NOT NULL> NOT NULL"
  int tags = schema->FieldIndex("tags");
  ASSERT_GE(tags, 0);
  ASSERT_EQ(schema->field(tags).type->id(), TypeId::kArray);
  const auto& tags_type = AsArray(*schema->field(tags).type);
  EXPECT_EQ(tags_type.element_type()->id(), TypeId::kString);
  EXPECT_FALSE(tags_type.contains_null());
  EXPECT_FALSE(schema->field(tags).nullable);

  // "loc STRUCT<lat FLOAT NOT NULL, long FLOAT NOT NULL>" — nullable
  // because record 3 lacks it; lat/long generalize int+double -> double.
  int loc = schema->FieldIndex("loc");
  ASSERT_GE(loc, 0);
  EXPECT_TRUE(schema->field(loc).nullable);
  ASSERT_EQ(schema->field(loc).type->id(), TypeId::kStruct);
  const auto& loc_type = AsStruct(*schema->field(loc).type);
  ASSERT_EQ(loc_type.num_fields(), 2u);
  EXPECT_EQ(loc_type.field(0).type->id(), TypeId::kDouble);
  EXPECT_FALSE(loc_type.field(0).nullable);
  EXPECT_EQ(loc_type.field(1).type->id(), TypeId::kDouble);
}

TEST(SchemaInferenceTest, IntWideningRules) {
  // "integers that fit into 32 bits -> INT; larger -> LONG; fractional ->
  // FLOAT [double here]".
  auto records = ParseJsonLines(R"({"v": 1})");
  EXPECT_EQ(InferSchema(records)->field(0).type->id(), TypeId::kInt32);
  records = ParseJsonLines(R"({"v": 3000000000})");
  EXPECT_EQ(InferSchema(records)->field(0).type->id(), TypeId::kInt64);
  records = ParseJsonLines("{\"v\": 1}\n{\"v\": 3000000000}");
  EXPECT_EQ(InferSchema(records)->field(0).type->id(), TypeId::kInt64);
  records = ParseJsonLines("{\"v\": 1}\n{\"v\": 1.5}");
  EXPECT_EQ(InferSchema(records)->field(0).type->id(), TypeId::kDouble);
}

TEST(SchemaInferenceTest, ConflictingTypesFallBackToString) {
  auto records = ParseJsonLines("{\"v\": 1}\n{\"v\": \"abc\"}");
  EXPECT_EQ(InferSchema(records)->field(0).type->id(), TypeId::kString);
  // Struct vs atom also degrades to string.
  records = ParseJsonLines("{\"v\": {\"x\": 1}}\n{\"v\": 5}");
  EXPECT_EQ(InferSchema(records)->field(0).type->id(), TypeId::kString);
}

TEST(SchemaInferenceTest, MergeIsCommutativeAssociativeIdempotent) {
  // Property of the "associative most specific supertype function" that
  // makes inference a single reduce (Section 5.1).
  std::vector<DataTypePtr> types = {
      DataType::Int32(),
      DataType::Int64(),
      DataType::Double(),
      DataType::String(),
      DataType::Boolean(),
      DataType::Null(),
      ArrayType::Make(DataType::Int32(), false),
      ArrayType::Make(DataType::Double(), true),
      StructType::Make({Field("a", DataType::Int32(), false)}),
      StructType::Make({Field("a", DataType::Double(), false),
                        Field("b", DataType::String(), true)}),
  };
  for (const auto& a : types) {
    EXPECT_TRUE(MostSpecificSupertype(a, a)->Equals(*a)) << a->ToString();
    for (const auto& b : types) {
      auto ab = MostSpecificSupertype(a, b);
      auto ba = MostSpecificSupertype(b, a);
      EXPECT_TRUE(ab->Equals(*ba)) << a->ToString() << " vs " << b->ToString();
      for (const auto& c : types) {
        auto left = MostSpecificSupertype(MostSpecificSupertype(a, b), c);
        auto right = MostSpecificSupertype(a, MostSpecificSupertype(b, c));
        EXPECT_TRUE(left->Equals(*right))
            << a->ToString() << ", " << b->ToString() << ", " << c->ToString();
      }
    }
  }
}

TEST(SchemaInferenceTest, RowConversionPreservesStringRepresentation) {
  auto records = ParseJsonLines("{\"v\": 1}\n{\"v\": \"abc\"}\n{\"v\": {\"x\":2}}");
  SchemaPtr schema = InferSchema(records);
  ASSERT_EQ(schema->field(0).type->id(), TypeId::kString);
  EXPECT_EQ(JsonToRow(records[0], *schema).GetString(0), "1");
  EXPECT_EQ(JsonToRow(records[1], *schema).GetString(0), "abc");
  EXPECT_EQ(JsonToRow(records[2], *schema).GetString(0), "{\"x\":2}");
}

class JsonSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempPath("tweets.json");
    std::ofstream out(path_);
    out << kTweets;
  }
  std::string path_;
};

TEST_F(JsonSourceTest, QueryTweetsWithNestedAccess) {
  SqlContext ctx;
  ctx.Sql("CREATE TEMPORARY TABLE tweets USING json OPTIONS (path '" + path_ +
          "')");
  // The paper's query: SELECT loc.lat, loc.long FROM tweets WHERE text
  // LIKE '%Spark%' AND tags IS NOT NULL.
  auto rows = ctx.Sql(
                     "SELECT loc.lat, loc.long FROM tweets "
                     "WHERE text LIKE '%Spark%' AND tags IS NOT NULL")
                  .Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].GetDouble(0), 45.1);
  EXPECT_DOUBLE_EQ(rows[0].GetDouble(1), 90.0);
}

TEST_F(JsonSourceTest, ArrayFunctions) {
  SqlContext ctx;
  ctx.Sql("CREATE TEMPORARY TABLE tweets USING json OPTIONS (path '" + path_ +
          "')");
  auto rows =
      ctx.Sql("SELECT size(tags), array_contains(tags, '#Spark') FROM tweets "
              "ORDER BY size(tags) DESC")
          .Collect();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].GetInt32(0), 2);
  EXPECT_FALSE(rows[0].GetBool(1));
  EXPECT_EQ(rows[1].GetInt32(0), 1);
  EXPECT_TRUE(rows[1].GetBool(1));
}

TEST_F(JsonSourceTest, MissingFieldIsNull) {
  SqlContext ctx;
  ctx.ReadJson(path_).RegisterTempTable("tweets");
  auto rows = ctx.Sql("SELECT count(*) FROM tweets WHERE loc IS NULL").Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetInt64(0), 1);  // record 3 has no loc
}

TEST_F(JsonSourceTest, SamplingRatioStillProducesUsableSchema) {
  SqlContext ctx;
  DataFrame df = ctx.Read("json", {{"path", path_}, {"samplingRatio", "0.5"}});
  EXPECT_GE(df.schema()->num_fields(), 2u);
  EXPECT_EQ(df.Count(), 3);
}

}  // namespace
}  // namespace ssql
