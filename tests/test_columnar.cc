// Columnar storage tests (Section 3.6): encodings round-trip exactly
// (property-swept), the one-pass chooser matches the smallest per-scheme
// encoding byte for byte, compression actually shrinks compressible data,
// encoding on the pool matches encoding inline, and the in-memory cache
// serves pruned scans with an order-of-magnitude smaller footprint than
// boxed rows.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <random>

#include "columnar/column_vector.h"
#include "columnar/columnar_cache.h"
#include "columnar/encoding.h"
#include "columnar/row_batch.h"
#include "datasources/colf_format.h"
#include "test_temp_path.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ssql {
namespace {

ColumnVector MakeColumn(DataTypePtr type, const std::vector<Value>& values) {
  ColumnVector col(std::move(type));
  for (const auto& v : values) col.Append(v);
  return col;
}

TEST(ColumnVectorTest, AppendAndGet) {
  ColumnVector col(DataType::Int64());
  col.Append(Value(int64_t{5}));
  col.Append(Value::Null());
  col.Append(Value(int64_t{-3}));
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetValue(0).i64(), 5);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetValue(2).i64(), -3);
}

TEST(ColumnVectorTest, TypedBanksPreserveLogicalTypes) {
  DateValue d;
  ParseDate("2015-05-31", &d);
  ColumnVector dates(DataType::Date());
  dates.Append(Value(d));
  EXPECT_EQ(dates.GetValue(0).type_id(), TypeId::kDate);

  ColumnVector decimals(DecimalType::Make(7, 2));
  decimals.Append(Value(Decimal(12345, 7, 2)));
  EXPECT_EQ(decimals.GetValue(0).type_id(), TypeId::kDecimal);
  EXPECT_EQ(decimals.GetValue(0).decimal().unscaled(), 12345);

  ColumnVector bools(DataType::Boolean());
  bools.Append(Value(true));
  EXPECT_TRUE(bools.GetValue(0).bool_value());
}

void ExpectRoundTrip(const ColumnVector& col, ColumnEncoding scheme) {
  EncodedColumn encoded = EncodeColumnAs(col, scheme);
  ColumnVector decoded = DecodeColumn(encoded);
  ASSERT_EQ(decoded.size(), col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_TRUE(col.GetValue(i).Equals(decoded.GetValue(i)) ||
                (col.IsNull(i) && decoded.IsNull(i)))
        << "row " << i << " under scheme " << static_cast<int>(scheme);
  }
}

TEST(EncodingTest, AllSchemesRoundTripInts) {
  ColumnVector col = MakeColumn(
      DataType::Int64(),
      {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{1}), Value::Null(),
       Value(int64_t{9}), Value(int64_t{-5}), Value(int64_t{9})});
  ExpectRoundTrip(col, ColumnEncoding::kPlain);
  ExpectRoundTrip(col, ColumnEncoding::kRunLength);
  ExpectRoundTrip(col, ColumnEncoding::kDictionary);
}

TEST(EncodingTest, AllSchemesRoundTripStrings) {
  ColumnVector col = MakeColumn(
      DataType::String(), {Value("aa"), Value("aa"), Value::Null(), Value("bb"),
                           Value(""), Value("aa")});
  ExpectRoundTrip(col, ColumnEncoding::kPlain);
  ExpectRoundTrip(col, ColumnEncoding::kRunLength);
  ExpectRoundTrip(col, ColumnEncoding::kDictionary);
}

TEST(EncodingTest, DoublesRoundTrip) {
  ColumnVector col = MakeColumn(
      DataType::Double(),
      {Value(1.5), Value(-0.0), Value::Null(), Value(1e300), Value(1.5)});
  ExpectRoundTrip(col, ColumnEncoding::kPlain);
  ExpectRoundTrip(col, ColumnEncoding::kRunLength);
  ExpectRoundTrip(col, ColumnEncoding::kDictionary);
}

class EncodingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EncodingPropertyTest, RandomColumnsRoundTripUnderChosenEncoding) {
  std::mt19937_64 rng(GetParam() * 31337);
  for (int trial = 0; trial < 10; ++trial) {
    // Mix of low-cardinality, runs, and random data to hit every encoder.
    ColumnVector ints(DataType::Int64());
    ColumnVector strs(DataType::String());
    size_t n = 1 + rng() % 500;
    for (size_t i = 0; i < n; ++i) {
      if (rng() % 10 == 0) {
        ints.Append(Value::Null());
        strs.Append(Value::Null());
        continue;
      }
      int mode = rng() % 3;
      int64_t v = mode == 0 ? static_cast<int64_t>(rng() % 4)       // dict
                  : mode == 1 ? static_cast<int64_t>(i / 17)        // runs
                              : static_cast<int64_t>(rng());        // random
      ints.Append(Value(v));
      strs.Append(Value("s" + std::to_string(v % 100)));
    }
    for (auto* col : {&ints, &strs}) {
      EncodedColumn encoded = EncodeColumn(*col);  // auto-chosen scheme
      ColumnVector decoded = DecodeColumn(encoded);
      ASSERT_EQ(decoded.size(), col->size());
      for (size_t i = 0; i < col->size(); ++i) {
        ASSERT_TRUE(col->GetValue(i).Equals(decoded.GetValue(i)) ||
                    (col->IsNull(i) && decoded.IsNull(i)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(EncodingTest, CompressionShrinksCompressibleData) {
  // Run-heavy column: RLE must beat plain by a wide margin.
  ColumnVector runs(DataType::Int64());
  for (int i = 0; i < 10000; ++i) runs.Append(Value(int64_t(i / 1000)));
  EncodedColumn plain = EncodeColumnAs(runs, ColumnEncoding::kPlain);
  EncodedColumn rle = EncodeColumnAs(runs, ColumnEncoding::kRunLength);
  EXPECT_LT(rle.data.size() * 20, plain.data.size());
  // Auto-choice picks the smallest.
  EncodedColumn chosen = EncodeColumn(runs);
  EXPECT_LE(chosen.data.size(), rle.data.size());

  // Low-cardinality strings: dictionary wins over plain.
  ColumnVector dict(DataType::String());
  for (int i = 0; i < 10000; ++i) {
    dict.Append(Value(i % 2 == 0 ? "some-long-category-name-a"
                                 : "some-long-category-name-b"));
  }
  EncodedColumn splain = EncodeColumnAs(dict, ColumnEncoding::kPlain);
  EncodedColumn sdict = EncodeColumnAs(dict, ColumnEncoding::kDictionary);
  EXPECT_LT(sdict.data.size() * 4, splain.data.size());
}

TEST(EncodingTest, ZoneMapStatistics) {
  ColumnVector col = MakeColumn(
      DataType::Int64(),
      {Value(int64_t{5}), Value::Null(), Value(int64_t{-2}), Value(int64_t{9})});
  EncodedColumn encoded = EncodeColumn(col);
  ASSERT_TRUE(encoded.min.has_value());
  ASSERT_TRUE(encoded.max.has_value());
  EXPECT_EQ(encoded.min->i64(), -2);
  EXPECT_EQ(encoded.max->i64(), 9);
  EXPECT_TRUE(encoded.has_nulls);

  ColumnVector all_null = MakeColumn(DataType::Int64(), {Value::Null()});
  EncodedColumn null_encoded = EncodeColumn(all_null);
  EXPECT_FALSE(null_encoded.min.has_value());
}

TEST(EncodingTest, SerializeDeserializeWithStats) {
  ColumnVector col = MakeColumn(
      DataType::String(), {Value("m"), Value("a"), Value::Null(), Value("z")});
  EncodedColumn encoded = EncodeColumn(col);
  std::string buffer;
  SerializeColumn(encoded, &buffer);
  size_t offset = 0;
  EncodedColumn restored =
      DeserializeColumn(buffer, &offset, DataType::String());
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(restored.num_rows, 4u);
  EXPECT_EQ(restored.min->str(), "a");
  EXPECT_EQ(restored.max->str(), "z");
  ColumnVector decoded = DecodeColumn(restored);
  EXPECT_EQ(decoded.GetValue(0).str(), "m");
  EXPECT_TRUE(decoded.IsNull(2));
}

TEST(EncodingTest, ComplexTypesUseBoxedEncoding) {
  ColumnVector col(ArrayType::Make(DataType::Int32(), true));
  col.Append(Value::Array({Value(int32_t{1})}));
  col.Append(Value::Null());
  EncodedColumn encoded = EncodeColumn(col);
  EXPECT_EQ(encoded.encoding, ColumnEncoding::kBoxed);
  ColumnVector decoded = DecodeColumn(encoded);
  EXPECT_EQ(decoded.GetValue(0).array().elements[0].i32(), 1);
  std::string buffer;
  EXPECT_THROW(SerializeColumn(encoded, &buffer), IoError);
}

TEST(CachedTableTest, BuildScanAndPrune) {
  auto schema = StructType::Make({
      Field("a", DataType::Int64(), false),
      Field("b", DataType::String(), true),
      Field("c", DataType::Double(), true),
  });
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(
        Row({Value(int64_t(i)), Value("cat" + std::to_string(i % 3)),
             Value(i * 0.5)}));
  }
  RowDataset data = RowDataset::FromRows(rows, 4);
  auto table = CachedTable::Build(schema, data);
  EXPECT_EQ(table->num_rows(), 100u);
  EXPECT_EQ(table->num_chunks(), 4u);

  // Pruned scan: only column c, partition structure preserved.
  RowDataset scanned = table->Scan({2});
  EXPECT_EQ(scanned.num_partitions(), 4u);
  auto out = scanned.Collect();
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out[0].size(), 1u);
  EXPECT_DOUBLE_EQ(out[10].GetDouble(0), 5.0);

  // Multi-column scan in requested order.
  auto two = table->Scan({1, 0}).Collect();
  EXPECT_EQ(two[0].GetString(0), "cat0");
  EXPECT_EQ(two[0].GetInt64(1), 0);
}

TEST(CachedTableTest, ColumnarFootprintBeatsBoxedRows) {
  // The Section 3.6 claim: columnar + compression is roughly an order of
  // magnitude smaller than boxed row objects for repetitive data.
  auto schema = StructType::Make({
      Field("k", DataType::Int64(), false),
      Field("cat", DataType::String(), false),
  });
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back(Row(
        {Value(int64_t(i / 100)), Value(i % 2 == 0 ? "female" : "male")}));
  }
  auto table = CachedTable::Build(schema, RowDataset::FromRows(rows, 4));
  EXPECT_LT(table->MemoryBytes() * 8, table->EstimatedRowCacheBytes())
      << "columnar=" << table->MemoryBytes()
      << " rows=" << table->EstimatedRowCacheBytes();
}

TEST(CacheManagerTest, PutGetRemove) {
  CacheManager manager;
  auto schema = StructType::Make({Field("x", DataType::Int32(), false)});
  auto table = CachedTable::Build(
      schema, RowDataset::SinglePartition({Row({Value(int32_t{1})})}));
  manager.Put("key", table);
  EXPECT_NE(manager.Get("key"), nullptr);
  EXPECT_EQ(manager.Get("other"), nullptr);
  EXPECT_GT(manager.TotalMemoryBytes(), 0u);
  manager.Remove("key");
  EXPECT_EQ(manager.Get("key"), nullptr);
  manager.Clear();
  EXPECT_EQ(manager.TotalMemoryBytes(), 0u);
}

// ---- Encoder oracle: the one-pass chooser against the per-scheme encoders ----

std::string Serialized(const EncodedColumn& e) {
  std::string out;
  SerializeColumn(e, &out);
  return out;
}

/// The zone map as a fold over boxed values with Value::Compare, the first
/// row winning ties — the semantics the typed pass must reproduce.
void ExpectBoxedZoneMap(const ColumnVector& col, const EncodedColumn& e) {
  std::optional<Value> lo, hi;
  bool has_nulls = false;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) {
      has_nulls = true;
      continue;
    }
    Value v = col.GetValue(i);
    if (!lo || v.Compare(*lo) < 0) lo = v;
    if (!hi || v.Compare(*hi) > 0) hi = v;
  }
  EXPECT_EQ(e.has_nulls, has_nulls);
  ASSERT_EQ(e.min.has_value(), lo.has_value());
  ASSERT_EQ(e.max.has_value(), hi.has_value());
  if (!lo) return;
  EXPECT_EQ(e.min->type_id(), lo->type_id());
  EXPECT_EQ(e.max->type_id(), hi->type_id());
  // Bit-level identity (NaN payloads, -0.0): compare serialized zone maps.
  EncodedColumn expected;
  expected.type = col.type();
  expected.min = lo;
  expected.max = hi;
  EncodedColumn actual = expected;
  actual.min = e.min;
  actual.max = e.max;
  EXPECT_EQ(Serialized(actual), Serialized(expected));
}

/// EncodeColumn must be byte-identical to the smallest of the three
/// EncodeColumnAs schemes (ties: plain, then RLE, then dictionary), every
/// scheme must round-trip, and the zone map must match the boxed fold.
void ExpectChosenIsSmallest(const ColumnVector& col) {
  EncodedColumn chosen = EncodeColumn(col);
  EncodedColumn best = EncodeColumnAs(col, ColumnEncoding::kPlain);
  for (ColumnEncoding scheme :
       {ColumnEncoding::kRunLength, ColumnEncoding::kDictionary}) {
    EncodedColumn candidate = EncodeColumnAs(col, scheme);
    ExpectRoundTrip(col, scheme);
    if (candidate.data.size() < best.data.size()) best = std::move(candidate);
  }
  ExpectRoundTrip(col, ColumnEncoding::kPlain);
  EXPECT_EQ(chosen.encoding, best.encoding) << col.type()->ToString();
  EXPECT_EQ(chosen.data, best.data) << col.type()->ToString();
  EXPECT_EQ(Serialized(chosen), Serialized(best));
  ExpectBoxedZoneMap(col, chosen);
}

Value RandomValue(std::mt19937_64& rng, const DataType& type, int64_t k) {
  switch (type.id()) {
    case TypeId::kBoolean:
      return Value(k % 2 == 0);
    case TypeId::kInt32:
      return Value(static_cast<int32_t>(k * 7919 - 50000));
    case TypeId::kInt64:
      return Value(static_cast<int64_t>(k * 1000000007LL - 3));
    case TypeId::kDate:
      return Value(DateValue{static_cast<int32_t>(k - 100)});
    case TypeId::kTimestamp:
      return Value(TimestampValue{static_cast<int64_t>(k * 1000 - 77)});
    case TypeId::kDecimal: {
      // Unscaled values past 2^53 make distinct decimals tie as doubles,
      // the order Value::Compare uses.
      const auto& dt = AsDecimal(type);
      int64_t unscaled = static_cast<int64_t>(
          (k * 123456789012345LL) % 999999999999999999LL - 5);
      return Value(Decimal(unscaled, dt.precision(), dt.scale()));
    }
    case TypeId::kDouble: {
      static const double kSpecial[] = {
          std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0,
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity()};
      if (k % 5 == 0) return Value(kSpecial[(k / 5) % 5]);
      return Value(static_cast<double>(k) * 0.25 - 3.0);
    }
    default:
      if (k % 7 == 0) return Value(std::string());
      return Value("s" + std::to_string(k % 1000) +
                   std::string(static_cast<size_t>(rng() % 4), 'x'));
  }
}

std::vector<DataTypePtr> EncodableTypes() {
  return {DataType::Boolean(), DataType::Int32(),     DataType::Int64(),
          DataType::Date(),    DataType::Timestamp(), DecimalType::Make(18, 4),
          DataType::Double(),  DataType::String()};
}

class EncoderOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(EncoderOracleTest, ChosenEncodingIsTheSmallestSchemeByteForByte) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7477);
  for (const DataTypePtr& type : EncodableTypes()) {
    for (int trial = 0; trial < 12; ++trial) {
      const size_t n = std::vector<size_t>{1, 2, 17, 300, 1000}[rng() % 5];
      const int64_t cardinality =
          std::vector<int64_t>{1, 2, 5, 50, 1000000}[rng() % 5];
      const int null_pct = std::vector<int>{0, 0, 10, 50}[rng() % 4];
      const size_t run = std::vector<size_t>{1, 1, 3, 40}[rng() % 4];
      ColumnVector col(type);
      Value current;
      for (size_t i = 0; i < n; ++i) {
        if (i % run == 0) {
          current = static_cast<int>(rng() % 100) < null_pct
                        ? Value::Null()
                        : RandomValue(rng, *type,
                                      static_cast<int64_t>(rng() % cardinality));
        }
        col.Append(current);
      }
      SCOPED_TRACE(type->ToString() + " n=" + std::to_string(n) +
                   " trial=" + std::to_string(trial));
      ExpectChosenIsSmallest(col);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(EncoderOracleTest, EdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN first: unordered under Value::Compare, so it stays min and max.
  ColumnVector nan_first = MakeColumn(
      DataType::Double(), {Value(nan), Value(1.0), Value(-5.0), Value(nan)});
  ExpectChosenIsSmallest(nan_first);
  EXPECT_TRUE(std::isnan(EncodeColumn(nan_first).min->f64()));
  EXPECT_TRUE(std::isnan(EncodeColumn(nan_first).max->f64()));

  // -0.0 next to 0.0: equal for the zone map (first wins), distinct for
  // RLE runs and dictionary entries (bitwise), and both survive decoding.
  ColumnVector zeros = MakeColumn(
      DataType::Double(), {Value(-0.0), Value(0.0), Value(0.0), Value(-0.0)});
  ExpectChosenIsSmallest(zeros);
  EncodedColumn zeros_rle = EncodeColumnAs(zeros, ColumnEncoding::kRunLength);
  // Three runs, each a u32 length, a null flag and an 8-byte value.
  EXPECT_EQ(zeros_rle.data.size(), 3u * 13u);
  EXPECT_TRUE(std::signbit(EncodeColumn(zeros).min->f64()));
  ColumnVector zeros_back =
      DecodeColumn(EncodeColumnAs(zeros, ColumnEncoding::kDictionary));
  EXPECT_TRUE(std::signbit(zeros_back.GetDouble(0)));
  EXPECT_FALSE(std::signbit(zeros_back.GetDouble(1)));

  // '' is a value, distinct from null.
  ColumnVector empties = MakeColumn(
      DataType::String(),
      {Value(std::string()), Value::Null(), Value(std::string()), Value("a"),
       Value(std::string()), Value::Null()});
  ExpectChosenIsSmallest(empties);
  EXPECT_EQ(EncodeColumn(empties).min->str(), "");

  for (const DataTypePtr& type : EncodableTypes()) {
    SCOPED_TRACE(type->ToString());
    ColumnVector all_null(type);
    for (int i = 0; i < 10; ++i) all_null.AppendNull();
    ExpectChosenIsSmallest(all_null);
    EXPECT_FALSE(EncodeColumn(all_null).min.has_value());

    std::mt19937_64 rng(9);
    ColumnVector one(type);
    one.Append(RandomValue(rng, *type, 3));
    ExpectChosenIsSmallest(one);

    ColumnVector empty(type);
    ExpectChosenIsSmallest(empty);

    // A full 4096-row chunk at full cardinality.
    ColumnVector distinct(type);
    for (int64_t i = 0; i < 4096; ++i) {
      distinct.Append(RandomValue(rng, *type, i + 1));
    }
    ExpectChosenIsSmallest(distinct);
  }
}

std::vector<Row> MixedRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value name = i % 11 == 0 ? Value::Null()
                             : Value("name" + std::to_string(i % 37));
    rows.push_back(Row({Value(static_cast<int64_t>(i)), std::move(name),
                        Value(static_cast<double>(i / 8) * 0.5),
                        Value(static_cast<int32_t>(i % 3))}));
  }
  return rows;
}

SchemaPtr MixedSchema() {
  return StructType::Make({
      Field("id", DataType::Int64(), false),
      Field("name", DataType::String(), true),
      Field("score", DataType::Double(), true),
      Field("bucket", DataType::Int32(), false),
  });
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ParallelEncodingTest, ColfFileOnThePoolIsByteIdenticalToInline) {
  ThreadPool pool(4);
  std::vector<Row> rows = MixedRows(5000);
  std::string inline_path = TestTempPath("inline.colf");
  std::string pooled_path = TestTempPath("pooled.colf");
  WriteColfFile(inline_path, MixedSchema(), rows, 300);
  WriteColfFile(pooled_path, MixedSchema(), rows, 300, &pool);
  std::string inline_bytes = ReadFileBytes(inline_path);
  EXPECT_GT(inline_bytes.size(), 0u);
  EXPECT_EQ(ReadFileBytes(pooled_path), inline_bytes);
  std::remove(inline_path.c_str());
  std::remove(pooled_path.c_str());
}

TEST(ParallelEncodingTest, CachedTableOnThePoolIsByteIdenticalToInline) {
  ThreadPool pool(4);
  RowDataset data = RowDataset::FromRows(MixedRows(5000), 7);
  auto inline_table = CachedTable::Build(MixedSchema(), data);
  auto pooled_table = CachedTable::Build(MixedSchema(), data, &pool);
  ASSERT_EQ(pooled_table->num_chunks(), inline_table->num_chunks());
  EXPECT_EQ(pooled_table->num_rows(), inline_table->num_rows());
  for (size_t c = 0; c < inline_table->num_chunks(); ++c) {
    EXPECT_EQ(pooled_table->chunk_rows(c), inline_table->chunk_rows(c));
    const auto& a = inline_table->chunk_columns(c);
    const auto& b = pooled_table->chunk_columns(c);
    ASSERT_EQ(a.size(), b.size());
    for (size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(Serialized(b[f]), Serialized(a[f]))
          << "chunk " << c << " field " << f;
    }
  }
}

// ---- Null-slot and RowBatch regressions (vectorized engine hazards) ----

TEST(ColumnVectorTest, NullSlotsHoldDefinedZeros) {
  // Every bank writes a defined zero for a null entry, so vectorized
  // kernels may gather from banks unconditionally under the null mask.
  ColumnVector ints(DataType::Int64());
  ints.Append(Value(int64_t{42}));
  ints.Append(Value::Null());
  ints.AppendNull();
  ASSERT_EQ(ints.size(), 3u);
  EXPECT_TRUE(ints.IsNull(1));
  EXPECT_TRUE(ints.IsNull(2));
  EXPECT_EQ(ints.ints()[1], 0);
  EXPECT_EQ(ints.ints()[2], 0);
  EXPECT_EQ(ints.GetInt64(1), 0);
  EXPECT_TRUE(ints.GetValue(1).is_null());

  ColumnVector doubles(DataType::Double());
  doubles.Append(Value::Null());
  EXPECT_EQ(doubles.doubles()[0], 0.0);
  EXPECT_TRUE(doubles.GetValue(0).is_null());

  ColumnVector strings(DataType::String());
  strings.Append(Value("x"));
  strings.Append(Value::Null());
  EXPECT_EQ(strings.strings()[1], "");
  EXPECT_TRUE(strings.GetValue(1).is_null());

  ColumnVector boxed(StructType::Make({}));
  boxed.Append(Value::Null());
  EXPECT_TRUE(boxed.boxed()[0].is_null());
  EXPECT_TRUE(boxed.GetValue(0).is_null());
}

TEST(ColumnVectorTest, ReserveCoversActiveAndNullBanks) {
  ColumnVector strings(DataType::String());
  strings.Reserve(100);
  EXPECT_GE(strings.strings().capacity(), 100u);
  EXPECT_GE(strings.nulls().capacity(), 100u);

  ColumnVector nums(DataType::Int32());
  nums.Reserve(50);
  EXPECT_GE(nums.ints().capacity(), 50u);
  EXPECT_GE(nums.nulls().capacity(), 50u);

  ColumnVector dbls(DataType::Double());
  dbls.Reserve(50);
  EXPECT_GE(dbls.doubles().capacity(), 50u);
  EXPECT_GE(dbls.nulls().capacity(), 50u);
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(ColumnVectorDeathTest, OutOfRangeAccessAssertsInDebug) {
  ColumnVector col(DataType::Int64());
  col.Append(Value(int64_t{1}));
  EXPECT_DEATH(col.GetInt64(5), "out of range");
  EXPECT_DEATH(col.IsNull(5), "out of range");
}
#endif

TEST(RowBatchTest, FilterViewSharesColumnsAndSelectsPhysicalRows) {
  auto col = std::make_shared<ColumnVector>(DataType::Int64());
  for (int i = 0; i < 6; ++i) col->Append(Value(int64_t{i * 10}));
  auto base = std::make_shared<const RowBatch>(
      std::vector<std::shared_ptr<ColumnVector>>{col});
  auto view = RowBatch::FilterView(base, {1, 3, 5});
  EXPECT_EQ(view->num_rows(), 6u);
  EXPECT_EQ(view->ActiveRows(), 3u);
  EXPECT_EQ(view->ActiveIndex(2), 5u);
  EXPECT_EQ(&view->column(0), col.get());  // shared, not copied
  std::vector<Row> out;
  view->AppendActiveRowsTo(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].GetInt64(0), 10);
  EXPECT_EQ(out[2].GetInt64(0), 50);
  // A view of a view still carries physical indices into the base columns.
  auto narrower = RowBatch::FilterView(view, {3});
  EXPECT_EQ(narrower->ActiveRows(), 1u);
  EXPECT_EQ(narrower->BoxRow(narrower->ActiveIndex(0)).GetInt64(0), 30);
}

TEST(RowBatchTest, PackRowsIntoBatchesSplitsAndRoundTrips) {
  std::vector<DataTypePtr> types = {DataType::Int32(), DataType::String()};
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    Value a = i % 4 == 0 ? Value::Null() : Value(static_cast<int32_t>(i));
    rows.push_back(Row({a, Value("r" + std::to_string(i))}));
  }
  std::vector<RowBatchPtr> batches;
  PackRowsIntoBatches(rows, types, 4, &batches);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0]->ActiveRows(), 4u);
  EXPECT_EQ(batches[2]->ActiveRows(), 2u);
  std::vector<Row> round;
  for (const auto& b : batches) b->AppendActiveRowsTo(&round);
  ASSERT_EQ(round.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(round[i].Equals(rows[i])) << "row " << i;
  }
  batches.clear();
  PackRowsIntoBatches({}, types, 4, &batches);
  EXPECT_TRUE(batches.empty());  // zero rows → zero batches
}

}  // namespace
}  // namespace ssql
