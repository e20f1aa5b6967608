// Unit tests for the storage module: the paged base-sequence store, both
// access paths, access accounting, and column statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <unordered_set>

#include "storage/base_sequence.h"

namespace seq {
namespace {

SchemaPtr OneCol() {
  return Schema::Make({Field{"v", TypeId::kInt64}});
}

Record Row(int64_t v) { return Record{Value::Int64(v)}; }

TEST(BaseSequenceTest, AppendRequiresIncreasingPositions) {
  BaseSequenceStore store(OneCol(), 4);
  EXPECT_TRUE(store.Append(5, Row(1)).ok());
  EXPECT_TRUE(store.Append(7, Row(2)).ok());
  Status dup = store.Append(7, Row(3));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(store.Append(6, Row(3)).ok());
}

TEST(BaseSequenceTest, AppendTypeChecks) {
  BaseSequenceStore store(OneCol(), 4);
  Status bad = store.Append(1, Record{Value::Double(1.0)});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kTypeError);
}

TEST(BaseSequenceTest, SpanDefaultsToRecordHull) {
  BaseSequenceStore store(OneCol(), 4);
  EXPECT_TRUE(store.span().IsEmpty());
  ASSERT_TRUE(store.Append(10, Row(1)).ok());
  ASSERT_TRUE(store.Append(30, Row(2)).ok());
  EXPECT_EQ(store.span(), Span::Of(10, 30));
}

TEST(BaseSequenceTest, DeclaredSpanWidensAndValidates) {
  BaseSequenceStore store(OneCol(), 4);
  ASSERT_TRUE(store.Append(10, Row(1)).ok());
  EXPECT_TRUE(store.DeclareSpan(Span::Of(1, 100)).ok());
  EXPECT_EQ(store.span(), Span::Of(1, 100));
  // A span not covering stored records is rejected.
  EXPECT_FALSE(store.DeclareSpan(Span::Of(50, 100)).ok());
  // Appends outside a declared span are rejected.
  EXPECT_FALSE(store.Append(200, Row(2)).ok());
}

TEST(BaseSequenceTest, DensityIsRecordsOverSpan) {
  BaseSequenceStore store(OneCol(), 4);
  ASSERT_TRUE(store.DeclareSpan(Span::Of(1, 10)).ok());
  for (Position p : {1, 4, 7, 10}) ASSERT_TRUE(store.Append(p, Row(p)).ok());
  EXPECT_DOUBLE_EQ(store.density(), 0.4);
}

TEST(BaseSequenceTest, PageCount) {
  BaseSequenceStore store(OneCol(), 4);
  for (Position p = 0; p < 10; ++p) ASSERT_TRUE(store.Append(p, Row(p)).ok());
  EXPECT_EQ(store.num_pages(), 3);  // ceil(10 / 4)
}

TEST(BaseSequenceTest, StreamDeliversRangeInOrder) {
  BaseSequenceStore store(OneCol(), 4);
  for (Position p : {1, 3, 5, 7, 9}) ASSERT_TRUE(store.Append(p, Row(p)).ok());
  AccessStats stats;
  auto cursor = store.OpenStream(Span::Of(3, 7), &stats);
  std::vector<Position> seen;
  while (auto r = cursor.Next()) seen.push_back(r->pos);
  EXPECT_EQ(seen, (std::vector<Position>{3, 5, 7}));
  EXPECT_EQ(stats.stream_records, 3);
}

TEST(BaseSequenceTest, StreamChargesPerPageEntered) {
  AccessCosts costs;
  costs.page_cost = 10.0;
  BaseSequenceStore store(OneCol(), 4, costs);
  for (Position p = 0; p < 12; ++p) ASSERT_TRUE(store.Append(p, Row(p)).ok());
  AccessStats stats;
  auto cursor = store.OpenStream(store.span(), &stats);
  while (cursor.Next()) {
  }
  EXPECT_EQ(stats.stream_pages, 3);
  EXPECT_DOUBLE_EQ(stats.simulated_cost, 30.0);
}

TEST(BaseSequenceTest, StreamPeekDoesNotCharge) {
  BaseSequenceStore store(OneCol(), 4);
  ASSERT_TRUE(store.Append(2, Row(2)).ok());
  AccessStats stats;
  auto cursor = store.OpenStream(store.span(), &stats);
  EXPECT_EQ(*cursor.PeekPosition(), 2);
  EXPECT_EQ(stats.stream_records, 0);
  cursor.Next();
  EXPECT_FALSE(cursor.PeekPosition().has_value());
}

TEST(BaseSequenceTest, ProbeFindsExactPositionOnly) {
  AccessCosts costs;
  costs.probe_cost = 12.0;
  BaseSequenceStore store(OneCol(), 4, costs);
  for (Position p : {2, 4, 6}) ASSERT_TRUE(store.Append(p, Row(p * 10)).ok());
  AccessStats stats;
  auto hit = store.Probe(4, &stats);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].int64(), 40);
  EXPECT_FALSE(store.Probe(5, &stats).has_value());
  EXPECT_FALSE(store.Probe(100, &stats).has_value());  // outside span
  EXPECT_EQ(stats.probes, 3);
  EXPECT_DOUBLE_EQ(stats.simulated_cost, 36.0);
}

TEST(BaseSequenceTest, EmptyRangeStream) {
  BaseSequenceStore store(OneCol(), 4);
  ASSERT_TRUE(store.Append(5, Row(5)).ok());
  AccessStats stats;
  auto cursor = store.OpenStream(Span::Of(10, 20), &stats);
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_EQ(stats.stream_records, 0);
}

TEST(BaseSequenceTest, FromRecordsBuildsStore) {
  std::vector<PosRecord> records{{1, Row(10)}, {5, Row(50)}};
  auto store = BaseSequenceStore::FromRecords(OneCol(), std::move(records));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_records(), 2);
  EXPECT_EQ((*store)->span(), Span::Of(1, 5));
}

TEST(ColumnStatsTest, NumericMinMaxDistinct) {
  BaseSequenceStore store(OneCol(), 4);
  for (Position p = 0; p < 6; ++p) {
    ASSERT_TRUE(store.Append(p, Row(p % 3)).ok());  // values 0,1,2 repeated
  }
  const std::vector<ColumnStats>& stats = store.column_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, 6);
  EXPECT_DOUBLE_EQ(*stats[0].min, 0.0);
  EXPECT_DOUBLE_EQ(*stats[0].max, 2.0);
  EXPECT_EQ(stats[0].distinct, 3);
}

TEST(ColumnStatsTest, RefreshAfterAppend) {
  BaseSequenceStore store(OneCol(), 4);
  ASSERT_TRUE(store.Append(0, Row(1)).ok());
  EXPECT_EQ(store.column_stats()[0].count, 1);
  ASSERT_TRUE(store.Append(1, Row(9)).ok());
  EXPECT_EQ(store.column_stats()[0].count, 2);
  EXPECT_DOUBLE_EQ(*store.column_stats()[0].max, 9.0);
}

TEST(ColumnStatsTest, StringColumnsHaveNoRange) {
  SchemaPtr schema = Schema::Make({Field{"s", TypeId::kString}});
  BaseSequenceStore store(schema, 4);
  ASSERT_TRUE(store.Append(0, Record{Value::String("a")}).ok());
  const ColumnStats& cs = store.column_stats()[0];
  EXPECT_FALSE(cs.min.has_value());
  EXPECT_EQ(cs.distinct, 1);
}

TEST(AccessStatsTest, AccumulateAndReset) {
  AccessStats a;
  a.probes = 2;
  a.simulated_cost = 5.0;
  AccessStats b;
  b.probes = 3;
  b.cache_hits = 1;
  a += b;
  EXPECT_EQ(a.probes, 5);
  EXPECT_EQ(a.cache_hits, 1);
  EXPECT_DOUBLE_EQ(a.simulated_cost, 5.0);
  a.Reset();
  EXPECT_EQ(a.probes, 0);
}

}  // namespace
}  // namespace seq

namespace seq {
namespace {

TEST(HistogramTest, SkewedDataBeatsLinearInterpolation) {
  // 90% of values at the bottom of the range, a few outliers at the top:
  // linear interpolation would say P(v < 100) ~ 100/1000 = 0.1; the
  // histogram knows it is ~0.9.
  BaseSequenceStore store(OneCol(), 64);
  Position p = 0;
  for (int i = 0; i < 900; ++i) {
    ASSERT_TRUE(store.Append(p++, Row(i % 100)).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Append(p++, Row(900 + i)).ok());
  }
  const ColumnStats& cs = store.column_stats()[0];
  ASSERT_FALSE(cs.bucket_counts.empty());
  EXPECT_NEAR(cs.FractionBelow(100.0), 0.9, 0.06);
  EXPECT_NEAR(cs.FractionBelow(900.0), 0.9, 0.02);
  EXPECT_NEAR(cs.FractionBelow(1500.0), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(cs.FractionBelow(-5.0), 0.0);
}

TEST(HistogramTest, UniformDataMatchesInterpolation) {
  BaseSequenceStore store(OneCol(), 64);
  for (Position p = 0; p < 1000; ++p) {
    ASSERT_TRUE(store.Append(p, Row(p)).ok());
  }
  const ColumnStats& cs = store.column_stats()[0];
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(cs.FractionBelow(q * 999.0), q, 0.05);
  }
}

TEST(HistogramTest, ConstantColumnHasNoHistogram) {
  BaseSequenceStore store(OneCol(), 64);
  for (Position p = 0; p < 10; ++p) {
    ASSERT_TRUE(store.Append(p, Row(7)).ok());
  }
  const ColumnStats& cs = store.column_stats()[0];
  EXPECT_TRUE(cs.bucket_counts.empty());  // max == min: no range
  EXPECT_DOUBLE_EQ(cs.FractionBelow(8.0), 1.0);
  EXPECT_DOUBLE_EQ(cs.FractionBelow(7.0), 0.0);
}

}  // namespace
}  // namespace seq

namespace seq {
namespace {

// The straightforward statistics algorithm: a node-based set of hashes per
// column and one histogram pass per column. ComputeColumnStats fuses these
// passes and must agree with it bit for bit.
std::vector<ColumnStats> NaiveColumnStats(
    const std::vector<PosRecord>& records, const Schema& schema) {
  constexpr size_t kDistinctCap = 1 << 16;
  std::vector<ColumnStats> stats(schema.num_fields());
  std::vector<std::unordered_set<size_t>> distinct_hashes(schema.num_fields());
  for (const PosRecord& pr : records) {
    for (size_t i = 0; i < schema.num_fields() && i < pr.rec.size(); ++i) {
      ColumnStats& cs = stats[i];
      const Value& v = pr.rec[i];
      ++cs.count;
      if (IsNumeric(v.type())) {
        double d = v.AsDouble();
        if (!cs.min.has_value() || d < *cs.min) cs.min = d;
        if (!cs.max.has_value() || d > *cs.max) cs.max = d;
      }
      auto& seen = distinct_hashes[i];
      if (seen.size() < kDistinctCap) seen.insert(v.Hash());
    }
  }
  for (size_t i = 0; i < stats.size(); ++i) {
    stats[i].distinct = static_cast<int64_t>(distinct_hashes[i].size());
  }
  for (size_t i = 0; i < stats.size(); ++i) {
    ColumnStats& cs = stats[i];
    if (!cs.min.has_value() || !cs.max.has_value() || *cs.max <= *cs.min) {
      continue;
    }
    cs.bucket_counts.assign(ColumnStats::kHistogramBuckets, 0);
    double width = (*cs.max - *cs.min) / ColumnStats::kHistogramBuckets;
    for (const PosRecord& pr : records) {
      if (i >= pr.rec.size() || !IsNumeric(pr.rec[i].type())) continue;
      double d = pr.rec[i].AsDouble();
      int b = static_cast<int>((d - *cs.min) / width);
      b = std::clamp(b, 0, ColumnStats::kHistogramBuckets - 1);
      ++cs.bucket_counts[static_cast<size_t>(b)];
    }
  }
  return stats;
}

void ExpectBitIdentical(const std::optional<double>& got,
                        const std::optional<double>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got.has_value()) {
    EXPECT_EQ(std::bit_cast<uint64_t>(*got), std::bit_cast<uint64_t>(*want))
        << *got << " vs " << *want;
  }
}

void ExpectStatsMatchNaive(const BaseSequenceStore& store) {
  const std::vector<ColumnStats> want =
      NaiveColumnStats(store.records(), *store.schema());
  const std::vector<ColumnStats>& got = store.column_stats();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("column " + store.schema()->field(i).name);
    EXPECT_EQ(got[i].count, want[i].count);
    EXPECT_EQ(got[i].distinct, want[i].distinct);
    ExpectBitIdentical(got[i].min, want[i].min);
    ExpectBitIdentical(got[i].max, want[i].max);
    EXPECT_EQ(got[i].bucket_counts, want[i].bucket_counts);
  }
}

SchemaPtr MixedSchema() {
  return Schema::Make({Field{"i", TypeId::kInt64},
                       Field{"d", TypeId::kDouble},
                       Field{"b", TypeId::kBool},
                       Field{"s", TypeId::kString},
                       Field{"z", TypeId::kDouble}});
}

// A row of the mixed schema: a skewed int, a uniform double, a coin, a
// label from a small set, and a column of mostly signed zeros.
Record MixedRow(std::mt19937_64& rng) {
  std::uniform_int_distribution<int64_t> small(-50, 50);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> pick(0, 9);
  const int z = pick(rng);
  return Record{Value::Int64(small(rng) * small(rng)),
                Value::Double(unit(rng) * 1e3),
                Value::Bool(pick(rng) < 3),
                Value::String("label" + std::to_string(pick(rng))),
                Value::Double(z < 4 ? 0.0 : z < 8 ? -0.0 : unit(rng))};
}

TEST(ColumnStatsTest, FusedPassesMatchNaiveOnRandomStores) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    BaseSequenceStore store(MixedSchema(), 16);
    const int rows = std::uniform_int_distribution<int>(0, 3000)(rng);
    Position p = 0;
    for (int r = 0; r < rows; ++r) {
      p += std::uniform_int_distribution<Position>(1, 3)(rng);
      ASSERT_TRUE(store.Append(p, MixedRow(rng)).ok());
    }
    ExpectStatsMatchNaive(store);
  }
}

TEST(ColumnStatsTest, SignedZerosKeepTheFirstSeen) {
  // -0.0 and 0.0 compare equal and hash equal: min and max keep whichever
  // came first, and the column counts one distinct value.
  SchemaPtr schema = Schema::Make({Field{"z", TypeId::kDouble}});
  for (double first : {-0.0, 0.0}) {
    BaseSequenceStore store(schema, 4);
    ASSERT_TRUE(store.Append(0, {Value::Double(first)}).ok());
    ASSERT_TRUE(store.Append(1, {Value::Double(-first)}).ok());
    ExpectStatsMatchNaive(store);
    EXPECT_EQ(std::signbit(*store.column_stats()[0].min), std::signbit(first));
    EXPECT_EQ(store.column_stats()[0].distinct, 1);
  }
}

TEST(ColumnStatsTest, DistinctSaturatesAtTheCap) {
  SchemaPtr schema = Schema::Make({Field{"i", TypeId::kInt64},
                                   Field{"d", TypeId::kDouble},
                                   Field{"s", TypeId::kString}});
  BaseSequenceStore store(schema, 64);
  for (Position p = 0; p < 70000; ++p) {
    ASSERT_TRUE(store
                    .Append(p, {Value::Int64(p * 7 - 1000),
                                Value::Double(static_cast<double>(p) / 3.0),
                                Value::String(std::to_string(p % 70001))})
                    .ok());
  }
  ExpectStatsMatchNaive(store);
  for (const ColumnStats& cs : store.column_stats()) {
    EXPECT_EQ(cs.distinct, int64_t{1} << 16);
  }
}

TEST(ColumnStatsTest, ConstantAndEmptyStoresMatchNaive) {
  BaseSequenceStore empty(MixedSchema(), 4);
  ExpectStatsMatchNaive(empty);
  EXPECT_EQ(empty.column_stats()[0].count, 0);
  EXPECT_FALSE(empty.column_stats()[0].min.has_value());

  BaseSequenceStore constant(MixedSchema(), 4);
  for (Position p = 0; p < 100; ++p) {
    ASSERT_TRUE(constant
                    .Append(p, {Value::Int64(7), Value::Double(2.5),
                                Value::Bool(false), Value::String("x"),
                                Value::Double(0.0)})
                    .ok());
  }
  ExpectStatsMatchNaive(constant);
  for (const ColumnStats& cs : constant.column_stats()) {
    EXPECT_TRUE(cs.bucket_counts.empty());
    EXPECT_EQ(cs.distinct, 1);
  }
}

TEST(ColumnStatsTest, RefreshAfterAppendMatchesNaive) {
  std::mt19937_64 rng(42);
  BaseSequenceStore store(MixedSchema(), 8);
  Position p = 0;
  for (int batch = 0; batch < 5; ++batch) {
    for (int r = 0; r < 40; ++r) {
      ASSERT_TRUE(store.Append(++p, MixedRow(rng)).ok());
    }
    ExpectStatsMatchNaive(store);
  }
}

}  // namespace
}  // namespace seq
