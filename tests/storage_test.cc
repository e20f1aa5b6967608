// Unit tests for the storage module: the paged columnar base-sequence
// store, both access paths, access accounting, and column statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <unordered_set>

#include "storage/base_sequence.h"
#include "storage/file_format.h"

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

TEST(StorageTest, RejectedAppendLeavesStoreUnchanged) {
  BaseSequenceStore store(OneCol(), 4);
  ASSERT_TRUE(store.DeclareSpan(Span::Of(1, 10)).ok());
  ASSERT_TRUE(store.Append(1, Row(10)).ok());
  EXPECT_EQ(store.column_stats()[0].count, 1);

  // Outside the declared span, out of order, and off the schema: each is
  // refused without storing anything or staling the statistics.
  EXPECT_EQ(store.Append(20, Row(20)).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store.Append(1, Row(11)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Append(2, Record{Value::Double(2.0)}).code(),
            StatusCode::kTypeError);
  EXPECT_EQ(store.num_records(), 1);
  EXPECT_EQ(store.column_stats()[0].count, 1);
  EXPECT_EQ(store.span(), Span::Of(1, 10));

  // Later in-span appends are accepted in order.
  ASSERT_TRUE(store.Append(5, Row(50)).ok());
  ASSERT_EQ(store.num_records(), 2);
  EXPECT_EQ(store.column_stats()[0].count, 2);
  EXPECT_EQ(store.records()[1].pos, 5);
  EXPECT_EQ(store.records()[1].rec[0].int64(), 50);
  EXPECT_EQ(store.Append(5, Row(51)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.num_records(), 2);
}

// Values and types of two rows, doubles compared as bit patterns (so -0.0
// and 0.0 differ).
void ExpectSameRow(const PosRecord& got, const PosRecord& want) {
  ASSERT_EQ(got.pos, want.pos);
  ASSERT_EQ(got.rec.size(), want.rec.size());
  for (size_t i = 0; i < want.rec.size(); ++i) {
    const Value& g = got.rec[i];
    const Value& w = want.rec[i];
    ASSERT_EQ(g.type(), w.type()) << "pos " << want.pos << " field " << i;
    switch (w.type()) {
      case TypeId::kInt64:
        EXPECT_EQ(g.int64(), w.int64());
        break;
      case TypeId::kDouble:
        EXPECT_EQ(std::bit_cast<uint64_t>(g.dbl()),
                  std::bit_cast<uint64_t>(w.dbl()))
            << "pos " << want.pos << " field " << i;
        break;
      case TypeId::kBool:
        EXPECT_EQ(g.boolean(), w.boolean());
        break;
      case TypeId::kString:
        EXPECT_TRUE(g.str() == w.str()) << "pos " << want.pos;
        break;
    }
  }
}

void ExpectSameRows(const std::vector<PosRecord>& got,
                    const std::vector<PosRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) ExpectSameRow(got[i], want[i]);
}

void ExpectSameStats(const AccessStats& got, const AccessStats& want) {
  EXPECT_EQ(got.stream_records, want.stream_records);
  EXPECT_EQ(got.stream_pages, want.stream_pages);
  EXPECT_EQ(got.probes, want.probes);
  EXPECT_EQ(got.probe_pages, want.probe_pages);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.simulated_cost),
            std::bit_cast<uint64_t>(want.simulated_cost));
}

// The row-wise model the columnar store must reproduce: records in a plain
// vector, walked one at a time with the paper's page rule (a page fetch
// whenever the record's page differs from the last one fetched; every
// record its own page when unclustered).
struct RowReference {
  std::vector<PosRecord> rows;
  Span span;
  int records_per_page;
  AccessCosts costs;

  // Rows in `range` from index `from` on, charged into `stats` starting
  // from `last_page`, up to `max_rows` rows or the first row past `limit`
  // (included).
  std::vector<PosRecord> Stream(Span range, size_t* from, int64_t* last_page,
                                AccessStats* stats, size_t max_rows,
                                Position limit = kMaxPosition) const {
    std::vector<PosRecord> out;
    const Span effective = range.Intersect(span);
    while (out.size() < max_rows && *from < rows.size()) {
      const PosRecord& pr = rows[*from];
      if (effective.IsEmpty() || pr.pos > effective.end) break;
      const int64_t index = static_cast<int64_t>((*from)++);
      if (pr.pos < effective.start) continue;
      const int64_t page =
          costs.clustered ? index / records_per_page : index;
      ++stats->stream_records;
      if (page != *last_page) {
        ++stats->stream_pages;
        stats->simulated_cost += costs.page_cost;
      }
      *last_page = page;
      out.push_back(pr);
      if (pr.pos > limit) break;
    }
    return out;
  }

  std::optional<Record> Probe(Position p, AccessStats* stats) const {
    ++stats->probes;
    ++stats->probe_pages;
    stats->simulated_cost += costs.probe_cost;
    if (!span.Contains(p)) return std::nullopt;
    for (const PosRecord& pr : rows) {
      if (pr.pos == p) return pr.rec;
    }
    return std::nullopt;
  }
};

SchemaPtr EveryTypeSchema() {
  return Schema::Make({Field{"i", TypeId::kInt64},
                       Field{"d", TypeId::kDouble},
                       Field{"b", TypeId::kBool},
                       Field{"s", TypeId::kString},
                       Field{"z", TypeId::kDouble}});
}

// A row of every type: extreme and ordinary ints, doubles including both
// zeros and extreme magnitudes, bools, and strings that are empty, short,
// or (when `huge`) 2^20 bytes, the longest a SEQ1 file admits.
Record EveryTypeRow(std::mt19937_64& rng, bool huge) {
  std::uniform_int_distribution<int> pick(0, 9);
  std::uniform_int_distribution<int64_t> any_int(INT64_MIN, INT64_MAX);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const int i = pick(rng);
  const int d = pick(rng);
  const int s = pick(rng);
  std::string text = s < 3 ? "" : "v" + std::to_string(pick(rng));
  if (huge) text.assign(size_t{1} << 20, 'x');
  return Record{
      Value::Int64(i == 0 ? INT64_MIN : i == 1 ? INT64_MAX : any_int(rng)),
      Value::Double(d < 2 ? 0.0 : d < 4 ? -0.0 : d == 4 ? -1e300
                                                        : unit(rng) * 1e6),
      Value::Bool(pick(rng) < 5), Value::String(std::move(text)),
      Value::Double(pick(rng) < 5 ? -0.0 : 0.0)};
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(StorageTest, ColumnarStoreMatchesRowReference) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "seq_test_columnar").string();
  std::filesystem::create_directories(dir);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (bool clustered : {true, false}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (clustered ? " clustered" : " unclustered"));
      std::mt19937_64 rng(seed);
      AccessCosts costs;
      costs.page_cost = 1.0 + 0.1 * static_cast<double>(seed);
      costs.probe_cost = 3.3;
      costs.clustered = clustered;
      const int rpp = 1 + static_cast<int>(seed % 5) * 3;
      RowReference ref{{}, Span::Of(-50, 600), rpp, costs};
      auto store =
          std::make_shared<BaseSequenceStore>(EveryTypeSchema(), rpp, costs);
      ASSERT_TRUE(store->DeclareSpan(ref.span).ok());
      std::bernoulli_distribution present(0.6);
      for (Position p = -40; p <= 560; ++p) {
        if (!present(rng)) continue;
        Record rec = EveryTypeRow(rng, ref.rows.size() == 17);
        ASSERT_TRUE(store->Append(p, rec).ok());
        ref.rows.push_back(PosRecord{p, std::move(rec)});
      }
      ASSERT_EQ(store->num_records(), static_cast<int64_t>(ref.rows.size()));
      ExpectSameRows(store->records(), ref.rows);

      const std::vector<Span> ranges = {store->span(), Span::Of(-45, 30),
                                        Span::Of(100, 101), Span::Of(7, 7),
                                        Span::Of(500, 900), Span::Empty()};
      for (const Span& range : ranges) {
        SCOPED_TRACE("range " + range.ToString());
        // Tuple-at-a-time.
        AccessStats want_stats;
        size_t from = 0;
        int64_t last_page = -1;
        const std::vector<PosRecord> want = ref.Stream(
            range, &from, &last_page, &want_stats, ref.rows.size());
        AccessStats got_stats;
        auto cursor = store->OpenStream(range, &got_stats);
        std::vector<PosRecord> got;
        while (std::optional<PosRecord> r = cursor.Next()) got.push_back(*r);
        ExpectSameRows(got, want);
        ExpectSameStats(got_stats, want_stats);

        // Batches of a few capacities, reusing one batch's slots.
        for (size_t capacity : {size_t{1}, size_t{7}, size_t{1024}}) {
          RecordBatch batch(capacity);
          AccessStats batch_stats;
          auto bc = store->OpenStream(range, &batch_stats);
          std::vector<PosRecord> rows;
          while (bc.FillBatch(&batch) > 0) {
            for (size_t r = 0; r < batch.size(); ++r) {
              rows.push_back(PosRecord{batch.pos(r), batch.rec(r)});
            }
          }
          ExpectSameRows(rows, want);
          ExpectSameStats(batch_stats, want_stats);
        }

        // Bounded batches: each call stops after the first row past its
        // limit, which it includes.
        for (Position step : {Position{1}, Position{13}, Position{400}}) {
          RecordBatch batch(16);
          AccessStats got_up_to;
          AccessStats want_up_to;
          size_t ref_from = 0;
          int64_t ref_last = -1;
          auto bc = store->OpenStream(range, &got_up_to);
          Position limit = range.start;
          for (int call = 0; call < 200; ++call, limit += step) {
            const std::vector<PosRecord> want_rows = ref.Stream(
                range, &ref_from, &ref_last, &want_up_to, 16, limit);
            bc.FillBatchUpTo(limit, &batch);
            std::vector<PosRecord> rows;
            for (size_t r = 0; r < batch.size(); ++r) {
              rows.push_back(PosRecord{batch.pos(r), batch.rec(r)});
            }
            ExpectSameRows(rows, want_rows);
            if (want_rows.empty()) break;
          }
          ExpectSameStats(got_up_to, want_up_to);
        }
      }

      // Resumed tilings of the span: rows and total charges equal one
      // serial scan of the whole tile.
      for (int tiles : {2, 5, 31}) {
        const Span whole = Span::Of(-60, 620);
        AccessStats want_stats;
        size_t from = 0;
        int64_t last_page = -1;
        const std::vector<PosRecord> want = ref.Stream(
            whole, &from, &last_page, &want_stats, ref.rows.size());
        AccessStats got_stats;
        std::vector<PosRecord> got;
        const int64_t width = whole.Length() / tiles + 1;
        for (Position start = whole.start; start <= whole.end;
             start += width) {
          const Span tile =
              Span::Of(start, std::min(whole.end, start + width - 1));
          auto tc = store->OpenStreamResumed(tile, whole.start, &got_stats);
          while (std::optional<PosRecord> r = tc.Next()) got.push_back(*r);
        }
        ExpectSameRows(got, want);
        ExpectSameStats(got_stats, want_stats);
      }

      // Probes: every stored position, empty positions inside the span,
      // and positions outside it; tuple and batch forms.
      std::vector<Position> probes;
      for (Position p = -70; p <= 620; p += 3) probes.push_back(p);
      AccessStats want_probe;
      AccessStats got_probe;
      AccessStats got_into;
      RecordBatch slots(probes.size());
      for (Position p : probes) {
        SCOPED_TRACE("probe " + std::to_string(p));
        const std::optional<Record> want_rec = ref.Probe(p, &want_probe);
        const std::optional<Record> got_rec = store->Probe(p, &got_probe);
        ASSERT_EQ(got_rec.has_value(), want_rec.has_value());
        const size_t before = slots.size();
        EXPECT_EQ(store->ProbeInto(p, &got_into, &slots),
                  want_rec.has_value());
        if (want_rec.has_value()) {
          ExpectSameRow(PosRecord{p, *got_rec}, PosRecord{p, *want_rec});
          ASSERT_EQ(slots.size(), before + 1);
          ExpectSameRow(PosRecord{slots.pos(before), slots.rec(before)},
                        PosRecord{p, *want_rec});
        } else {
          EXPECT_EQ(slots.size(), before);
        }
      }
      ExpectSameStats(got_probe, want_probe);
      ExpectSameStats(got_into, want_probe);

      // Save, load, save: the two files are byte-identical and the loaded
      // store holds the same rows, span, layout and statistics.
      const std::string first = dir + "/first.seq1";
      const std::string second = dir + "/second.seq1";
      ASSERT_TRUE(SaveSequence(*store, first).ok());
      auto loaded = LoadSequence(first);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ((*loaded)->span(), store->span());
      EXPECT_EQ((*loaded)->records_per_page(), rpp);
      EXPECT_EQ((*loaded)->costs().clustered, clustered);
      ExpectSameRows((*loaded)->records(), ref.rows);
      ASSERT_TRUE(SaveSequence(**loaded, second).ok());
      EXPECT_TRUE(ReadBytes(first) == ReadBytes(second));
      const std::vector<ColumnStats>& a = store->column_stats();
      const std::vector<ColumnStats>& b = (*loaded)->column_stats();
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ToString(), b[i].ToString());
        EXPECT_EQ(a[i].bucket_counts, b[i].bucket_counts);
      }
      ExpectStatsMatchNaive(**loaded);
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace seq
