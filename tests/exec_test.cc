// Operator-level execution tests: direct tests of the physical operators
// through stub inputs, plus cached-vs-naive strategy equivalence and
// access-counting assertions (§3.3–3.5).

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/engine.h"
#include "exec/agg_ops.h"
#include "exec/compose_ops.h"
#include "exec/offset_ops.h"
#include "exec/scan_ops.h"
#include "workload/generators.h"

namespace seq {
namespace {

/// Stub stream yielding a fixed vector of records.
class VectorStream : public StreamOp {
 public:
  explicit VectorStream(std::vector<PosRecord> records)
      : records_(std::move(records)) {}
  Status Open(ExecContext*) override {
    index_ = 0;
    return Status::OK();
  }
  std::optional<PosRecord> Next() override {
    if (index_ >= records_.size()) return std::nullopt;
    return records_[index_++];
  }

 private:
  std::vector<PosRecord> records_;
  size_t index_ = 0;
};

/// Stub probe over the same data, counting probes.
class VectorProbe : public ProbeOp {
 public:
  explicit VectorProbe(std::vector<PosRecord> records) {
    for (PosRecord& pr : records) map_.emplace(pr.pos, std::move(pr.rec));
  }
  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    return Status::OK();
  }
  std::optional<Record> Probe(Position p) override {
    if (ctx_ != nullptr && ctx_->stats != nullptr) ++ctx_->stats->probes;
    auto it = map_.find(p);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::map<Position, Record> map_;
  ExecContext* ctx_ = nullptr;
};

std::vector<PosRecord> Ints(std::initializer_list<std::pair<Position, int>> v) {
  std::vector<PosRecord> out;
  for (auto [p, x] : v) out.push_back({p, Record{Value::Int64(x)}});
  return out;
}

std::vector<PosRecord> Drain(StreamOp* op, ExecContext* ctx) {
  EXPECT_TRUE(op->Open(ctx).ok());
  std::vector<PosRecord> out;
  while (auto r = op->Next()) out.push_back(std::move(*r));
  return out;
}

// --- ValueOffsetOp (Cache-Strategy-B) --------------------------------------

TEST(ValueOffsetOpTest, PreviousEmitsDensely) {
  AccessStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  ValueOffsetOp op(
      std::make_unique<VectorStream>(Ints({{2, 20}, {5, 50}, {6, 60}})), -1,
      Span::Of(0, 8));
  auto out = Drain(&op, &ctx);
  // Defined at 3..8 (first input at 2).
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].pos, 3);
  EXPECT_EQ(out[0].rec[0].int64(), 20);
  EXPECT_EQ(out[2].pos, 5);
  EXPECT_EQ(out[2].rec[0].int64(), 20);  // strictly before 5
  EXPECT_EQ(out[3].rec[0].int64(), 50);
  EXPECT_EQ(out[5].rec[0].int64(), 60);
  // Cache-finite: exactly one store per input record.
  EXPECT_EQ(stats.cache_stores, 3);
}

TEST(ValueOffsetOpTest, SecondPrevious) {
  ExecContext ctx;
  AccessStats stats;
  ctx.stats = &stats;
  ValueOffsetOp op(
      std::make_unique<VectorStream>(Ints({{1, 10}, {3, 30}, {7, 70}})), -2,
      Span::Of(0, 9));
  auto out = Drain(&op, &ctx);
  // Needs 2 records strictly before p: defined from 4 on (records 1,3).
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].pos, 4);
  EXPECT_EQ(out[0].rec[0].int64(), 10);
  EXPECT_EQ(out.back().pos, 9);
  EXPECT_EQ(out.back().rec[0].int64(), 30);
}

TEST(ValueOffsetOpTest, NextLooksAheadWithBuffer) {
  ExecContext ctx;
  AccessStats stats;
  ctx.stats = &stats;
  ValueOffsetOp op(
      std::make_unique<VectorStream>(Ints({{2, 20}, {5, 50}, {9, 90}})), 1,
      Span::Of(0, 10));
  auto out = Drain(&op, &ctx);
  // Defined where a later record exists: 0..8.
  ASSERT_EQ(out.size(), 9u);
  EXPECT_EQ(out[0].pos, 0);
  EXPECT_EQ(out[0].rec[0].int64(), 20);
  EXPECT_EQ(out[2].pos, 2);
  EXPECT_EQ(out[2].rec[0].int64(), 50);  // strictly after 2
  EXPECT_EQ(out[8].pos, 8);
  EXPECT_EQ(out[8].rec[0].int64(), 90);
}

TEST(ValueOffsetOpTest, NextAtOrAfterJumps) {
  ExecContext ctx;
  AccessStats stats;
  ctx.stats = &stats;
  ValueOffsetOp op(
      std::make_unique<VectorStream>(Ints({{2, 20}, {500, 5000}})), -1,
      Span::Of(0, 1000));
  ASSERT_TRUE(op.Open(&ctx).ok());
  auto r = op.NextAtOrAfter(400);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pos, 400);
  EXPECT_EQ(r->rec[0].int64(), 20);
  r = op.NextAtOrAfter(900);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->rec[0].int64(), 5000);
}

// --- naive value offset equals incremental -------------------------------------

TEST(ValueOffsetEquivalenceTest, NaiveMatchesIncremental) {
  auto data = Ints({{1, 1}, {4, 4}, {5, 5}, {11, 11}, {12, 12}});
  for (int64_t l : {-1, -2, 1, 2}) {
    ExecContext ctx1, ctx2;
    AccessStats s1, s2;
    ctx1.stats = &s1;
    ctx2.stats = &s2;
    ValueOffsetOp incremental(std::make_unique<VectorStream>(data), l,
                                  Span::Of(0, 14));
    ValueOffsetNaiveOp naive(std::make_unique<VectorProbe>(data), l,
                                 Span::Of(0, 14), Span::Of(1, 12));
    auto a = Drain(&incremental, &ctx1);
    auto b = Drain(&naive, &ctx2);
    ASSERT_EQ(a.size(), b.size()) << "l=" << l;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].pos, b[i].pos) << "l=" << l;
      EXPECT_EQ(a[i].rec, b[i].rec) << "l=" << l;
    }
    // The whole point of Cache-Strategy-B: no probes at all.
    EXPECT_EQ(s1.probes, 0);
    EXPECT_GT(s2.probes, 0);
  }
}

// --- window aggregates -----------------------------------------------------------

TEST(WindowAggTest, CachedStreamTouchesEachInputOnce) {
  auto data = Ints({{1, 10}, {2, 20}, {3, 30}, {7, 70}, {8, 80}});
  ExecContext ctx;
  AccessStats stats;
  ctx.stats = &stats;
  WindowAggCachedOp op(std::make_unique<VectorStream>(data),
                           AggFunc::kSum, 0, TypeId::kInt64, 3,
                           Span::Of(1, 10));
  auto out = Drain(&op, &ctx);
  std::map<Position, int64_t> got;
  for (auto& pr : out) got[pr.pos] = pr.rec[0].int64();
  EXPECT_EQ(got[1], 10);
  EXPECT_EQ(got[3], 60);
  EXPECT_EQ(got[5], 30);     // window {3}
  EXPECT_EQ(got.count(6), 0u);  // window empty
  EXPECT_EQ(got[7], 70);
  EXPECT_EQ(got[9], 150);
  EXPECT_EQ(got[10], 80);
  EXPECT_EQ(stats.cache_stores, 5);  // one per input record
  EXPECT_EQ(stats.probes, 0);
}

TEST(WindowAggTest, NaiveProbeMatchesCached) {
  auto data = Ints({{1, 3}, {2, 5}, {4, 7}, {5, 1}, {9, 9}});
  for (AggFunc func : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kCount}) {
    ExecContext ctx1, ctx2;
    AccessStats s1, s2;
    ctx1.stats = &s1;
    ctx2.stats = &s2;
    WindowAggCachedOp cached(std::make_unique<VectorStream>(data), func,
                                 0, TypeId::kInt64, 4, Span::Of(0, 12));
    WindowAggNaiveOp naive(std::make_unique<VectorProbe>(data), func, 0,
                               TypeId::kInt64, 4, Span::Of(0, 12));
    auto a = Drain(&cached, &ctx1);
    auto b = Drain(&naive, &ctx2);
    ASSERT_EQ(a.size(), b.size()) << AggFuncName(func);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].pos, b[i].pos);
      ASSERT_EQ(a[i].rec.size(), 1u);
      EXPECT_EQ(a[i].rec[0].Compare(b[i].rec[0]), 0)
          << AggFuncName(func) << " at " << a[i].pos;
    }
    // Naive re-probes the window: W probes per position in range.
    EXPECT_EQ(s2.probes, 13 * 4);
    EXPECT_EQ(s1.probes, 0);
  }
}

TEST(WindowAggTest, MinMaxUseMonotonicQueues) {
  // A descending then ascending series stresses eviction of stale extrema.
  auto data = Ints({{1, 9}, {2, 7}, {3, 5}, {4, 3}, {5, 6}, {6, 8}});
  ExecContext ctx;
  AccessStats stats;
  ctx.stats = &stats;
  WindowAggCachedOp op(std::make_unique<VectorStream>(data),
                           AggFunc::kMax, 0, TypeId::kInt64, 2,
                           Span::Of(1, 6));
  auto out = Drain(&op, &ctx);
  std::vector<int64_t> maxima;
  for (auto& pr : out) maxima.push_back(pr.rec[0].int64());
  EXPECT_EQ(maxima, (std::vector<int64_t>{9, 9, 7, 5, 6, 8}));
}

// --- compose operators ------------------------------------------------------------

TEST(ComposeTest, LockstepSkipsThroughDenseSide) {
  // Driver side has 2 records; the dense side is a ValueOffsetOp that
  // would emit at every position; lock-step with NextAtOrAfter must not
  // enumerate them all.
  auto sparse = Ints({{100, 1}, {900, 2}});
  auto base = Ints({{1, 10}, {500, 50}});
  ExecContext ctx;
  AccessStats stats;
  ctx.stats = &stats;
  auto dense = std::make_unique<ValueOffsetOp>(
      std::make_unique<VectorStream>(base), -1, Span::Of(0, 1000));
  SchemaPtr out_schema = Schema::Make(
      {Field{"a", TypeId::kInt64}, Field{"b", TypeId::kInt64}});
  ComposeLockstepOp op(std::make_unique<VectorStream>(sparse),
                           std::move(dense), nullptr, out_schema);
  auto out = Drain(&op, &ctx);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].pos, 100);
  EXPECT_EQ(out[0].rec[1].int64(), 10);
  EXPECT_EQ(out[1].pos, 900);
  EXPECT_EQ(out[1].rec[1].int64(), 50);
  // The dense side serves O(1) positions per join step from its cache —
  // not one per position of the 1000-wide span.
  EXPECT_LE(stats.cache_hits, 6);
}

TEST(ComposeTest, StreamProbePreservesFieldOrder) {
  auto left = Ints({{1, 10}, {2, 20}});
  auto right = Ints({{2, 200}, {3, 300}});
  SchemaPtr out_schema = Schema::Make(
      {Field{"l", TypeId::kInt64}, Field{"r", TypeId::kInt64}});
  ExecContext ctx;
  AccessStats stats;
  ctx.stats = &stats;
  // Driver is the RIGHT side; output order must still be left-then-right.
  ComposeStreamProbeOp op(std::make_unique<VectorStream>(right),
                        std::make_unique<VectorProbe>(left),
                        /*driver_is_left=*/false, nullptr, out_schema);
  auto out = Drain(&op, &ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].pos, 2);
  EXPECT_EQ(out[0].rec[0].int64(), 20);   // left value first
  EXPECT_EQ(out[0].rec[1].int64(), 200);  // right value second
  EXPECT_EQ(stats.probes, 2);             // one probe per driver record
}

TEST(ComposeTest, ProbeBothShortCircuits) {
  auto left = Ints({{5, 1}});
  auto right = Ints({{5, 2}, {6, 3}});
  SchemaPtr out_schema = Schema::Make(
      {Field{"l", TypeId::kInt64}, Field{"r", TypeId::kInt64}});
  ExecContext ctx;
  AccessStats stats;
  ctx.stats = &stats;
  ComposeProbeBothOp op(std::make_unique<VectorProbe>(left),
                      std::make_unique<VectorProbe>(right),
                      /*probe_left_first=*/true, nullptr, out_schema);
  ASSERT_TRUE(op.Open(&ctx).ok());
  EXPECT_FALSE(op.Probe(6).has_value());
  EXPECT_EQ(stats.probes, 1);  // left miss short-circuits right
  auto hit = op.Probe(5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(stats.probes, 3);
}

// --- ablation equivalence through the whole engine -------------------------------

class AblationTest : public ::testing::Test {
 protected:
  static Engine MakeEngine(bool disable_cache_a, bool disable_cache_b) {
    OptimizerOptions options;
    options.cost_params.disable_window_cache = disable_cache_a;
    options.cost_params.disable_incremental_value_offset = disable_cache_b;
    Engine engine(options);
    StockSeriesOptions stock;
    stock.span = Span::Of(1, 500);
    stock.density = 0.6;
    stock.seed = 11;
    EXPECT_TRUE(engine.RegisterBase("s", *MakeStockSeries(stock)).ok());
    return engine;
  }

  static void ExpectSameResults(const QueryResult& a, const QueryResult& b) {
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
      EXPECT_EQ(a.records[i].pos, b.records[i].pos);
      ASSERT_EQ(a.records[i].rec.size(), b.records[i].rec.size());
      for (size_t j = 0; j < a.records[i].rec.size(); ++j) {
        const Value& va = a.records[i].rec[j];
        const Value& vb = b.records[i].rec[j];
        if (va.type() == TypeId::kDouble && vb.type() == TypeId::kDouble) {
          // Incremental accumulators (Cache-Strategy-A) and fresh per-window
          // sums differ by float rounding only.
          EXPECT_NEAR(va.dbl(), vb.dbl(), 1e-6 * (1.0 + std::abs(vb.dbl())));
        } else {
          EXPECT_EQ(va.Compare(vb), 0);
        }
      }
    }
  }
};

TEST_F(AblationTest, WindowCacheAblationPreservesResults) {
  Engine cached = MakeEngine(false, false);
  Engine naive = MakeEngine(true, false);
  auto q = SeqRef("s").Agg(AggFunc::kAvg, "close", 6).Build();
  AccessStats s1, s2;
  auto r1 = cached.Run({q, Span::Of(1, 505)}, {.stats = &s1});
  auto r2 = naive.Run({q, Span::Of(1, 505)}, {.stats = &s2});
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  ExpectSameResults(*r1, *r2);
  // Fig. 5.A claim: the cached plan reads each input once; naive probes
  // W per position.
  EXPECT_EQ(s1.probes, 0);
  EXPECT_GT(s2.probes, 6 * 400);
}

TEST_F(AblationTest, ValueOffsetAblationPreservesResults) {
  Engine cached = MakeEngine(false, false);
  Engine naive = MakeEngine(false, true);
  auto q = SeqRef("s").Prev().Build();
  AccessStats s1, s2;
  auto r1 = cached.Run({q, Span::Of(1, 500)}, {.stats = &s1});
  auto r2 = naive.Run({q, Span::Of(1, 500)}, {.stats = &s2});
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  ExpectSameResults(*r1, *r2);
  EXPECT_EQ(s1.probes, 0);
  EXPECT_GT(s2.probes, 0);
}

TEST_F(AblationTest, ForcedProbedRootPreservesResults) {
  OptimizerOptions stream_options;
  Engine engine = MakeEngine(false, false);
  auto q = SeqRef("s").Select(Gt(Col("close"), Lit(90.0))).Build();
  auto streamed = engine.Run({q, Span::Of(1, 500)});
  ASSERT_TRUE(streamed.ok());

  OptimizerOptions options;
  options.force_root_mode = AccessMode::kProbed;
  Engine probed_engine(options);
  StockSeriesOptions stock;
  stock.span = Span::Of(1, 500);
  stock.density = 0.6;
  stock.seed = 11;
  ASSERT_TRUE(probed_engine.RegisterBase("s", *MakeStockSeries(stock)).ok());
  AccessStats stats;
  auto probed = probed_engine.Run({q, Span::Of(1, 500)}, {.stats = &stats});
  ASSERT_TRUE(probed.ok()) << probed.status();
  ExpectSameResults(*streamed, *probed);
  EXPECT_GT(stats.probes, 0);
}

}  // namespace
}  // namespace seq
