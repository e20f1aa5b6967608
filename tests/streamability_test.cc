// Tests for the Theorem 3.1 / Lemma 3.2 stream-access analysis, including
// the dynamic confirmation: queries the analyzer declares cache-finite
// must execute with bounded caches and a single scan.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "optimizer/streamability.h"
#include "workload/generators.h"

namespace seq {
namespace {

using Mode = StreamabilityReport::Mode;

Mode ModeOf(const StreamabilityReport& report, OpKind kind) {
  for (const auto& entry : report.operators) {
    if (entry.op->kind() == kind) return entry.mode;
  }
  ADD_FAILURE() << "no operator of kind " << OpKindName(kind);
  return Mode::kBlocked;
}

TEST(StreamabilityTest, Theorem31DirectCase) {
  // All sequential fixed scopes: select + trailing window.
  auto q = SeqRef("s")
               .Select(Gt(Col("v"), Lit(1.0)))
               .Agg(AggFunc::kSum, "v", 6)
               .Build();
  StreamabilityReport report = AnalyzeStreamability(*q);
  EXPECT_TRUE(report.stream_access);
  EXPECT_EQ(ModeOf(report, OpKind::kSelect), Mode::kDirect);
  EXPECT_EQ(ModeOf(report, OpKind::kWindowAgg), Mode::kDirect);
  EXPECT_EQ(report.total_cache_records, 6);  // the window, nothing else
}

TEST(StreamabilityTest, OffsetUsesEffectiveScope) {
  // The paper's §3.4 example: offset -5 has scope size 1 but needs an
  // effective scope of six.
  auto q = SeqRef("s").Offset(-5).Build();
  StreamabilityReport report = AnalyzeStreamability(*q);
  EXPECT_TRUE(report.stream_access);
  EXPECT_EQ(ModeOf(report, OpKind::kPositionalOffset), Mode::kEffective);
  EXPECT_EQ(report.total_cache_records, 6);
}

TEST(StreamabilityTest, ValueOffsetIsIncremental) {
  auto q = SeqRef("s").Prev().Build();
  StreamabilityReport report = AnalyzeStreamability(*q);
  EXPECT_TRUE(report.stream_access);
  EXPECT_EQ(ModeOf(report, OpKind::kValueOffset), Mode::kIncremental);
  EXPECT_EQ(report.total_cache_records, 1);
}

TEST(StreamabilityTest, MotivatingExampleIsCacheFinite) {
  // Fig. 1: volcanos ∘ prev(quakes) σ — the paper's "single scan, very
  // little memory": one cached quake + the merge's two pending records.
  auto q = SeqRef("volcanos")
               .ComposeWith(SeqRef("quakes").Prev())
               .Select(Gt(Col("strength"), Lit(7.0)))
               .Build();
  StreamabilityReport report = AnalyzeStreamability(*q);
  EXPECT_TRUE(report.stream_access);
  EXPECT_EQ(report.total_cache_records, 3);
}

TEST(StreamabilityTest, CacheBoundsSumOverOperators) {
  auto q = SeqRef("s")
               .Agg(AggFunc::kMin, "v", 4)
               .Offset(-2)
               .ValueOffset(-3)
               .Build();
  StreamabilityReport report = AnalyzeStreamability(*q);
  EXPECT_TRUE(report.stream_access);
  // window 4 + effective offset 3 + incremental 3.
  EXPECT_EQ(report.total_cache_records, 10);
  EXPECT_NE(report.ToString().find("stream-access evaluation: YES"),
            std::string::npos);
}

// Dynamic confirmation: the analyzer's cache bound is respected by the
// executed plan — cache stores grow with input size, but the *live* cache
// (stores − evictions) is bounded; we verify via the single-scan property
// and the absence of probes, and by checking stores ≈ input records (each
// record cached at most once per caching operator).
TEST(StreamabilityTest, DynamicSingleScanMatchesAnalysis) {
  Engine engine;
  IntSeriesOptions options;
  options.span = Span::Of(0, 9999);
  options.density = 0.5;
  options.seed = 77;
  ASSERT_TRUE(engine.RegisterBase("s", *MakeIntSeries(options)).ok());
  auto q = SeqRef("s")
               .Select(Gt(Col("value"), Lit(int64_t{100})))
               .Agg(AggFunc::kSum, "value", 8)
               .Build();
  StreamabilityReport report = AnalyzeStreamability(*q);
  ASSERT_TRUE(report.stream_access);

  AccessStats stats;
  auto result = engine.Run({q, Span::Of(0, 10010)}, {.stats = &stats});
  ASSERT_TRUE(result.ok());
  int64_t input_records = 5000;  // ~density x span
  EXPECT_EQ(stats.probes, 0);
  EXPECT_LE(stats.stream_records, input_records + 100);
  // One cache store per record entering the (single) caching operator.
  EXPECT_LE(stats.cache_stores, stats.stream_records);
}

}  // namespace
}  // namespace seq
