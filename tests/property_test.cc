// Property-based equivalence tests: random query graphs over random
// catalogs must return identical answers under every optimizer
// configuration — rewrites on/off, span pushdown on/off, caches ablated,
// and the probed root mode. Any unsound transformation, cost-driven
// strategy choice, or operator bug shows up as a result mismatch.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "tests/test_util.h"

namespace seq {
namespace {

using seq::testing::ExpectSameRecords;
using seq::testing::FillSmallCatalog;
using seq::testing::RandomGraph;

constexpr Span kSpan = Span::Of(0, 399);

class EquivalenceWebTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceWebTest, AllConfigurationsAgree) {
  uint64_t seed = GetParam();
  Rng rng(seed);

  struct Config {
    const char* name;
    OptimizerOptions options;
  };
  std::vector<Config> configs;
  configs.push_back({"baseline", {}});
  {
    OptimizerOptions o;
    o.enable_rewrites = false;
    configs.push_back({"no-rewrites", o});
  }
  {
    OptimizerOptions o;
    o.enable_span_pushdown = false;
    configs.push_back({"no-span-pushdown", o});
  }
  {
    OptimizerOptions o;
    o.cost_params.disable_window_cache = true;
    o.cost_params.disable_incremental_value_offset = true;
    configs.push_back({"no-caches", o});
  }
  {
    OptimizerOptions o;
    o.force_root_mode = AccessMode::kProbed;
    configs.push_back({"probed-root", o});
  }
  {
    OptimizerOptions o;
    o.cost_params.force_join_strategy = 0;  // always lock-step
    configs.push_back({"forced-lockstep", o});
  }

  std::vector<Engine> engines;
  engines.reserve(configs.size());
  for (const Config& config : configs) {
    engines.emplace_back(config.options);
    FillSmallCatalog(&engines.back().catalog(), seed);
  }

  for (int trial = 0; trial < 8; ++trial) {
    LogicalOpPtr graph =
        RandomGraph(engines[0].catalog(), &rng, 1 + trial % 4);
    Span range = Span::Of(kSpan.start - 20, kSpan.end + 20);
    auto reference = engines[0].Run({graph, range});
    if (!reference.ok()) {
      // Degenerate random graphs must fail identically everywhere.
      for (size_t c = 1; c < engines.size(); ++c) {
        EXPECT_FALSE(engines[c].Run({graph, range}).ok()) << configs[c].name;
      }
      continue;
    }
    for (size_t c = 1; c < engines.size(); ++c) {
      auto other = engines[c].Run({graph, range});
      ASSERT_TRUE(other.ok())
          << configs[c].name << ": " << other.status() << "\n"
          << graph->ToTreeString();
      ExpectSameRecords(reference->records, other->records,
                        std::string(configs[c].name) + " trial " +
                            std::to_string(trial) + "\n" +
                            graph->ToTreeString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceWebTest,
                         ::testing::Range<uint64_t>(1, 13));

// Point queries must agree with filtering the range-query result.
class PointQueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PointQueryPropertyTest, PointsMatchRangeSubset) {
  uint64_t seed = GetParam();
  Rng rng(seed + 500);
  Engine engine;
  FillSmallCatalog(&engine.catalog(), seed + 500);
  for (int trial = 0; trial < 5; ++trial) {
    LogicalOpPtr graph = RandomGraph(engine.catalog(), &rng, 1 + trial % 3);
    auto full = engine.Run({graph, kSpan});
    if (!full.ok()) continue;
    std::vector<Position> positions;
    for (Position p = kSpan.start; p <= kSpan.end;
         p += rng.UniformInt(3, 40)) {
      positions.push_back(p);
    }
    auto points = engine.Run({.graph = graph, .positions = positions});
    ASSERT_TRUE(points.ok()) << points.status() << "\n"
                             << graph->ToTreeString();
    std::vector<PosRecord> expected;
    size_t pi = 0;
    for (const PosRecord& pr : full->records) {
      while (pi < positions.size() && positions[pi] < pr.pos) ++pi;
      if (pi < positions.size() && positions[pi] == pr.pos) {
        expected.push_back(pr);
      }
    }
    ExpectSameRecords(points->records, expected, graph->ToTreeString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointQueryPropertyTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace seq
