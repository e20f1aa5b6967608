// Tests for the composite-event pattern compiler: hand-checked scenarios
// plus a brute-force matcher oracle over random event streams.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "pattern/pattern.h"

namespace seq {
namespace {

SchemaPtr EventSchema() {
  return Schema::Make({Field{"kind", TypeId::kString}});
}

BaseSequencePtr Events(
    std::initializer_list<std::pair<Position, const char*>> events) {
  auto store = std::make_shared<BaseSequenceStore>(EventSchema(), 8);
  for (auto [pos, kind] : events) {
    EXPECT_TRUE(store->Append(pos, Record{Value::String(kind)}).ok());
  }
  return store;
}

ExprPtr Kind(const char* k) { return Eq(Col("kind"), Lit(k)); }

std::vector<Position> MatchPositions(Engine* engine, const Pattern& pattern,
                                     Span range) {
  auto graph = pattern.Compile(engine->catalog(), "events");
  EXPECT_TRUE(graph.ok()) << graph.status();
  auto result = engine->Run({*graph, range});
  EXPECT_TRUE(result.ok()) << result.status();
  std::vector<Position> out;
  for (const PosRecord& pr : result->records) out.push_back(pr.pos);
  return out;
}

TEST(PatternTest, SingleStepIsSelection) {
  Engine engine;
  ASSERT_TRUE(engine
                  .RegisterBase("events", Events({{1, "a"},
                                                  {2, "b"},
                                                  {5, "a"}}))
                  .ok());
  Pattern p = Pattern::Start(Kind("a"));
  EXPECT_EQ(MatchPositions(&engine, p, Span::Of(1, 10)),
            (std::vector<Position>{1, 5}));
}

TEST(PatternTest, TwoStepWithinGap) {
  Engine engine;
  // a@1, b@3 (gap 2 after a), b@10 (too far), a@12, b@13.
  ASSERT_TRUE(engine
                  .RegisterBase("events", Events({{1, "a"},
                                                  {3, "b"},
                                                  {10, "b"},
                                                  {12, "a"},
                                                  {13, "b"}}))
                  .ok());
  Pattern p = Pattern::Start(Kind("a")).Then(Kind("b"), 3);
  EXPECT_EQ(MatchPositions(&engine, p, Span::Of(1, 20)),
            (std::vector<Position>{3, 13}));
}

TEST(PatternTest, GapIsStrictlyAfter) {
  Engine engine;
  // a and b at the same position do NOT chain (step requires j < i).
  ASSERT_TRUE(
      engine.RegisterBase("events", Events({{5, "a"}, {6, "b"}})).ok());
  Pattern same = Pattern::Start(Kind("a")).Then(Kind("a"), 5);
  EXPECT_TRUE(MatchPositions(&engine, same, Span::Of(1, 10)).empty());
  Pattern p = Pattern::Start(Kind("a")).Then(Kind("b"), 1);
  EXPECT_EQ(MatchPositions(&engine, p, Span::Of(1, 10)),
            (std::vector<Position>{6}));
}

TEST(PatternTest, ThreeStepFraudShape) {
  Engine engine;
  // Two failed logins within 10 of each other, then a transfer within 100.
  ASSERT_TRUE(engine
                  .RegisterBase(
                      "events",
                      Events({{1, "login_fail"},
                              {5, "login_fail"},      // chains with @1
                              {50, "transfer"},        // within 100 of @5
                              {300, "login_fail"},
                              {400, "transfer"}}))     // no 2nd fail near 300
                  .ok());
  Pattern p = Pattern::Start(Kind("login_fail"))
                  .Then(Kind("login_fail"), 10)
                  .Then(Kind("transfer"), 100);
  EXPECT_EQ(MatchPositions(&engine, p, Span::Of(1, 500)),
            (std::vector<Position>{50}));
}

TEST(PatternTest, Errors) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterBase("events", Events({{1, "a"}})).ok());
  Pattern bad_gap = Pattern::Start(Kind("a")).Then(Kind("b"), 0);
  EXPECT_FALSE(bad_gap.Compile(engine.catalog(), "events").ok());
  Pattern p = Pattern::Start(Kind("a"));
  EXPECT_FALSE(p.Compile(engine.catalog(), "ghost").ok());
}

// Brute-force oracle: dynamic-programming match over the raw event list.
std::vector<Position> BruteForce(
    const std::vector<std::pair<Position, std::string>>& events,
    const std::vector<std::pair<std::string, int64_t>>& steps) {
  // match[k] = positions where step k matched.
  std::vector<std::vector<Position>> match(steps.size());
  for (const auto& [pos, kind] : events) {
    if (kind == steps[0].first) match[0].push_back(pos);
  }
  for (size_t k = 1; k < steps.size(); ++k) {
    for (const auto& [pos, kind] : events) {
      if (kind != steps[k].first) continue;
      for (Position j : match[k - 1]) {
        if (j < pos && j >= pos - steps[k].second) {
          match[k].push_back(pos);
          break;
        }
      }
    }
  }
  return match.back();
}

class PatternOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PatternOracleTest, CompiledPatternMatchesBruteForce) {
  Rng rng(GetParam());
  const char* kinds[] = {"a", "b", "c"};
  std::vector<std::pair<Position, std::string>> events;
  Position p = 0;
  for (int i = 0; i < 120; ++i) {
    p += rng.UniformInt(1, 6);
    events.emplace_back(p, kinds[rng.UniformInt(0, 2)]);
  }
  Engine engine;
  auto store = std::make_shared<BaseSequenceStore>(EventSchema(), 16);
  for (const auto& [pos, kind] : events) {
    ASSERT_TRUE(store->Append(pos, Record{Value::String(kind)}).ok());
  }
  ASSERT_TRUE(engine.RegisterBase("events", store).ok());

  for (int trial = 0; trial < 4; ++trial) {
    int64_t g1 = rng.UniformInt(1, 12);
    int64_t g2 = rng.UniformInt(1, 12);
    Pattern pattern = Pattern::Start(Kind("a"))
                          .Then(Kind("b"), g1)
                          .Then(Kind("c"), g2);
    std::vector<Position> got =
        MatchPositions(&engine, pattern, Span::Of(0, p + 20));
    std::vector<Position> want =
        BruteForce(events, {{"a", 0}, {"b", g1}, {"c", g2}});
    EXPECT_EQ(got, want) << "g1=" << g1 << " g2=" << g2;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternOracleTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace seq
