// Tests for the Expand ordering-domain operator (§5.1): semantics against
// hand-computed values and the reference oracle, span propagation, the
// collapse/expand round trip, and text round-trips.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "parser/parser.h"
#include "parser/unparse.h"
#include "tests/reference_eval.h"

namespace seq {
namespace {

BaseSequencePtr Weekly() {
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kDouble}});
  auto store = std::make_shared<BaseSequenceStore>(schema, 4);
  // Weeks 1..4, with week 3 missing.
  for (Position w : {1, 2, 4}) {
    EXPECT_TRUE(
        store->Append(w, Record{Value::Double(static_cast<double>(w) * 10)})
            .ok());
  }
  return store;
}

class ExpandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterBase("weekly", Weekly()).ok());
  }
  Engine engine_;
};

TEST_F(ExpandTest, ReplicatesEachBucket) {
  // Weekly viewed daily (factor 7): week w covers days [7w, 7w+6].
  auto result = engine_.Run({SeqRef("weekly").Expand(7).Build()});
  ASSERT_TRUE(result.ok()) << result.status();
  // Weeks 1,2,4 × 7 days each.
  ASSERT_EQ(result->records.size(), 21u);
  EXPECT_EQ(result->records.front().pos, 7);
  EXPECT_DOUBLE_EQ(result->records.front().rec[0].dbl(), 10.0);
  EXPECT_EQ(result->records[6].pos, 13);
  EXPECT_EQ(result->records[7].pos, 14);  // week 2 starts
  EXPECT_DOUBLE_EQ(result->records[7].rec[0].dbl(), 20.0);
  // Week 3 (days 21..27) is a gap.
  for (const PosRecord& pr : result->records) {
    EXPECT_FALSE(pr.pos >= 21 && pr.pos <= 27);
  }
  EXPECT_EQ(result->records.back().pos, 34);
}

TEST_F(ExpandTest, RangeRestrictsAndProbesWork) {
  auto graph = SeqRef("weekly").Expand(7).Build();
  auto window = engine_.Run({graph, Span::Of(10, 16)});
  ASSERT_TRUE(window.ok());
  ASSERT_EQ(window->records.size(), 7u);  // days 10..13 (w1), 14..16 (w2)
  EXPECT_EQ(window->records[0].pos, 10);

  auto points = engine_.Run({.graph = graph, .positions = {8, 22, 30}});
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->records.size(), 2u);  // day 22 is in the week-3 gap
  EXPECT_DOUBLE_EQ(points->records[0].rec[0].dbl(), 10.0);
  EXPECT_DOUBLE_EQ(points->records[1].rec[0].dbl(), 40.0);
}

TEST_F(ExpandTest, MatchesReferenceOracle) {
  testing::ReferenceEvaluator reference(&engine_.catalog(),
                                        Span::Of(-10, 100));
  for (int64_t factor : {1, 2, 7}) {
    auto graph = SeqRef("weekly").Expand(factor).Build();
    auto engine_result = engine_.Run({graph, Span::Of(0, 50)});
    ASSERT_TRUE(engine_result.ok()) << engine_result.status();
    auto oracle = reference.Materialize(*graph, Span::Of(0, 50));
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(engine_result->records.size(), oracle->size())
        << "factor " << factor;
    for (size_t i = 0; i < oracle->size(); ++i) {
      EXPECT_EQ(engine_result->records[i].pos, (*oracle)[i].pos);
      EXPECT_EQ(engine_result->records[i].rec, (*oracle)[i].rec);
    }
  }
}

TEST_F(ExpandTest, CollapseOfExpandIsIdentityForIdempotentAggs) {
  // expand(7) then collapse(7, max) returns the original weekly values.
  auto graph = SeqRef("weekly")
                   .Expand(7)
                   .Collapse(7, AggFunc::kMax, "v", "v")
                   .Build();
  auto result = engine_.Run({graph});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_EQ(result->records[0].pos, 1);
  EXPECT_DOUBLE_EQ(result->records[0].rec[0].dbl(), 10.0);
  EXPECT_EQ(result->records[2].pos, 4);
  EXPECT_DOUBLE_EQ(result->records[2].rec[0].dbl(), 40.0);
}

TEST_F(ExpandTest, ComposableWithDailySequences) {
  // A daily sequence joined against the expanded weekly baseline.
  SchemaPtr schema = Schema::Make({Field{"d", TypeId::kDouble}});
  auto daily = std::make_shared<BaseSequenceStore>(schema, 8);
  for (Position p = 7; p <= 20; ++p) {
    ASSERT_TRUE(
        daily->Append(p, Record{Value::Double(static_cast<double>(p))}).ok());
  }
  ASSERT_TRUE(engine_.RegisterBase("daily", daily).ok());
  auto graph = SeqRef("daily")
                   .ComposeWith(SeqRef("weekly").Expand(7),
                                Gt(Col("d", 0), Col("v", 1)))
                   .Build();
  auto result = engine_.Run({graph});
  ASSERT_TRUE(result.ok()) << result.status();
  // Days 11..13 (week 1: d > 10), none in week 2 until d > 20.
  ASSERT_FALSE(result->records.empty());
  EXPECT_EQ(result->records[0].pos, 11);
}

TEST_F(ExpandTest, SpanAnnotation) {
  Query q;
  q.graph = SeqRef("weekly").Expand(7).Build();
  Optimizer optimizer(engine_.catalog());
  auto plan = optimizer.Optimize(q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Weekly span [1,4] expands to days [7, 34].
  EXPECT_EQ(optimizer.optimized_graph()->meta().span, Span::Of(7, 34));
}

TEST_F(ExpandTest, ParseAndUnparse) {
  auto parsed = ParseSequinQuery("d = expand(weekly, 7);");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((*parsed)->kind(), OpKind::kExpand);
  EXPECT_EQ((*parsed)->expand_factor(), 7);
  auto text = UnparseQuery(**parsed, "d");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "d = expand(weekly, 7);");
  EXPECT_FALSE(ParseSequinQuery("d = expand(weekly, 0);").ok());
}

}  // namespace
}  // namespace seq
