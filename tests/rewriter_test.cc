// Tests for the §3.1 equivalence transformations: each rule fires where
// legal, the paper's illegal transformations are refused, and rewritten
// queries return identical results.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "optimizer/annotate.h"
#include "optimizer/rewriter.h"
#include "workload/generators.h"

namespace seq {
namespace {

class RewriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IntSeriesOptions a;
    a.span = Span::Of(0, 199);
    a.density = 0.8;
    a.seed = 1;
    ASSERT_TRUE(engine_.RegisterBase("a", *MakeIntSeries(a)).ok());
    IntSeriesOptions b = a;
    b.seed = 2;
    b.density = 0.6;
    b.column = "w";
    ASSERT_TRUE(engine_.RegisterBase("b", *MakeIntSeries(b)).ok());
  }

  // Annotates and rewrites a clone; returns the rewritten root.
  LogicalOpPtr Rewrite(const LogicalOpPtr& graph,
                       std::vector<std::string>* applied = nullptr) {
    LogicalOpPtr clone = graph->Clone();
    Annotator annotator(engine_.catalog(), CostParams{});
    EXPECT_TRUE(annotator.AnnotateBottomUp(clone.get()).ok());
    Rewriter rewriter;
    EXPECT_TRUE(rewriter.Rewrite(&clone).ok());
    if (applied != nullptr) *applied = rewriter.applied();
    return clone;
  }

  // Runs a query with rewrites on and off; expects identical results.
  void ExpectRewriteEquivalence(const LogicalOpPtr& graph, Span range) {
    Engine with = MakeEngine(true);
    Engine without = MakeEngine(false);
    auto r1 = with.Run({graph, range});
    auto r2 = without.Run({graph, range});
    ASSERT_TRUE(r1.ok()) << r1.status();
    ASSERT_TRUE(r2.ok()) << r2.status();
    ASSERT_EQ(r1->records.size(), r2->records.size());
    for (size_t i = 0; i < r1->records.size(); ++i) {
      EXPECT_EQ(r1->records[i].pos, r2->records[i].pos);
      EXPECT_EQ(r1->records[i].rec, r2->records[i].rec);
    }
  }

  Engine MakeEngine(bool rewrites) {
    OptimizerOptions options;
    options.enable_rewrites = rewrites;
    Engine engine(options);
    IntSeriesOptions a;
    a.span = Span::Of(0, 199);
    a.density = 0.8;
    a.seed = 1;
    EXPECT_TRUE(engine.RegisterBase("a", *MakeIntSeries(a)).ok());
    IntSeriesOptions b = a;
    b.seed = 2;
    b.density = 0.6;
    b.column = "w";
    EXPECT_TRUE(engine.RegisterBase("b", *MakeIntSeries(b)).ok());
    return engine;
  }

  static bool Applied(const std::vector<std::string>& log,
                      const std::string& rule) {
    return std::find(log.begin(), log.end(), rule) != log.end();
  }

  Engine engine_;
};

TEST_F(RewriterTest, MergesSuccessiveSelects) {
  auto q = SeqRef("a")
               .Select(Gt(Col("value"), Lit(int64_t{10})))
               .Select(Lt(Col("value"), Lit(int64_t{900})))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "merge-selects"));
  EXPECT_EQ(out->kind(), OpKind::kSelect);
  EXPECT_EQ(out->input()->kind(), OpKind::kBaseRef);
  ExpectRewriteEquivalence(q, Span::Of(0, 199));
}

TEST_F(RewriterTest, MergesSuccessiveProjects) {
  auto q = SeqRef("a")
               .Project({"value"}, {"v1"})
               .Project({"v1"}, {"v2"})
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "merge-projects"));
  EXPECT_EQ(out->kind(), OpKind::kProject);
  EXPECT_EQ(out->input()->kind(), OpKind::kBaseRef);
  EXPECT_EQ(out->columns()[0], "value");
  EXPECT_EQ(out->renames()[0], "v2");
  ExpectRewriteEquivalence(q, Span::Of(0, 199));
}

TEST_F(RewriterTest, PushesSelectThroughProject) {
  auto q = SeqRef("a")
               .Project({"value"}, {"v"})
               .Select(Gt(Col("v"), Lit(int64_t{100})))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "select-through-project"));
  // Project on top, select below referencing the source column name.
  EXPECT_EQ(out->kind(), OpKind::kProject);
  ASSERT_EQ(out->input()->kind(), OpKind::kSelect);
  EXPECT_EQ(out->input()->predicate()->ToString(), "(value > 100)");
  ExpectRewriteEquivalence(q, Span::Of(0, 199));
}

TEST_F(RewriterTest, PushesSelectThroughOffset) {
  auto q = SeqRef("a")
               .Offset(5)
               .Select(Gt(Col("value"), Lit(int64_t{100})))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "select-through-offset"));
  EXPECT_EQ(out->kind(), OpKind::kPositionalOffset);
  EXPECT_EQ(out->input()->kind(), OpKind::kSelect);
  ExpectRewriteEquivalence(q, Span::Of(-50, 250));
}

TEST_F(RewriterTest, PositionPredicateStaysAboveOffset) {
  auto q = SeqRef("a")
               .Offset(5)
               .Select(Gt(Expr::Position(), Lit(int64_t{50})))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_FALSE(Applied(log, "select-through-offset"));
  EXPECT_EQ(out->kind(), OpKind::kSelect);
  ExpectRewriteEquivalence(q, Span::Of(-50, 250));
}

TEST_F(RewriterTest, RoutesSelectConjunctsIntoCompose) {
  auto q = SeqRef("a")
               .ComposeWith(SeqRef("b"))
               .Select(And(Gt(Col("value"), Lit(int64_t{10})),
                           Lt(Col("w"), Lit(int64_t{900}))))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "select-into-compose"));
  ASSERT_EQ(out->kind(), OpKind::kCompose);
  // Each side received its own conjunct as a selection.
  EXPECT_EQ(out->input(0)->kind(), OpKind::kSelect);
  EXPECT_EQ(out->input(1)->kind(), OpKind::kSelect);
  ExpectRewriteEquivalence(q, Span::Of(0, 199));
}

TEST_F(RewriterTest, MixedConjunctBecomesJoinPredicate) {
  auto q = SeqRef("a")
               .ComposeWith(SeqRef("b"))
               .Select(Gt(Col("value"), Col("w")))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "select-into-compose"));
  ASSERT_EQ(out->kind(), OpKind::kCompose);
  ASSERT_NE(out->predicate(), nullptr);
  // The predicate references both sides now.
  std::vector<std::pair<int, std::string>> cols;
  out->predicate()->CollectColumns(&cols);
  bool has_left = false, has_right = false;
  for (const auto& [side, name] : cols) {
    (side == 0 ? has_left : has_right) = true;
  }
  EXPECT_TRUE(has_left);
  EXPECT_TRUE(has_right);
  ExpectRewriteEquivalence(q, Span::Of(0, 199));
}

TEST_F(RewriterTest, SelectRoutingHandlesClashedNames) {
  // Both inputs have a column "value" (b registered under column name "w",
  // so build a self-join of a with a): concat renames the right one to
  // value_r; a predicate on value_r must land on the right input.
  auto q = SeqRef("a")
               .ComposeWith(SeqRef("a"))
               .Select(Gt(Col("value_r"), Lit(int64_t{500})))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "select-into-compose"));
  ASSERT_EQ(out->kind(), OpKind::kCompose);
  EXPECT_EQ(out->input(0)->kind(), OpKind::kBaseRef);  // left untouched
  ASSERT_EQ(out->input(1)->kind(), OpKind::kSelect);
  EXPECT_EQ(out->input(1)->predicate()->ToString(), "(value > 500)");
  ExpectRewriteEquivalence(q, Span::Of(0, 199));
}

TEST_F(RewriterTest, SelectNotPushedThroughAggregate) {
  // §3.1: "a selection cannot be pushed through an aggregate operator".
  auto q = SeqRef("a")
               .Agg(AggFunc::kSum, "value", 3)
               .Select(Gt(Col("sum_value"), Lit(int64_t{100})))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_EQ(out->kind(), OpKind::kSelect);
  EXPECT_EQ(out->input()->kind(), OpKind::kWindowAgg);
}

TEST_F(RewriterTest, SelectNotPushedThroughValueOffset) {
  // §3.1: "... or a value offset operator".
  auto q = SeqRef("a")
               .Prev()
               .Select(Gt(Col("value"), Lit(int64_t{100})))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_EQ(out->kind(), OpKind::kSelect);
  EXPECT_EQ(out->input()->kind(), OpKind::kValueOffset);
}

TEST_F(RewriterTest, MergesAdjacentOffsets) {
  auto q = SeqRef("a").Offset(3).Offset(-7).Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "merge-offsets"));
  EXPECT_EQ(out->kind(), OpKind::kPositionalOffset);
  EXPECT_EQ(out->offset(), -4);
  EXPECT_EQ(out->input()->kind(), OpKind::kBaseRef);
  ExpectRewriteEquivalence(q, Span::Of(-50, 250));
}

TEST_F(RewriterTest, DropsZeroOffset) {
  auto q = SeqRef("a").Offset(0).Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "drop-zero-offset"));
  EXPECT_EQ(out->kind(), OpKind::kBaseRef);
}

TEST_F(RewriterTest, OffsetAboveSelectIsAlreadyNormalForm) {
  // Selections sit below positional offsets in the normal form; this tree
  // is already there, so no rule fires and the shape is stable.
  auto q = SeqRef("a")
               .Select(Gt(Col("value"), Lit(int64_t{100})))
               .Offset(4)
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_EQ(out->kind(), OpKind::kPositionalOffset);
  EXPECT_EQ(out->input()->kind(), OpKind::kSelect);
  ExpectRewriteEquivalence(q, Span::Of(-50, 250));
}

TEST_F(RewriterTest, OffsetDistributesOverCompose) {
  // §3.1: "a positional offset can be pushed through any operator of
  // relative scope" — compose included.
  auto q = SeqRef("a").ComposeWith(SeqRef("b")).Offset(-3).Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "offset-through-compose"));
  ASSERT_EQ(out->kind(), OpKind::kCompose);
  EXPECT_EQ(out->input(0)->kind(), OpKind::kPositionalOffset);
  EXPECT_EQ(out->input(1)->kind(), OpKind::kPositionalOffset);
  ExpectRewriteEquivalence(q, Span::Of(-50, 250));
}

TEST_F(RewriterTest, OffsetSinksThroughTrailingAggregate) {
  auto q = SeqRef("a").Agg(AggFunc::kSum, "value", 3).Offset(2).Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "offset-through-trailing-agg"));
  EXPECT_EQ(out->kind(), OpKind::kWindowAgg);
  EXPECT_EQ(out->input()->kind(), OpKind::kPositionalOffset);
  ExpectRewriteEquivalence(q, Span::Of(-50, 250));
}

TEST_F(RewriterTest, OffsetNotPushedThroughValueOffset) {
  // Value offsets have non-relative scope; the offset stays above.
  auto q = SeqRef("a").Prev().Offset(2).Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_EQ(out->kind(), OpKind::kPositionalOffset);
  EXPECT_EQ(out->input()->kind(), OpKind::kValueOffset);
}

TEST_F(RewriterTest, OffsetNotPushedThroughRunningAggregate) {
  auto q = SeqRef("a").RunningAgg(AggFunc::kSum, "value").Offset(2).Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_EQ(out->kind(), OpKind::kPositionalOffset);
  EXPECT_EQ(out->input()->kind(), OpKind::kWindowAgg);
}

TEST_F(RewriterTest, DropsIdentityProject) {
  auto q = SeqRef("a").Project({"value"}).Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  EXPECT_TRUE(Applied(log, "drop-identity-project"));
  EXPECT_EQ(out->kind(), OpKind::kBaseRef);
}

TEST_F(RewriterTest, DeepChainReachesFixpoint) {
  // Select over project over offset over compose: everything sinks.
  auto q = SeqRef("a")
               .ComposeWith(SeqRef("b"))
               .Offset(2)
               .Project({"value", "w"})
               .Select(Gt(Col("value"), Lit(int64_t{100})))
               .Build();
  std::vector<std::string> log;
  LogicalOpPtr out = Rewrite(q, &log);
  // Top of tree should be compose (or project above compose) after rules.
  EXPECT_NE(out->kind(), OpKind::kSelect);
  ExpectRewriteEquivalence(q, Span::Of(-50, 250));
}

}  // namespace
}  // namespace seq
