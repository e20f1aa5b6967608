// Tests for the Engine facade extensions: views (§5.2 shared
// sub-expressions), materialization of derived sequences (§5.3), grouped
// queries (§5.1), explain output, and the unclustered access-path flag.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/views.h"
#include "workload/generators.h"

namespace seq {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IntSeriesOptions options;
    options.span = Span::Of(0, 199);
    options.density = 0.8;
    options.seed = 3;
    ASSERT_TRUE(engine_.RegisterBase("s", *MakeIntSeries(options)).ok());
  }
  Engine engine_;
};

// --- views -------------------------------------------------------------------

TEST_F(EngineTest, ViewInlinesIntoQueries) {
  ASSERT_TRUE(
      engine_
          .DefineView("high",
                      SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{500})))
                          .Build())
          .ok());
  auto via_view = engine_.Run({SeqRef("high").Build()});
  auto direct = engine_.Run(
      {SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{500}))).Build()});
  ASSERT_TRUE(via_view.ok()) << via_view.status();
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(via_view->records.size(), direct->records.size());
}

TEST_F(EngineTest, ViewUsedTwiceStaysATree) {
  ASSERT_TRUE(
      engine_
          .DefineView("avg3",
                      SeqRef("s").Agg(AggFunc::kAvg, "value", 3).Build())
          .ok());
  // Self-join of the view: the DAG-style reuse inlines to a tree.
  auto q = SeqRef("avg3")
               .ComposeWith(SeqRef("avg3").Offset(1),
                            Gt(Col("avg_value", 0), Col("avg_value", 1)))
               .Build();
  auto result = engine_.Run({q});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->records.size(), 0u);
}

TEST_F(EngineTest, ViewsComposeWithViews) {
  ASSERT_TRUE(engine_
                  .DefineView("a", SeqRef("s")
                                       .Select(Gt(Col("value"),
                                                  Lit(int64_t{200})))
                                       .Build())
                  .ok());
  ASSERT_TRUE(engine_
                  .DefineView("b",
                              SeqRef("a").Agg(AggFunc::kMax, "value", 5)
                                  .Build())
                  .ok());
  auto result = engine_.Run({SeqRef("b").Build()});
  ASSERT_TRUE(result.ok()) << result.status();
}

TEST_F(EngineTest, ViewErrors) {
  auto graph = SeqRef("s").Build();
  ASSERT_TRUE(engine_.DefineView("v", graph).ok());
  EXPECT_FALSE(engine_.DefineView("v", graph).ok());  // duplicate
  EXPECT_FALSE(engine_.DefineView("s", graph).ok());  // shadows catalog
  EXPECT_FALSE(engine_.DefineView("x", nullptr).ok());
}

TEST(ViewInlineTest, CycleDetection) {
  // A view referring to itself (constructed directly on the map).
  ViewMap views;
  views.emplace("loop", SeqRef("loop").Offset(1).Build());
  auto result = InlineViews(SeqRef("loop").Build(), views);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("cyclic"), std::string::npos);
}

// --- materialization (§5.3) ----------------------------------------------------

TEST_F(EngineTest, MaterializeRegistersDerivedSequence) {
  auto graph = SeqRef("s").Agg(AggFunc::kSum, "value", 4).Build();
  ASSERT_TRUE(engine_.Materialize("sums", graph).ok());
  auto entry = engine_.catalog().Lookup("sums");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->schema->field(0).name, "sum_value");
  EXPECT_GT((*entry)->store->num_records(), 0);

  // Querying the materialization equals querying the definition.
  auto from_view = engine_.Run({graph});
  auto from_base = engine_.Run({SeqRef("sums").Build()});
  ASSERT_TRUE(from_view.ok());
  ASSERT_TRUE(from_base.ok());
  ASSERT_EQ(from_view->records.size(), from_base->records.size());
  // And the materialization carries real column statistics.
  EXPECT_GT((*entry)->store->column_stats()[0].count, 0);
}

TEST_F(EngineTest, MaterializeRejectsNameClashes) {
  auto graph = SeqRef("s").Build();
  EXPECT_FALSE(engine_.Materialize("s", graph).ok());
  ASSERT_TRUE(engine_.DefineView("v", graph).ok());
  EXPECT_FALSE(engine_.Materialize("v", graph).ok());
}

// --- explain -----------------------------------------------------------------

TEST_F(EngineTest, ExplainShowsBothTreesAndRewrites) {
  Query q;
  q.graph = SeqRef("s")
                .ComposeWith(SeqRef("s").Offset(1))
                .Select(Gt(Col("value"), Lit(int64_t{10})))
                .Build();
  auto text = engine_.Explain(q);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("logical"), std::string::npos);
  EXPECT_NE(text->find("physical"), std::string::npos);
  EXPECT_NE(text->find("rewrites:"), std::string::npos);
  EXPECT_NE(text->find("Start"), std::string::npos);
}

// --- unclustered access path (§3.4 fn. 8) ---------------------------------------

TEST(UnclusteredTest, StreamChargesPerRecord) {
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kInt64}});
  AccessCosts costs;
  costs.clustered = false;
  BaseSequenceStore store(schema, 64, costs);
  for (Position p = 0; p < 100; ++p) {
    ASSERT_TRUE(store.Append(p, Record{Value::Int64(p)}).ok());
  }
  AccessStats stats;
  auto cursor = store.OpenStream(store.span(), &stats);
  while (cursor.Next()) {
  }
  EXPECT_EQ(stats.stream_pages, 100);  // one page per record
}

TEST(UnclusteredTest, OptimizerPrefersProbesOnUnclusteredStores) {
  // Sparse driver joined with a big unclustered sequence: probing the
  // unclustered side must win by more than for a clustered one.
  auto build = [&](bool clustered) {
    OptimizerOptions options;
    Engine engine(options);
    IntSeriesOptions sparse;
    sparse.span = Span::Of(0, 49999);
    sparse.density = 0.01;
    sparse.seed = 8;
    EXPECT_TRUE(engine.RegisterBase("sparse", *MakeIntSeries(sparse)).ok());
    IntSeriesOptions big;
    big.span = Span::Of(0, 49999);
    big.density = 0.9;
    big.seed = 9;
    big.column = "w";
    big.costs.clustered = clustered;
    EXPECT_TRUE(engine.RegisterBase("big", *MakeIntSeries(big)).ok());
    Query q;
    q.graph = SeqRef("sparse").ComposeWith(SeqRef("big")).Build();
    auto plan = engine.Plan(q);
    EXPECT_TRUE(plan.ok());
    const PhysNode* node = plan->root.get();
    while (node->op != OpKind::kCompose) node = node->children[0].get();
    return node->join_strategy;
  };
  EXPECT_EQ(build(false), JoinStrategy::kStreamLeftProbeRight);
}

}  // namespace
}  // namespace seq

namespace seq {
namespace {

TEST(PreparedQueryTest, RunsRepeatedlyAndMatchesAdHoc) {
  Engine engine;
  IntSeriesOptions options;
  options.span = Span::Of(0, 999);
  options.density = 0.7;
  options.seed = 12;
  ASSERT_TRUE(engine.RegisterBase("p", *MakeIntSeries(options)).ok());
  Query q;
  q.graph = SeqRef("p")
                .Select(Gt(Col("value"), Lit(int64_t{300})))
                .Agg(AggFunc::kCount, "value", 10)
                .Build();
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto ad_hoc = engine.Run(q);
  ASSERT_TRUE(ad_hoc.ok());
  for (int i = 0; i < 3; ++i) {
    AccessStats stats;
    auto result = prepared->Run({.stats = &stats});
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->records.size(), ad_hoc->records.size());
    EXPECT_GT(stats.stream_records, 0);
  }
}

TEST(PreparedQueryTest, PointQueriesPrepareToo) {
  Engine engine;
  IntSeriesOptions options;
  options.span = Span::Of(0, 999);
  options.seed = 13;
  ASSERT_TRUE(engine.RegisterBase("p", *MakeIntSeries(options)).ok());
  Query q;
  q.graph = SeqRef("p").Build();
  q.positions = {5, 17, 400};
  auto prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->plan().root_mode, AccessMode::kProbed);
  auto result = prepared->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 3u);
}

}  // namespace
}  // namespace seq
