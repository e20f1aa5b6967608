// End-to-end tests: build catalogs, run queries through the optimizer and
// executor, and check results against hand-computed reference evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/engine.h"
#include "workload/generators.h"

namespace seq {
namespace {

// A tiny hand-made price sequence for exact-value assertions.
//   pos:   1    2    3    5    8    9
//   close: 10   20   30   40   50   60
BaseSequencePtr MakePrices() {
  SchemaPtr schema = Schema::Make({Field{"close", TypeId::kDouble}});
  auto store = std::make_shared<BaseSequenceStore>(schema, 4);
  const std::pair<Position, double> data[] = {{1, 10}, {2, 20}, {3, 30},
                                              {5, 40}, {8, 50}, {9, 60}};
  for (auto [pos, v] : data) {
    EXPECT_TRUE(store->Append(pos, Record{Value::Double(v)}).ok());
  }
  return store;
}

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterBase("prices", MakePrices()).ok());
  }
  Engine engine_;
};

TEST_F(IntegrationTest, ScanWholeSequence) {
  auto result = engine_.Run({SeqRef("prices").Build()});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 6u);
  EXPECT_EQ(result->records.front().pos, 1);
  EXPECT_EQ(result->records.back().pos, 9);
  EXPECT_DOUBLE_EQ(result->records.back().rec[0].dbl(), 60.0);
}

TEST_F(IntegrationTest, RangeRestrictsOutput) {
  auto result = engine_.Run({SeqRef("prices").Build(), Span::Of(2, 5)});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_EQ(result->records[0].pos, 2);
  EXPECT_EQ(result->records[2].pos, 5);
}

TEST_F(IntegrationTest, SelectFiltersRecords) {
  auto q = SeqRef("prices").Select(Gt(Col("close"), Lit(25.0))).Build();
  auto result = engine_.Run({q});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 4u);
  EXPECT_EQ(result->records[0].pos, 3);
}

TEST_F(IntegrationTest, SelectOnPosition) {
  auto q =
      SeqRef("prices").Select(Ge(Expr::Position(), Lit(int64_t{5}))).Build();
  auto result = engine_.Run({q});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 3u);  // positions 5, 8, 9
}

TEST_F(IntegrationTest, ProjectComputesNarrowSchema) {
  auto q = SeqRef("prices").Project({"close"}, {"c"}).Build();
  auto result = engine_.Run({q});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->schema->field(0).name, "c");
  EXPECT_EQ(result->records.size(), 6u);
}

TEST_F(IntegrationTest, PositionalOffsetShifts) {
  // out(i) = in(i + 2): record at input pos 3 surfaces at output pos 1.
  auto q = SeqRef("prices").Offset(2).Build();
  auto result = engine_.Run({q});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 6u);
  EXPECT_EQ(result->records[0].pos, -1);
  EXPECT_DOUBLE_EQ(result->records[0].rec[0].dbl(), 10.0);
  EXPECT_EQ(result->records[2].pos, 1);
  EXPECT_DOUBLE_EQ(result->records[2].rec[0].dbl(), 30.0);
}

TEST_F(IntegrationTest, PreviousIsDense) {
  // Previous: at every position after the first record, the most recent
  // earlier record.
  auto q = SeqRef("prices").Prev().Build();
  auto result = engine_.Run({q, Span::Of(1, 9)});
  ASSERT_TRUE(result.ok()) << result.status();
  // Defined at positions 2..9 (nothing precedes position 1).
  ASSERT_EQ(result->records.size(), 8u);
  std::map<Position, double> got;
  for (const PosRecord& pr : result->records) {
    got[pr.pos] = pr.rec[0].dbl();
  }
  EXPECT_DOUBLE_EQ(got[2], 10.0);
  EXPECT_DOUBLE_EQ(got[3], 20.0);
  EXPECT_DOUBLE_EQ(got[4], 30.0);  // gap position: still sees pos 3
  EXPECT_DOUBLE_EQ(got[5], 30.0);
  EXPECT_DOUBLE_EQ(got[6], 40.0);
  EXPECT_DOUBLE_EQ(got[9], 50.0);
}

TEST_F(IntegrationTest, NextLooksAhead) {
  auto q = SeqRef("prices").Next().Build();
  auto result = engine_.Run({q, Span::Of(1, 9)});
  ASSERT_TRUE(result.ok()) << result.status();
  std::map<Position, double> got;
  for (const PosRecord& pr : result->records) got[pr.pos] = pr.rec[0].dbl();
  EXPECT_DOUBLE_EQ(got[1], 20.0);
  EXPECT_DOUBLE_EQ(got[3], 40.0);
  EXPECT_DOUBLE_EQ(got[4], 40.0);
  EXPECT_DOUBLE_EQ(got[8], 60.0);
  EXPECT_EQ(got.count(9), 0u);  // nothing after position 9
}

TEST_F(IntegrationTest, TrailingSumMatchesReference) {
  // 3-position moving sum; window = positions [i-2, i].
  auto q = SeqRef("prices").Agg(AggFunc::kSum, "close", 3).Build();
  auto result = engine_.Run({q, Span::Of(1, 11)});
  ASSERT_TRUE(result.ok()) << result.status();
  std::map<Position, double> got;
  for (const PosRecord& pr : result->records) got[pr.pos] = pr.rec[0].dbl();
  EXPECT_DOUBLE_EQ(got[1], 10.0);
  EXPECT_DOUBLE_EQ(got[2], 30.0);
  EXPECT_DOUBLE_EQ(got[3], 60.0);
  EXPECT_DOUBLE_EQ(got[4], 50.0);   // positions 2,3
  EXPECT_DOUBLE_EQ(got[5], 70.0);   // positions 3,5
  EXPECT_DOUBLE_EQ(got[6], 40.0);   // position 5 only
  EXPECT_DOUBLE_EQ(got[7], 40.0);
  EXPECT_DOUBLE_EQ(got[8], 50.0);
  EXPECT_DOUBLE_EQ(got[9], 110.0);  // 50 + 60
  EXPECT_DOUBLE_EQ(got[10], 110.0);
  EXPECT_DOUBLE_EQ(got[11], 60.0);
  EXPECT_EQ(result->schema->field(0).name, "sum_close");
}

TEST_F(IntegrationTest, RunningAndOverallAggregates) {
  auto running = engine_.Run(
      {SeqRef("prices").RunningAgg(AggFunc::kMax, "close").Build(),
       Span::Of(1, 9)});
  ASSERT_TRUE(running.ok()) << running.status();
  std::map<Position, double> got;
  for (const PosRecord& pr : running->records) got[pr.pos] = pr.rec[0].dbl();
  EXPECT_DOUBLE_EQ(got[1], 10.0);
  EXPECT_DOUBLE_EQ(got[4], 30.0);
  EXPECT_DOUBLE_EQ(got[9], 60.0);

  auto overall = engine_.Run(
      {SeqRef("prices").OverallAgg(AggFunc::kAvg, "close").Build()});
  ASSERT_TRUE(overall.ok()) << overall.status();
  ASSERT_FALSE(overall->records.empty());
  for (const PosRecord& pr : overall->records) {
    EXPECT_DOUBLE_EQ(pr.rec[0].dbl(), 35.0);  // mean of 10..60
  }
  EXPECT_EQ(overall->records.size(), 9u);  // every position of span [1,9]
}

TEST_F(IntegrationTest, ComposeJoinsAtCommonPositions) {
  // Second sequence at positions 2,3,4,8.
  SchemaPtr schema = Schema::Make({Field{"flag", TypeId::kInt64}});
  auto store = std::make_shared<BaseSequenceStore>(schema, 4);
  for (Position p : {2, 3, 4, 8}) {
    ASSERT_TRUE(store->Append(p, Record{Value::Int64(p * 100)}).ok());
  }
  ASSERT_TRUE(engine_.RegisterBase("flags", store).ok());

  auto q = SeqRef("prices").ComposeWith(SeqRef("flags")).Build();
  auto result = engine_.Run({q});
  ASSERT_TRUE(result.ok()) << result.status();
  // Common non-null positions: 2, 3, 8.
  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_EQ(result->records[0].pos, 2);
  EXPECT_EQ(result->records[0].rec.size(), 2u);
  EXPECT_DOUBLE_EQ(result->records[0].rec[0].dbl(), 20.0);
  EXPECT_EQ(result->records[0].rec[1].int64(), 200);
  EXPECT_EQ(result->records[2].pos, 8);
}

TEST_F(IntegrationTest, ComposeWithJoinPredicate) {
  SchemaPtr schema = Schema::Make({Field{"limit", TypeId::kDouble}});
  auto store = std::make_shared<BaseSequenceStore>(schema, 4);
  for (Position p : {1, 2, 3, 5, 8, 9}) {
    ASSERT_TRUE(store->Append(p, Record{Value::Double(35.0)}).ok());
  }
  ASSERT_TRUE(engine_.RegisterBase("limits", store).ok());

  auto q = SeqRef("prices")
               .ComposeWith(SeqRef("limits"),
                            Gt(Col("close", 0), Col("limit", 1)))
               .Build();
  auto result = engine_.Run({q});
  ASSERT_TRUE(result.ok()) << result.status();
  // close > 35 at positions 5, 8, 9.
  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_EQ(result->records[0].pos, 5);
}

TEST_F(IntegrationTest, ComposeWithConstantSequence) {
  SchemaPtr cschema = Schema::Make({Field{"threshold", TypeId::kDouble}});
  ASSERT_TRUE(engine_
                  .RegisterConstant("threshold", cschema,
                                    Record{Value::Double(25.0)})
                  .ok());
  auto q = SeqRef("prices")
               .ComposeWith(ConstRef("threshold"),
                            Gt(Col("close", 0), Col("threshold", 1)))
               .Build();
  auto result = engine_.Run({q});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 4u);  // 30, 40, 50, 60
  EXPECT_EQ(result->records[0].pos, 3);
  EXPECT_DOUBLE_EQ(result->records[0].rec[1].dbl(), 25.0);
}

TEST_F(IntegrationTest, PointQueriesReturnExactPositions) {
  auto result =
      engine_.Run({.graph = SeqRef("prices").Build(), .positions = {2, 4, 8}});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 2u);  // position 4 is empty
  EXPECT_EQ(result->records[0].pos, 2);
  EXPECT_EQ(result->records[1].pos, 8);
}

TEST_F(IntegrationTest, CollapseAggregatesBuckets) {
  // Buckets of 4: [0,3] -> 10+20+30, [4,7] -> 40, [8,11] -> 50+60.
  auto q = SeqRef("prices").Collapse(4, AggFunc::kSum, "close").Build();
  auto result = engine_.Run({q});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_EQ(result->records[0].pos, 0);
  EXPECT_DOUBLE_EQ(result->records[0].rec[0].dbl(), 60.0);
  EXPECT_EQ(result->records[1].pos, 1);
  EXPECT_DOUBLE_EQ(result->records[1].rec[0].dbl(), 40.0);
  EXPECT_EQ(result->records[2].pos, 2);
  EXPECT_DOUBLE_EQ(result->records[2].rec[0].dbl(), 110.0);
}

// --- The paper's motivating example (Example 1.1 / Fig. 1) -----------------

TEST(MotivatingExample, VolcanoEarthquakeQuery) {
  Engine engine;
  // Hand-built miniature: quakes at 10 (6.0), 20 (8.0), 30 (7.5);
  // volcanos at 15, 25, 35.
  SchemaPtr qschema = Schema::Make({Field{"strength", TypeId::kDouble}});
  auto quakes = std::make_shared<BaseSequenceStore>(qschema, 4);
  ASSERT_TRUE(quakes->Append(10, Record{Value::Double(6.0)}).ok());
  ASSERT_TRUE(quakes->Append(20, Record{Value::Double(8.0)}).ok());
  ASSERT_TRUE(quakes->Append(30, Record{Value::Double(7.5)}).ok());
  SchemaPtr vschema = Schema::Make({Field{"name", TypeId::kString}});
  auto volcanos = std::make_shared<BaseSequenceStore>(vschema, 4);
  ASSERT_TRUE(volcanos->Append(15, Record{Value::String("etna")}).ok());
  ASSERT_TRUE(volcanos->Append(25, Record{Value::String("fuji")}).ok());
  ASSERT_TRUE(volcanos->Append(35, Record{Value::String("hekla")}).ok());
  ASSERT_TRUE(engine.RegisterBase("quakes", quakes).ok());
  ASSERT_TRUE(engine.RegisterBase("volcanos", volcanos).ok());

  // "For which volcano eruptions was the strength of the most recent
  // earthquake greater than 7.0?" — compose volcanos with Previous(quakes),
  // then select.
  auto q = SeqRef("volcanos")
               .ComposeWith(SeqRef("quakes").Prev())
               .Select(Gt(Col("strength"), Lit(7.0)))
               .Project({"name"})
               .Build();
  auto result = engine.Run({q, Span::Of(1, 40)});
  ASSERT_TRUE(result.ok()) << result.status();
  // etna@15: most recent quake 6.0 — no. fuji@25: 8.0 — yes.
  // hekla@35: 7.5 — yes.
  ASSERT_EQ(result->records.size(), 2u);
  EXPECT_EQ(result->records[0].rec[0].str(), "fuji");
  EXPECT_EQ(result->records[1].rec[0].str(), "hekla");
}

TEST(MotivatingExample, StreamPlanDoesSingleScan) {
  Engine engine;
  EventSeriesOptions eq;
  eq.span = Span::Of(1, 20000);
  eq.density = 0.02;
  eq.seed = 3;
  auto quakes = MakeEarthquakes(eq);
  ASSERT_TRUE(quakes.ok());
  EventSeriesOptions vo;
  vo.span = Span::Of(1, 20000);
  vo.density = 0.005;
  vo.seed = 4;
  auto volcanos = MakeVolcanos(vo);
  ASSERT_TRUE(volcanos.ok());
  int64_t quake_count = (*quakes)->num_records();
  int64_t volcano_count = (*volcanos)->num_records();
  ASSERT_TRUE(engine.RegisterBase("quakes", *quakes).ok());
  ASSERT_TRUE(engine.RegisterBase("volcanos", *volcanos).ok());

  auto q = SeqRef("volcanos")
               .ComposeWith(SeqRef("quakes").Prev())
               .Select(Gt(Col("strength"), Lit(7.0)))
               .Build();
  AccessStats stats;
  auto result = engine.Run({q, Span::Of(1, 20000)}, {.stats = &stats});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->records.size(), 0u);
  // Single scan: every base record is read at most once, with no probes.
  EXPECT_LE(stats.stream_records, quake_count + volcano_count);
  EXPECT_EQ(stats.probes, 0);
}

}  // namespace
}  // namespace seq

namespace seq {
namespace {

// Fig. 6 proper: the Position Sequence is itself a named sequence — the
// query is asked exactly at that sequence's record positions.
TEST(PositionSequenceTest, NamedPositionSequenceDrivesProbes) {
  Engine engine;
  SchemaPtr qschema = Schema::Make({Field{"strength", TypeId::kDouble}});
  auto quakes = std::make_shared<BaseSequenceStore>(qschema, 4);
  ASSERT_TRUE(quakes->Append(10, {Value::Double(6.0)}).ok());
  ASSERT_TRUE(quakes->Append(20, {Value::Double(8.0)}).ok());
  ASSERT_TRUE(quakes->Append(30, {Value::Double(7.5)}).ok());
  SchemaPtr vschema = Schema::Make({Field{"name", TypeId::kString}});
  auto volcanos = std::make_shared<BaseSequenceStore>(vschema, 4);
  ASSERT_TRUE(volcanos->Append(15, {Value::String("etna")}).ok());
  ASSERT_TRUE(volcanos->Append(25, {Value::String("fuji")}).ok());
  ASSERT_TRUE(volcanos->Append(35, {Value::String("hekla")}).ok());
  ASSERT_TRUE(engine.RegisterBase("quakes", quakes).ok());
  ASSERT_TRUE(engine.RegisterBase("volcanos", volcanos).ok());

  // Example 1.1 as the Fig. 6 template: ask the derived sequence "most
  // recent strong quake" exactly at the volcano eruption positions.
  Query q;
  q.graph = SeqRef("quakes")
                .Prev()
                .Select(Gt(Col("strength"), Lit(7.0)))
                .Build();
  q.position_sequence = "volcanos";
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok()) << result.status();
  // etna@15: prev quake 6.0 (filtered); fuji@25: 8.0; hekla@35: 7.5.
  ASSERT_EQ(result->records.size(), 2u);
  EXPECT_EQ(result->records[0].pos, 25);
  EXPECT_DOUBLE_EQ(result->records[0].rec[0].dbl(), 8.0);
  EXPECT_EQ(result->records[1].pos, 35);
}

TEST(PositionSequenceTest, RangeRestrictsThePositionSet) {
  Engine engine;
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kInt64}});
  auto data = std::make_shared<BaseSequenceStore>(schema, 4);
  auto marks = std::make_shared<BaseSequenceStore>(schema, 4);
  for (Position p = 0; p < 100; ++p) {
    ASSERT_TRUE(data->Append(p, {Value::Int64(p)}).ok());
  }
  for (Position p : {5, 40, 77}) {
    ASSERT_TRUE(marks->Append(p, {Value::Int64(0)}).ok());
  }
  ASSERT_TRUE(engine.RegisterBase("data", data).ok());
  ASSERT_TRUE(engine.RegisterBase("marks", marks).ok());

  Query q;
  q.graph = SeqRef("data").Build();
  q.position_sequence = "marks";
  q.range = Span::Of(0, 50);
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 2u);  // 5 and 40; 77 outside range
  EXPECT_EQ(result->records[0].pos, 5);
  EXPECT_EQ(result->records[1].pos, 40);
}

TEST(PositionSequenceTest, EmptyAndErrorCases) {
  Engine engine;
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kInt64}});
  auto data = std::make_shared<BaseSequenceStore>(schema, 4);
  ASSERT_TRUE(data->Append(1, {Value::Int64(1)}).ok());
  auto empty = std::make_shared<BaseSequenceStore>(schema, 4);
  ASSERT_TRUE(engine.RegisterBase("data", data).ok());
  ASSERT_TRUE(engine.RegisterBase("empty", empty).ok());

  Query q;
  q.graph = SeqRef("data").Build();
  q.position_sequence = "empty";
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->records.empty());

  q.position_sequence = "ghost";
  EXPECT_FALSE(engine.Run(q).ok());
}

}  // namespace
}  // namespace seq
