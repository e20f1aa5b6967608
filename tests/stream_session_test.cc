// Tests for the §5.3 incremental ("trigger") evaluation extension.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/stream_session.h"
#include "obs/metrics.h"

namespace seq {
namespace {

class StreamSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SchemaPtr schema = Schema::Make({Field{"v", TypeId::kDouble}});
    auto store = std::make_shared<BaseSequenceStore>(schema, 4);
    ASSERT_TRUE(engine_.RegisterBase("live", store).ok());
  }

  Engine engine_;
};

TEST_F(StreamSessionTest, EmitsNewAnswersIncrementally) {
  auto graph = SeqRef("live").Select(Gt(Col("v"), Lit(10.0))).Build();
  StreamSession session(&engine_.catalog(), graph);

  // Nothing yet.
  auto empty = session.Poll();
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());

  ASSERT_TRUE(session.Append("live", 1, {Value::Double(5.0)}).ok());
  ASSERT_TRUE(session.Append("live", 2, {Value::Double(15.0)}).ok());
  auto first = session.Poll();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ((*first)[0].pos, 2);

  // No duplicates on re-poll.
  auto again = session.Poll();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());

  ASSERT_TRUE(session.Append("live", 3, {Value::Double(20.0)}).ok());
  auto second = session.Poll();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ((*second)[0].pos, 3);
}

TEST_F(StreamSessionTest, WindowAggregateAcrossPolls) {
  // Moving sum of 3: records arriving in separate polls must still see the
  // earlier window content (the bounded-lookback replay).
  auto graph = SeqRef("live").Agg(AggFunc::kSum, "v", 3).Build();
  StreamSession session(&engine_.catalog(), graph);
  EXPECT_EQ(session.lookback(), 2);

  ASSERT_TRUE(session.Append("live", 1, {Value::Double(1.0)}).ok());
  ASSERT_TRUE(session.Append("live", 2, {Value::Double(2.0)}).ok());
  auto first = session.Poll();
  ASSERT_TRUE(first.ok());
  // Positions 1 and 2 are complete (frontier = 2).
  ASSERT_EQ(first->size(), 2u);
  EXPECT_DOUBLE_EQ((*first)[1].rec[0].dbl(), 3.0);

  ASSERT_TRUE(session.Append("live", 3, {Value::Double(4.0)}).ok());
  auto second = session.Poll();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ((*second)[0].pos, 3);
  // Window {1,2,3}: sum 7 — proof the replay saw the old records.
  EXPECT_DOUBLE_EQ((*second)[0].rec[0].dbl(), 7.0);
}

TEST_F(StreamSessionTest, TwoInputFrontier) {
  SchemaPtr schema = Schema::Make({Field{"w", TypeId::kDouble}});
  auto store = std::make_shared<BaseSequenceStore>(schema, 4);
  ASSERT_TRUE(engine_.RegisterBase("other", store).ok());
  auto graph = SeqRef("live").ComposeWith(SeqRef("other")).Build();
  StreamSession session(&engine_.catalog(), graph);

  ASSERT_TRUE(session.Append("live", 5, {Value::Double(1.0)}).ok());
  ASSERT_TRUE(session.Append("live", 9, {Value::Double(2.0)}).ok());
  ASSERT_TRUE(session.Append("other", 5, {Value::Double(3.0)}).ok());
  auto first = session.Poll();
  ASSERT_TRUE(first.ok()) << first.status();
  // Frontier is min(9, 5) = 5: only position 5 is complete.
  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ((*first)[0].pos, 5);

  // `other` catches up past 9; the join at 9 appears iff other has one.
  ASSERT_TRUE(session.Append("other", 9, {Value::Double(4.0)}).ok());
  auto second = session.Poll();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ((*second)[0].pos, 9);
  EXPECT_DOUBLE_EQ((*second)[0].rec[1].dbl(), 4.0);
}

TEST_F(StreamSessionTest, MostRecentEventTrigger) {
  // The paper's trigger shape: alert when an arriving reading exceeds the
  // most recent alarm threshold.
  SchemaPtr schema = Schema::Make({Field{"threshold", TypeId::kDouble}});
  auto store = std::make_shared<BaseSequenceStore>(schema, 4);
  ASSERT_TRUE(engine_.RegisterBase("alarms", store).ok());
  auto graph = SeqRef("live")
                   .ComposeWith(SeqRef("alarms").Prev(),
                                Gt(Col("v", 0), Col("threshold", 1)))
                   .Build();
  StreamSession session(&engine_.catalog(), graph);

  // The frontier is a watermark: an output position is emitted once every
  // input has advanced past it, so each alert appears one poll after the
  // slower input catches up.
  ASSERT_TRUE(session.Append("alarms", 1, {Value::Double(10.0)}).ok());
  ASSERT_TRUE(session.Append("live", 2, {Value::Double(11.0)}).ok());
  auto r1 = session.Poll();
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_TRUE(r1->empty());  // alarms only complete through position 1

  ASSERT_TRUE(session.Append("alarms", 3, {Value::Double(20.0)}).ok());
  ASSERT_TRUE(session.Append("live", 4, {Value::Double(15.0)}).ok());
  auto r2 = session.Poll();
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->size(), 1u);  // position 2: 11 > 10 fires
  EXPECT_EQ((*r2)[0].pos, 2);

  ASSERT_TRUE(session.Append("alarms", 5, {Value::Double(1.0)}).ok());
  ASSERT_TRUE(session.Append("live", 6, {Value::Double(2.0)}).ok());
  auto r3 = session.Poll();
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->empty());  // position 4: 15 < 20 — threshold had moved

  ASSERT_TRUE(session.Append("alarms", 7, {Value::Double(50.0)}).ok());
  ASSERT_TRUE(session.Append("live", 8, {Value::Double(60.0)}).ok());
  auto r4 = session.Poll();
  ASSERT_TRUE(r4.ok());
  ASSERT_EQ(r4->size(), 1u);  // position 6: 2 > 1 fires
  EXPECT_EQ((*r4)[0].pos, 6);
}

TEST_F(StreamSessionTest, RejectsBadAppends) {
  auto graph = SeqRef("live").Build();
  StreamSession session(&engine_.catalog(), graph);
  EXPECT_FALSE(session.Append("ghost", 1, {Value::Double(1.0)}).ok());
  ASSERT_TRUE(session.Append("live", 5, {Value::Double(1.0)}).ok());
  EXPECT_FALSE(session.Append("live", 4, {Value::Double(1.0)}).ok());
}

TEST_F(StreamSessionTest, DegradationIsCountedOncePerLatch) {
  // A 1-byte cache budget cannot hold the window's cache, so the first poll
  // latches the session into cache-free plans. The counter moves on that
  // latch only, not on every later (already degraded) poll.
  ExecOptions exec_options;
  exec_options.guards.max_cache_bytes = 1;
  StreamSession session(&engine_.catalog(),
                        SeqRef("live").Agg(AggFunc::kSum, "v", 16).Build(),
                        OptimizerOptions{}, 1024, exec_options);
  const int64_t before =
      MetricsRegistry::Global().Get("engine.cache_degradations");
  Position next = 1;
  for (int poll = 0; poll < 4; ++poll) {
    for (int i = 0; i < 32; ++i, ++next) {
      const Value v = Value::Double(static_cast<double>(next));
      ASSERT_TRUE(session.Append("live", next, {v}).ok());
    }
    auto rows = session.Poll();
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_FALSE(rows->empty());
    EXPECT_TRUE(session.degraded());
  }
  EXPECT_EQ(MetricsRegistry::Global().Get("engine.cache_degradations") -
                before,
            1);
}

}  // namespace
}  // namespace seq
