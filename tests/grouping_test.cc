// Tests for §5.1 sequence groupings: group construction, per-member
// templates (Map), condition filtering, and cross-member positional
// aggregation.

#include <gtest/gtest.h>

#include "grouping/sequence_group.h"
#include "workload/generators.h"

namespace seq {
namespace {

class GroupingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three "experiment result" sequences with controlled values.
    SchemaPtr schema = Schema::Make({Field{"y", TypeId::kDouble}});
    for (int e = 0; e < 3; ++e) {
      auto store = std::make_shared<BaseSequenceStore>(schema, 4);
      for (Position p = 1; p <= 10; ++p) {
        if (e == 1 && p % 2 == 0) continue;  // member 1 is sparser
        double value = 10.0 * e + static_cast<double>(p);
        ASSERT_TRUE(store->Append(p, Record{Value::Double(value)}).ok());
      }
      ASSERT_TRUE(
          engine_.RegisterBase("exp" + std::to_string(e), store).ok());
    }
  }
  Engine engine_;
};

TEST_F(GroupingTest, CreateValidatesSchemas) {
  auto group = SequenceGroup::Create(&engine_, {"exp0", "exp1", "exp2"});
  ASSERT_TRUE(group.ok()) << group.status();
  EXPECT_EQ(group->members().size(), 3u);

  SchemaPtr other = Schema::Make({Field{"z", TypeId::kInt64}});
  auto store = std::make_shared<BaseSequenceStore>(other, 4);
  ASSERT_TRUE(store->Append(1, Record{Value::Int64(1)}).ok());
  ASSERT_TRUE(engine_.RegisterBase("odd", store).ok());
  EXPECT_FALSE(SequenceGroup::Create(&engine_, {"exp0", "odd"}).ok());
  EXPECT_FALSE(SequenceGroup::Create(&engine_, {}).ok());
  EXPECT_FALSE(SequenceGroup::Create(&engine_, {"ghost"}).ok());
}

TEST_F(GroupingTest, MapRunsTemplatePerMember) {
  auto group = SequenceGroup::Create(&engine_, {"exp0", "exp1", "exp2"});
  ASSERT_TRUE(group.ok());
  auto results = group->Map([](const std::string& member) {
    return SeqRef(member).Select(Gt(Col("y"), Lit(15.0))).Build();
  });
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ(results->at("exp0").records.size(), 0u);   // max 10
  EXPECT_EQ(results->at("exp1").records.size(), 2u);   // 17, 19
  EXPECT_EQ(results->at("exp2").records.size(), 10u);  // 21..30
}

TEST_F(GroupingTest, MapAppliesTemplateOverRangeWithStats) {
  Engine engine;
  for (int i = 0; i < 3; ++i) {
    IntSeriesOptions options;
    options.span = Span::Of(0, 99);
    options.density = 1.0;
    options.seed = 100 + i;
    options.min_value = i * 100;  // distinct ranges per member
    options.max_value = i * 100 + 50;
    ASSERT_TRUE(engine
                    .RegisterBase("g" + std::to_string(i),
                                  *MakeIntSeries(options))
                    .ok());
  }
  auto group = SequenceGroup::Create(&engine, {"g0", "g1", "g2"});
  ASSERT_TRUE(group.ok()) << group.status();
  const auto at_least_100 = [](const std::string& member) {
    return SeqRef(member).Select(Ge(Col("value"), Lit(int64_t{100}))).Build();
  };
  AccessStats stats;
  auto results = group->Map(at_least_100, std::nullopt, &stats);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ(results->at("g0").records.size(), 0u);    // values < 51
  EXPECT_EQ(results->at("g1").records.size(), 100u);  // values 100..150
  EXPECT_EQ(results->at("g2").records.size(), 100u);
  EXPECT_EQ(stats.records_output, 200);

  auto clipped = group->Map(at_least_100, Span::Of(10, 19));
  ASSERT_TRUE(clipped.ok()) << clipped.status();
  EXPECT_EQ(clipped->at("g2").records.size(), 10u);

  // A template that yields no graph names the member instead of crashing.
  auto none = group->Map([](const std::string& member) -> LogicalOpPtr {
    if (member == "g1") return nullptr;
    return SeqRef(member).Build();
  });
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.status().message().find("'g1'"), std::string::npos);
}

TEST_F(GroupingTest, FilterKeepsSatisfyingMembers) {
  auto group = SequenceGroup::Create(&engine_, {"exp0", "exp1", "exp2"});
  ASSERT_TRUE(group.ok());
  // The paper's example: sequences whose values ever exceed a threshold.
  auto filtered = group->Filter([](const std::string& member) {
    return SeqRef(member).Select(Gt(Col("y"), Lit(18.0))).Build();
  });
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_EQ(filtered->members(),
            (std::vector<std::string>{"exp1", "exp2"}));

  auto none = group->Filter([](const std::string& member) {
    return SeqRef(member).Select(Gt(Col("y"), Lit(1e9))).Build();
  });
  EXPECT_FALSE(none.ok());
}

TEST_F(GroupingTest, PositionalAggAcrossMembers) {
  auto group = SequenceGroup::Create(&engine_, {"exp0", "exp1", "exp2"});
  ASSERT_TRUE(group.ok());
  auto avg = group->PositionalAgg(AggFunc::kAvg, "y");
  ASSERT_TRUE(avg.ok()) << avg.status();
  ASSERT_EQ(avg->records.size(), 10u);
  // Position 1: members 0,1,2 -> (1 + 11 + 21)/3 = 11.
  EXPECT_EQ(avg->records[0].pos, 1);
  EXPECT_DOUBLE_EQ(avg->records[0].rec[0].dbl(), 11.0);
  // Position 2: member 1 missing -> (2 + 22)/2 = 12.
  EXPECT_EQ(avg->records[1].pos, 2);
  EXPECT_DOUBLE_EQ(avg->records[1].rec[0].dbl(), 12.0);
  EXPECT_EQ(avg->schema->field(0).name, "avg_y");

  auto count = group->PositionalAgg(AggFunc::kCount, "y");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->records[0].rec[0].int64(), 3);
  EXPECT_EQ(count->records[1].rec[0].int64(), 2);
}

TEST_F(GroupingTest, PositionalAggRangeAndErrors) {
  auto group = SequenceGroup::Create(&engine_, {"exp0", "exp2"});
  ASSERT_TRUE(group.ok());
  auto sum = group->PositionalAgg(AggFunc::kSum, "y", Span::Of(3, 4));
  ASSERT_TRUE(sum.ok());
  ASSERT_EQ(sum->records.size(), 2u);
  EXPECT_DOUBLE_EQ(sum->records[0].rec[0].dbl(), 3.0 + 23.0);
  EXPECT_FALSE(group->PositionalAgg(AggFunc::kSum, "nope").ok());
}

TEST_F(GroupingTest, FilteredGroupComposesWithAgg) {
  auto group = SequenceGroup::Create(&engine_, {"exp0", "exp1", "exp2"});
  ASSERT_TRUE(group.ok());
  auto filtered = group->Filter([](const std::string& member) {
    return SeqRef(member).Select(Gt(Col("y"), Lit(18.0))).Build();
  });
  ASSERT_TRUE(filtered.ok());
  auto max = filtered->PositionalAgg(AggFunc::kMax, "y");
  ASSERT_TRUE(max.ok());
  // Position 1: members exp1 (11), exp2 (21) -> 21.
  EXPECT_DOUBLE_EQ(max->records[0].rec[0].dbl(), 21.0);
}

}  // namespace
}  // namespace seq
