// Tests for the relational baseline substrate, including the key
// cross-check: the SQL-style nested-subquery plan for Example 1.1 returns
// exactly the same answers as the sequence engine's stream plan, at a much
// higher tuple cost.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "relational/operators.h"
#include "relational/table.h"
#include "relational/volcano_sql.h"
#include "workload/generators.h"

namespace seq {
namespace {

using relational::AggregateMax;
using relational::Filter;
using relational::NestedLoopJoin;
using relational::Project;
using relational::RelStats;
using relational::Table;
using relational::TableFromSequence;
using relational::VolcanoQuerySql;

Table PeopleTable() {
  Table t(Schema::Make(
      {Field{"id", TypeId::kInt64}, Field{"age", TypeId::kInt64}}));
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(t.Append({Value::Int64(i), Value::Int64(20 + i * 5)}).ok());
  }
  return t;
}

TEST(RelationalTest, AppendTypeChecks) {
  Table t(Schema::Make({Field{"x", TypeId::kInt64}}));
  EXPECT_TRUE(t.Append({Value::Int64(1)}).ok());
  EXPECT_FALSE(t.Append({Value::Double(1.0)}).ok());
  EXPECT_FALSE(t.Append({}).ok());
}

TEST(RelationalTest, FilterCountsScans) {
  Table t = PeopleTable();
  RelStats stats;
  auto out = Filter(t, Gt(Col("age"), Lit(int64_t{40})), &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 5u);
  EXPECT_EQ(stats.tuples_scanned, 10);
  EXPECT_EQ(stats.predicate_evals, 10);
}

TEST(RelationalTest, ProjectSelectsColumns) {
  Table t = PeopleTable();
  RelStats stats;
  auto out = Project(t, {"age"}, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema()->num_fields(), 1u);
  EXPECT_EQ(out->rows()[3][0].int64(), 35);
}

TEST(RelationalTest, NestedLoopJoinIsQuadratic) {
  Table t = PeopleTable();
  RelStats stats;
  auto out =
      NestedLoopJoin(t, t, Eq(Col("id", 0), Col("id", 1)), &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 10u);
  EXPECT_EQ(stats.tuples_scanned, 10 + 10 * 10);
  EXPECT_EQ(out->schema()->num_fields(), 4u);
  EXPECT_EQ(out->schema()->field(2).name, "id_r");
}

TEST(RelationalTest, AggregateMaxWithPredicate) {
  Table t = PeopleTable();
  RelStats stats;
  auto max_age =
      AggregateMax(t, "age", Lt(Col("id"), Lit(int64_t{5})), &stats);
  ASSERT_TRUE(max_age.ok());
  ASSERT_TRUE(max_age->has_value());
  EXPECT_EQ((**max_age).int64(), 40);  // id in [0,4] -> max age 40
  EXPECT_EQ(stats.tuples_scanned, 10);
  auto none = AggregateMax(t, "age", Lt(Col("id"), Lit(int64_t{-1})),
                           &stats);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
}

TEST(RelationalTest, TableFromSequencePrependsTime) {
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kDouble}});
  BaseSequenceStore store(schema, 4);
  ASSERT_TRUE(store.Append(3, Record{Value::Double(1.5)}).ok());
  auto table = TableFromSequence(store);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema()->field(0).name, "time");
  EXPECT_EQ(table->rows()[0][0].int64(), 3);
  EXPECT_DOUBLE_EQ(table->rows()[0][1].dbl(), 1.5);
}

// --- Example 1.1 cross-check -----------------------------------------------------

class VolcanoCrossCheckTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VolcanoCrossCheckTest, SqlBaselineMatchesSequenceEngine) {
  uint64_t seed = GetParam();
  EventSeriesOptions eq;
  eq.span = Span::Of(1, 5000);
  eq.density = 0.03;
  eq.seed = seed;
  auto quakes = MakeEarthquakes(eq);
  ASSERT_TRUE(quakes.ok());
  EventSeriesOptions vo;
  vo.span = Span::Of(1, 5000);
  vo.density = 0.01;
  vo.seed = seed + 1000;
  auto volcanos = MakeVolcanos(vo);
  ASSERT_TRUE(volcanos.ok());

  // Sequence engine: single lock-step scan.
  Engine engine;
  ASSERT_TRUE(engine.RegisterBase("quakes", *quakes).ok());
  ASSERT_TRUE(engine.RegisterBase("volcanos", *volcanos).ok());
  auto q = SeqRef("volcanos")
               .ComposeWith(SeqRef("quakes").Prev())
               .Select(Gt(Col("strength"), Lit(7.0)))
               .Project({"name"})
               .Build();
  AccessStats seq_stats;
  auto seq_result = engine.Run({q, Span::Of(1, 5000)}, {.stats = &seq_stats});
  ASSERT_TRUE(seq_result.ok()) << seq_result.status();
  std::vector<std::string> seq_names;
  for (const PosRecord& pr : seq_result->records) {
    seq_names.push_back(pr.rec[0].str());
  }

  // Relational baseline: correlated subquery per volcano tuple.
  auto vtable = TableFromSequence(**volcanos);
  auto qtable = TableFromSequence(**quakes);
  ASSERT_TRUE(vtable.ok());
  ASSERT_TRUE(qtable.ok());
  RelStats rel_stats;
  auto sql_names = VolcanoQuerySql(*vtable, *qtable, 7.0, &rel_stats);
  ASSERT_TRUE(sql_names.ok()) << sql_names.status();

  EXPECT_EQ(seq_names, *sql_names);

  // The paper's efficiency claim: the stream plan reads each base record
  // once; the relational plan reads O(|V| x |E|) tuples.
  int64_t v = (*volcanos)->num_records();
  int64_t e = (*quakes)->num_records();
  EXPECT_LE(seq_stats.stream_records, v + e);
  EXPECT_GE(rel_stats.tuples_scanned, v * e);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VolcanoCrossCheckTest,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace seq
