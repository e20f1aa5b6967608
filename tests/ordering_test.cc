// Tests for §5.1 multiple orderings: one record set viewed and queried
// under valid-time and transaction-time orderings.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "ordering/multi_ordered.h"

namespace seq {
namespace {

Result<MultiOrderedSet> MakeBitemporal() {
  SchemaPtr schema = Schema::Make({Field{"price", TypeId::kDouble}});
  SEQ_ASSIGN_OR_RETURN(
      MultiOrderedSet set,
      MultiOrderedSet::Create(schema, {"valid_time", "tx_time"}));
  // (valid, tx, price): corrections arrive out of valid order.
  SEQ_RETURN_IF_ERROR(set.Add({10, 100}, {Value::Double(5.0)}));
  SEQ_RETURN_IF_ERROR(set.Add({20, 101}, {Value::Double(6.0)}));
  SEQ_RETURN_IF_ERROR(set.Add({15, 102}, {Value::Double(5.5)}));  // late fix
  SEQ_RETURN_IF_ERROR(set.Add({30, 103}, {Value::Double(7.0)}));
  return set;
}

TEST(MultiOrderedTest, CreateValidation) {
  SchemaPtr schema = Schema::Make({Field{"price", TypeId::kDouble}});
  EXPECT_FALSE(MultiOrderedSet::Create(schema, {}).ok());
  EXPECT_FALSE(MultiOrderedSet::Create(schema, {"t", "t"}).ok());
  EXPECT_FALSE(MultiOrderedSet::Create(schema, {"price"}).ok());
  EXPECT_TRUE(MultiOrderedSet::Create(schema, {"valid", "tx"}).ok());
}

TEST(MultiOrderedTest, AddValidation) {
  auto set = MakeBitemporal();
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(set->Add({40}, {Value::Double(1.0)}).ok());  // arity
  EXPECT_FALSE(
      set->Add({10, 999}, {Value::Double(1.0)}).ok());  // dup valid_time
  EXPECT_FALSE(
      set->Add({99, 100}, {Value::Double(1.0)}).ok());  // dup tx_time
  EXPECT_FALSE(set->Add({50, 200}, {Value::Int64(1)}).ok());  // type
}

TEST(MultiOrderedTest, EachOrderingSortsItsWay) {
  auto set = MakeBitemporal();
  ASSERT_TRUE(set.ok());
  auto by_valid = set->AsSequence("valid_time");
  ASSERT_TRUE(by_valid.ok()) << by_valid.status();
  // valid order: 10, 15, 20, 30 — note the late fix interleaves.
  std::vector<Position> valid_positions;
  for (const PosRecord& pr : (*by_valid)->records()) {
    valid_positions.push_back(pr.pos);
  }
  EXPECT_EQ(valid_positions, (std::vector<Position>{10, 15, 20, 30}));
  EXPECT_EQ((*by_valid)->schema()->ToString(),
            "<tx_time:int64, price:double>");

  auto by_tx = set->AsSequence("tx_time");
  ASSERT_TRUE(by_tx.ok());
  std::vector<double> tx_prices;
  for (const PosRecord& pr : (*by_tx)->records()) {
    tx_prices.push_back(pr.rec[1].dbl());
  }
  // tx order: 5.0, 6.0, 5.5, 7.0 — arrival order.
  EXPECT_EQ(tx_prices, (std::vector<double>{5.0, 6.0, 5.5, 7.0}));

  EXPECT_FALSE(set->AsSequence("nope").ok());
}

TEST(MultiOrderedTest, QueriesRunUnderEitherOrdering) {
  auto set = MakeBitemporal();
  ASSERT_TRUE(set.ok());
  Engine engine;
  ASSERT_TRUE(
      engine.RegisterBase("by_valid", *set->AsSequence("valid_time")).ok());
  ASSERT_TRUE(
      engine.RegisterBase("by_tx", *set->AsSequence("tx_time")).ok());

  // Valid-time query: moving max of price over valid time.
  auto valid_max = engine.Run(
      {SeqRef("by_valid").RunningAgg(AggFunc::kMax, "price").Build(),
       Span::Of(10, 30)});
  ASSERT_TRUE(valid_max.ok());
  EXPECT_DOUBLE_EQ(valid_max->records.back().rec[0].dbl(), 7.0);

  // Transaction-time ("as of") query: records known by tx time 102 whose
  // valid time is before 20.
  auto as_of = engine.Run(
      {SeqRef("by_tx")
           .Select(And(Le(Expr::Position(), Lit(int64_t{102})),
                       Lt(Col("valid_time"), Lit(int64_t{20}))))
           .Build()});
  ASSERT_TRUE(as_of.ok()) << as_of.status();
  ASSERT_EQ(as_of->records.size(), 2u);  // (10,100) and (15,102)
  EXPECT_DOUBLE_EQ(as_of->records[0].rec[1].dbl(), 5.0);
  EXPECT_DOUBLE_EQ(as_of->records[1].rec[1].dbl(), 5.5);
}

}  // namespace
}  // namespace seq
