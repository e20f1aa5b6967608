// Tests for the Sequin unparser, including the parse(unparse(g)) ≡ g
// round-trip property over random graphs.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "parser/parser.h"
#include "parser/unparse.h"
#include "tests/test_util.h"

namespace seq {
namespace {

using seq::testing::ExpectSameRecords;
using seq::testing::FillSmallCatalog;
using seq::testing::RandomGraph;

TEST(UnparseTest, RendersEveryOperator) {
  auto q = SeqRef("s")
               .Select(And(Gt(Col("v"), Lit(1.5)), Not(Col("flag"))))
               .Project({"v"}, {"x"})
               .Offset(-3)
               .Prev()
               .Agg(AggFunc::kAvg, "x", 6, "m")
               .ComposeWith(ConstRef("k"), Gt(Col("m", 0), Col("c", 1)))
               .Collapse(7, AggFunc::kMax, "m", "wk")
               .Build();
  auto text = UnparseQuery(*q, "out");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(*text,
            "out = collapse(compose(avg(prev(offset(project(select(s, "
            "((v > 1.5) and not flag)), v as x), -3)), x, over 6, as m), "
            "const(k), (m > right.c)), 7, max, m, as wk);");
  // And it parses back to the same structure.
  auto reparsed = ParseSequinQuery(*text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ((*reparsed)->kind(), OpKind::kCollapse);
  EXPECT_EQ((*reparsed)->output_name(), "wk");
}

TEST(UnparseTest, ExprForms) {
  EXPECT_EQ(UnparseExpr(*Gt(Col("a", 1), Lit(int64_t{3}))),
            "(right.a > 3)");
  EXPECT_EQ(UnparseExpr(*Eq(Col("s"), Lit("hi"))), "(s == \"hi\")");
  EXPECT_EQ(UnparseExpr(*Ge(Expr::Position(), Lit(int64_t{5}))),
            "(pos() >= 5)");
  EXPECT_EQ(UnparseExpr(*Expr::Unary(
                UnaryOp::kAbs, Sub(Col("a"), Col("b")))),
            "abs((a - b))");
  EXPECT_EQ(UnparseExpr(*Expr::Unary(UnaryOp::kNeg, Col("a"))), "-a");
}

TEST(UnparseTest, VoffsetSpellsPrevNextAndGeneral) {
  auto prev = UnparseQuery(*SeqRef("s").Prev().Build());
  EXPECT_EQ(*prev, "q = prev(s);");
  auto next = UnparseQuery(*SeqRef("s").Next().Build());
  EXPECT_EQ(*next, "q = next(s);");
  auto general = UnparseQuery(*SeqRef("s").ValueOffset(-4).Build());
  EXPECT_EQ(*general, "q = voffset(s, -4);");
}

class RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripTest, ParseOfUnparseRunsIdentically) {
  uint64_t seed = GetParam();
  Engine engine;
  FillSmallCatalog(&engine.catalog(), seed);
  Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 8; ++trial) {
    LogicalOpPtr graph = RandomGraph(engine.catalog(), &rng, 1 + trial % 4);
    auto text = UnparseQuery(*graph);
    ASSERT_TRUE(text.ok()) << text.status();
    auto reparsed = ParseSequinQuery(*text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << *text;
    Span range = Span::Of(-20, 420);
    auto original = engine.Run({graph, range});
    auto round_trip = engine.Run({*reparsed, range});
    ASSERT_EQ(original.ok(), round_trip.ok()) << *text;
    if (!original.ok()) continue;
    ExpectSameRecords(original->records, round_trip->records, *text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace seq
