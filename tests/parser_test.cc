// Tests for the Sequin mini-language: lexing, parsing of every construct,
// error reporting, and parse-then-run equivalence with builder queries.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "workload/generators.h"

namespace seq {
namespace {

// --- lexer -------------------------------------------------------------------

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("foo = select(bar, x >= 1.5); # comment\n");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.back(), TokKind::kEnd);
  EXPECT_EQ((*tokens)[0].text, "foo");
  EXPECT_TRUE((*tokens)[1].IsSymbol("="));
  EXPECT_TRUE((*tokens)[7].IsSymbol(">="));
  EXPECT_EQ((*tokens)[8].kind, TokKind::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[8].double_value, 1.5);
}

TEST(LexerTest, IntVersusDoubleVersusFieldAccess) {
  auto tokens = Tokenize("3 3.5 left.close");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokKind::kInt);
  EXPECT_EQ((*tokens)[1].kind, TokKind::kDouble);
  EXPECT_EQ((*tokens)[2].text, "left");
  EXPECT_TRUE((*tokens)[3].IsSymbol("."));
  EXPECT_EQ((*tokens)[4].text, "close");
}

TEST(LexerTest, StringLiteralsAndErrors) {
  auto ok = Tokenize("x == \"hello world\"");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[2].kind, TokKind::kString);
  EXPECT_EQ((*ok)[2].text, "hello world");
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("x @ y").ok());
}

TEST(LexerTest, TracksLineNumbers) {
  auto tokens = Tokenize("a\nbb\n  c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1u);
  EXPECT_EQ((*tokens)[1].line, 2u);
  EXPECT_EQ((*tokens)[2].line, 3u);
  EXPECT_EQ((*tokens)[2].column, 3u);
}

// --- parser ------------------------------------------------------------------

TEST(ParserTest, ParsesEveryOperator) {
  const char* source = R"(
    a = select(base, close > 10.0 and volume <= 5000);
    b = project(a, close as c, volume);
    c = offset(b, -3);
    d = prev(c);
    e = voffset(base, 2);
    f = sum(base, close, over 6);
    g = avg(base, close, running);
    h = max(base, close, over all);
    i = compose(f, g, left.sum_close > right.avg_close);
    j = collapse(base, 7, avg, close);
    k = count(base, close, over 3, as n);
  )";
  auto program = ParseSequin(source);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->order.size(), 11u);
  EXPECT_EQ(program->definitions.at("a")->kind(), OpKind::kSelect);
  EXPECT_EQ(program->definitions.at("b")->kind(), OpKind::kProject);
  EXPECT_EQ(program->definitions.at("b")->renames()[0], "c");
  EXPECT_EQ(program->definitions.at("c")->kind(), OpKind::kPositionalOffset);
  EXPECT_EQ(program->definitions.at("c")->offset(), -3);
  EXPECT_EQ(program->definitions.at("d")->kind(), OpKind::kValueOffset);
  EXPECT_EQ(program->definitions.at("d")->offset(), -1);
  EXPECT_EQ(program->definitions.at("e")->offset(), 2);
  EXPECT_EQ(program->definitions.at("f")->window(), 6);
  EXPECT_EQ(program->definitions.at("g")->window_kind(),
            WindowKind::kRunning);
  EXPECT_EQ(program->definitions.at("h")->window_kind(), WindowKind::kAll);
  EXPECT_EQ(program->definitions.at("i")->kind(), OpKind::kCompose);
  ASSERT_NE(program->definitions.at("i")->predicate(), nullptr);
  EXPECT_EQ(program->definitions.at("j")->collapse_factor(), 7);
  EXPECT_EQ(program->definitions.at("k")->output_name(), "n");
  EXPECT_EQ(program->main, program->definitions.at("k"));
}

TEST(ParserTest, NameReferencesShareDefinitions) {
  auto program = ParseSequin(R"(
    a = select(base, x > 1);
    b = compose(a, a);
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  const LogicalOpPtr& b = program->definitions.at("b");
  // Clones, not aliases — the graph stays a tree (§2.2).
  EXPECT_NE(b->input(0).get(), b->input(1).get());
  EXPECT_EQ(b->input(0)->kind(), OpKind::kSelect);
}

TEST(ParserTest, ConstReference) {
  auto q = ParseSequinQuery("x = compose(s, const(k));");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ((*q)->input(1)->kind(), OpKind::kConstantRef);
}

TEST(ParserTest, PredicateGrammar) {
  auto q = ParseSequinQuery(
      "x = select(s, not (a < 1 or b == \"hi\") and pos() >= 10 and "
      "abs(c - 2) * 3 > 1.5);");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE((*q)->predicate()->ContainsPosition());
}

TEST(ParserTest, OperatorPrecedence) {
  auto q = ParseSequinQuery("x = select(s, a + b * 2 > 10 - 1);");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->predicate()->ToString(), "((a + (b * 2)) > (10 - 1))");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSequin("").ok());
  EXPECT_FALSE(ParseSequin("a = ;").ok());
  EXPECT_FALSE(ParseSequin("a = select(s);").ok());  // missing predicate
  EXPECT_FALSE(ParseSequin("a = frobnicate(s);").ok());
  EXPECT_FALSE(ParseSequin("a = select(s, x > 1)").ok());  // missing ';'
  EXPECT_FALSE(ParseSequin("a = s; a = s;").ok());         // redefinition
  EXPECT_FALSE(ParseSequin("a = voffset(s, 0);").ok());
  EXPECT_FALSE(ParseSequin("a = sum(s, c, over 0);").ok());
  EXPECT_FALSE(ParseSequin("a = collapse(s, 0, sum, c);").ok());
  auto err = ParseSequin("a = select(s, x >> 1);");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, ErrorMessagesCarryLocation) {
  auto err = ParseSequin("a = select(s,\n   !);");
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("line"), std::string::npos);
}

TEST(ParserTest, ExplainPrefix) {
  auto plain = ParseSequin("a = select(s, x > 1);");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->explain, ExplainMode::kNone);

  auto exp = ParseSequin("explain a = select(s, x > 1);");
  ASSERT_TRUE(exp.ok()) << exp.status();
  EXPECT_EQ(exp->explain, ExplainMode::kExplain);
  EXPECT_EQ(exp->order.size(), 1u);

  auto analyze = ParseSequin("explain analyze a = select(s, x > 1);");
  ASSERT_TRUE(analyze.ok()) << analyze.status();
  EXPECT_EQ(analyze->explain, ExplainMode::kExplainAnalyze);
  EXPECT_EQ(analyze->definitions.at("a")->kind(), OpKind::kSelect);
}

TEST(ParserTest, ExplainAsDefinitionNameStillParses) {
  // `explain` / `analyze` are not reserved words: followed by '=' they are
  // ordinary definition names.
  auto program = ParseSequin("explain = select(s, x > 1);");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->explain, ExplainMode::kNone);
  EXPECT_EQ(program->definitions.count("explain"), 1u);

  auto nested = ParseSequin("explain analyze = select(s, x > 1);");
  ASSERT_TRUE(nested.ok()) << nested.status();
  EXPECT_EQ(nested->explain, ExplainMode::kExplain);
  EXPECT_EQ(nested->definitions.count("analyze"), 1u);
}

// --- parse + run end-to-end -----------------------------------------------------

class ParserRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockSeriesOptions options;
    options.span = Span::Of(1, 300);
    options.density = 0.8;
    options.seed = 21;
    ASSERT_TRUE(engine_.RegisterBase("stock", *MakeStockSeries(options)).ok());
  }
  Engine engine_;
};

TEST_F(ParserRunTest, ParsedQueryMatchesBuilderQuery) {
  auto parsed = ParseSequinQuery(
      "x = sum(select(stock, close > 100.0), close, over 5);");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto built = SeqRef("stock")
                   .Select(Gt(Col("close"), Lit(100.0)))
                   .Agg(AggFunc::kSum, "close", 5)
                   .Build();
  auto r1 = engine_.Run({*parsed});
  auto r2 = engine_.Run({built});
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  ASSERT_EQ(r1->records.size(), r2->records.size());
  for (size_t i = 0; i < r1->records.size(); ++i) {
    EXPECT_EQ(r1->records[i].pos, r2->records[i].pos);
    EXPECT_EQ(r1->records[i].rec, r2->records[i].rec);
  }
}

TEST_F(ParserRunTest, MultiStatementProgramRuns) {
  auto parsed = ParseSequinQuery(R"(
    highs  = select(stock, close > high - 0.1);
    recent = prev(highs);
    both   = compose(stock, recent, left.close > right.close);
    answer = project(both, close);
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto result = engine_.Run({*parsed, Span::Of(1, 300)});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->schema->num_fields(), 1u);
}

TEST_F(ParserRunTest, UnknownBaseSurfacesAtOptimizeTime) {
  auto parsed = ParseSequinQuery("x = select(ghost, a > 1);");
  ASSERT_TRUE(parsed.ok());
  auto result = engine_.Run({*parsed});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace seq
