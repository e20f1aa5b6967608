// Error-path tests: every user mistake must surface as a descriptive
// Status of the right category, never a crash — plus robustness sweeps
// (parser fuzz, concurrent read-only queries).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "core/engine.h"
#include "exec/fault_injector.h"
#include "parser/parser.h"
#include "workload/generators.h"

namespace seq {
namespace {

class ErrorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IntSeriesOptions options;
    options.span = Span::Of(0, 99);
    options.density = 1.0;
    options.seed = 4;
    ASSERT_TRUE(engine_.RegisterBase("s", *MakeIntSeries(options)).ok());
  }
  Engine engine_;
};

TEST_F(ErrorsTest, UnknownSequence) {
  auto r = engine_.Run({SeqRef("ghost").Build()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("ghost"), std::string::npos);
}

TEST_F(ErrorsTest, UnknownColumnInSelect) {
  auto r = engine_.Run({SeqRef("s").Select(Gt(Col("nope"), Lit(1.0))).Build()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ErrorsTest, UnknownColumnInProjectAggCollapse) {
  EXPECT_FALSE(engine_.Run({SeqRef("s").Project({"zz"}).Build()}).ok());
  EXPECT_FALSE(
      engine_.Run({SeqRef("s").Agg(AggFunc::kSum, "zz", 3).Build()}).ok());
  EXPECT_FALSE(
      engine_.Run({SeqRef("s").Collapse(5, AggFunc::kSum, "zz").Build()})
          .ok());
}

TEST_F(ErrorsTest, TypeErrors) {
  // Comparing int column to string literal.
  auto r1 =
      engine_.Run({SeqRef("s").Select(Gt(Col("value"), Lit("abc"))).Build()});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kTypeError);
  // Non-bool predicate.
  auto r2 = engine_.Run(
      {SeqRef("s").Select(Add(Col("value"), Lit(int64_t{1}))).Build()});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kTypeError);
}

TEST_F(ErrorsTest, ComposePredicateSideValidation) {
  // A right-side reference in a single-input select.
  auto r =
      engine_.Run({SeqRef("s").Select(Gt(Col("value", 1), Lit(1.0))).Build()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST_F(ErrorsTest, ConstantRefToBaseAndViceVersa) {
  SchemaPtr cschema = Schema::Make({Field{"k", TypeId::kDouble}});
  ASSERT_TRUE(engine_
                  .RegisterConstant("c", cschema, Record{Value::Double(1.0)})
                  .ok());
  EXPECT_FALSE(engine_.Run({ConstRef("s").Build()}).ok());
  EXPECT_FALSE(engine_.Run({SeqRef("c").Build()}).ok());
}

TEST_F(ErrorsTest, UnboundedQueryOverConstantsRejected) {
  SchemaPtr cschema = Schema::Make({Field{"k", TypeId::kDouble}});
  ASSERT_TRUE(engine_
                  .RegisterConstant("c", cschema, Record{Value::Double(1.0)})
                  .ok());
  // A constant alone has no finite span and no base to bound it.
  auto r = engine_.Run({ConstRef("c").Build()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // With an explicit range it works and is dense.
  auto bounded = engine_.Run({ConstRef("c").Build(), Span::Of(1, 5)});
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_EQ(bounded->records.size(), 5u);
}

TEST_F(ErrorsTest, UnsortedPointPositionsRejected) {
  Query q;
  q.graph = SeqRef("s").Build();
  q.positions = {5, 3};
  auto r = engine_.Plan(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ErrorsTest, EmptyRangeYieldsEmptyResultNotError) {
  auto r = engine_.Run({SeqRef("s").Build(), Span::Of(500, 600)});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->records.empty());
  auto r2 = engine_.Run({SeqRef("s").Build(), Span::Empty()});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->records.empty());
}

TEST_F(ErrorsTest, StatusRendering) {
  Status s = Status::TypeError("boom");
  EXPECT_EQ(s.ToString(), "TypeError: boom");
  std::ostringstream oss;
  oss << s;
  EXPECT_EQ(oss.str(), "TypeError: boom");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

// --- injected-fault labeling (record-k error propagation) -----------------------

// A mid-stream fault at record k must surface as a Status naming the
// failing operator and the position it was processing — that pair is what
// makes a production incident debuggable. The sites that carry positions
// are per-record polls: kPageRead (scans) and kExprEval (predicates).
TEST_F(ErrorsTest, RecordKFaultCarriesOperatorLabelAndPosition) {
  struct Case {
    const char* name;
    QueryBuilder query;
    FaultSite site;
    int64_t k;
    const char* want_label;
    Position want_pos;
  };
  const QueryBuilder scan = SeqRef("s");
  const QueryBuilder select =
      SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{-1})));
  // "s" is dense over [0, 99], so the k-th per-record poll is position k-1.
  const std::vector<Case> cases = {
      {"scan-first-read", scan, FaultSite::kPageRead, 1, "op=BaseScan", 0},
      {"scan-kth-read", scan, FaultSite::kPageRead, 25, "op=BaseScan", 24},
      {"select-first-eval", select, FaultSite::kExprEval, 1, "op=Select", 0},
      {"select-kth-eval", select, FaultSite::kExprEval, 42, "op=Select", 41},
  };
  for (bool use_batch : {true, false}) {
    for (const Case& c : cases) {
      FaultInjector injector;
      injector.ArmAfter(c.site, c.k);
      RunOptions opts;
      opts.exec.use_batch = use_batch;
      opts.exec.fault_injector = &injector;
      auto r = engine_.Run({c.query.Build(), Span::Of(0, 99)}, opts);
      std::string label = std::string(c.name) +
                          (use_batch ? " [batch]" : " [tuple]");
      ASSERT_FALSE(r.ok()) << label;
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << label;
      const std::string& msg = r.status().message();
      EXPECT_NE(msg.find("injected fault"), std::string::npos)
          << label << ": " << msg;
      EXPECT_NE(msg.find(c.want_label), std::string::npos)
          << label << ": " << msg;
      EXPECT_NE(msg.find("pos=" + std::to_string(c.want_pos) + " "),
                std::string::npos)
          << label << ": " << msg;
    }
  }
}

// Open-time faults carry no position (nothing is flowing yet) but must
// still name the operator that failed to initialize. Sweeping the trigger
// count over a single-operator query eventually lands on that operator's
// Open, for every operator kind.
TEST_F(ErrorsTest, OpenFaultNamesEveryOperatorKind) {
  struct Case {
    const char* want_label_prefix;
    QueryBuilder query;
  };
  // "prices" has several columns so the projection below is not an
  // identity (identity projects are rewritten away and never open).
  StockSeriesOptions stock;
  stock.span = Span::Of(0, 99);
  stock.seed = 11;
  ASSERT_TRUE(engine_.RegisterBase("prices", *MakeStockSeries(stock)).ok());
  const std::vector<Case> cases = {
      {"BaseScan", SeqRef("s")},
      {"Select", SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{-1})))},
      {"Project", SeqRef("prices").Project({"close"})},
      {"PosOffset", SeqRef("s").Offset(2)},
      {"ValueOffset", SeqRef("s").Prev()},
      {"WindowAgg", SeqRef("s").Agg(AggFunc::kAvg, "value", 4)},
      // Range queries over running/overall aggregates plan as a probed
      // materialization, so that is the operator whose Open can fail.
      {"MaterializedAgg", SeqRef("s").RunningAgg(AggFunc::kSum, "value")},
      {"MaterializedAgg", SeqRef("s").OverallAgg(AggFunc::kMax, "value")},
      {"Compose", SeqRef("s").ComposeWith(SeqRef("s").Offset(1))},
      {"Collapse", SeqRef("s").Collapse(5, AggFunc::kSum, "value")},
      {"Expand", SeqRef("s").Collapse(5, AggFunc::kAvg, "value").Expand(5)},
  };
  for (const Case& c : cases) {
    std::set<std::string> labels;
    for (int64_t k = 1; k <= 8; ++k) {
      FaultInjector injector;
      injector.ArmAfter(FaultSite::kOperatorOpen, k);
      RunOptions opts;
      opts.exec.fault_injector = &injector;
      auto r = engine_.Run({c.query.Build(), Span::Of(0, 99)}, opts);
      if (injector.fired() == 0) {
        // Fewer than k Opens in the whole plan: the sweep is done.
        EXPECT_TRUE(r.ok()) << c.want_label_prefix << " k=" << k << ": "
                            << r.status();
        break;
      }
      ASSERT_FALSE(r.ok()) << c.want_label_prefix << " k=" << k;
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      const std::string& msg = r.status().message();
      size_t at = msg.find("op=");
      ASSERT_NE(at, std::string::npos) << msg;
      size_t end = msg.find_first_of(" ]", at);
      labels.insert(msg.substr(at + 3, end - at - 3));
    }
    bool found = false;
    for (const std::string& l : labels) {
      if (l.rfind(c.want_label_prefix, 0) == 0) found = true;
    }
    EXPECT_TRUE(found) << c.want_label_prefix << " not among "
                       << labels.size() << " open-fault labels";
  }
}

// --- parser fuzz ---------------------------------------------------------------

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    int len = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(rng.UniformInt(32, 126)));
    }
    (void)ParseSequin(input);  // must return a Status, never crash
  }
}

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  Rng rng(2025);
  const char* tokens[] = {"select", "(", ")", ",", ";", "=",   "prev",
                          "over",   "s", "x", "1", "+", "and", "\"q\"",
                          "compose", "as", ".", "pos", "running"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    int len = static_cast<int>(rng.UniformInt(1, 25));
    for (int i = 0; i < len; ++i) {
      input += tokens[rng.UniformInt(0, 18)];
      input += " ";
    }
    (void)ParseSequin(input);
  }
}

// --- concurrent read-only queries ------------------------------------------------

TEST(ConcurrencyTest, ParallelQueriesOnSharedEngine) {
  Engine engine;
  StockSeriesOptions s;
  s.span = Span::Of(1, 5000);
  s.density = 0.9;
  s.seed = 17;
  ASSERT_TRUE(engine.RegisterBase("prices", *MakeStockSeries(s)).ok());

  auto query = SeqRef("prices")
                   .Select(Gt(Col("close"), Lit(95.0)))
                   .Agg(AggFunc::kAvg, "close", 7)
                   .Build();
  auto reference = engine.Run({query});
  ASSERT_TRUE(reference.ok());
  size_t expected = reference->records.size();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 20; ++i) {
        auto result = engine.Run({query});
        if (!result.ok() || result->records.size() != expected) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace seq
