// Tests for profiled execution and EXPLAIN ANALYZE: a profiled Run must agree
// with the plain Run path, drift must be zero when the catalog statistics
// are exact, and the rendered report must show estimated vs actual numbers
// for every operator plus the optimizer's decision trace.

#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace seq {
namespace {

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IntSeriesOptions options;
    options.span = Span::Of(0, 199);
    options.density = 0.8;
    options.seed = 3;
    ASSERT_TRUE(engine_.RegisterBase("s", *MakeIntSeries(options)).ok());
  }

  static Query RangeQuery(LogicalOpPtr graph) {
    Query q;
    q.graph = std::move(graph);
    q.range = Span::Of(0, 199);
    return q;
  }

  /// Profiled run through the RunOptions API; the profile lands in
  /// QueryResult::profile.
  Result<QueryResult> RunProfiled(const Query& query,
                                  AccessStats* stats = nullptr) {
    RunOptions opts;
    opts.profile = true;
    opts.stats = stats;
    return engine_.Run(query, opts);
  }

  Engine engine_;
};

// --- RunProfiled vs Run ------------------------------------------------------

TEST_F(ExplainAnalyzeTest, ProfiledRunMatchesPlainRun) {
  auto graph = SeqRef("s")
                   .Select(Gt(Col("value"), Lit(int64_t{300})))
                   .Agg(AggFunc::kAvg, "value", 3)
                   .Build();

  AccessStats plain_stats;
  auto plain = engine_.Run(RangeQuery(graph->Clone()), {.stats = &plain_stats});
  ASSERT_TRUE(plain.ok()) << plain.status();

  AccessStats profiled_stats;
  auto profiled = RunProfiled(RangeQuery(graph->Clone()), &profiled_stats);
  ASSERT_TRUE(profiled.ok()) << profiled.status();

  // Same answer...
  ASSERT_EQ(profiled->records.size(), plain->records.size());
  // ...and the same simulated work: instrumentation must not change what
  // the operators do, only measure it.
  EXPECT_EQ(profiled_stats.stream_records, plain_stats.stream_records);
  EXPECT_EQ(profiled_stats.probes, plain_stats.probes);
  EXPECT_EQ(profiled_stats.cache_hits, plain_stats.cache_hits);
  EXPECT_EQ(profiled_stats.agg_steps, plain_stats.agg_steps);
  EXPECT_DOUBLE_EQ(profiled_stats.simulated_cost, plain_stats.simulated_cost);
  // The out-param and the profile's embedded stats agree.
  ASSERT_TRUE(profiled->profile.has_value());
  EXPECT_DOUBLE_EQ(profiled->profile->stats.simulated_cost,
                   plain_stats.simulated_cost);
}

TEST_F(ExplainAnalyzeTest, ProfileTreeCountsRowsPerOperator) {
  auto profiled = RunProfiled(
      RangeQuery(SeqRef("s")
                     .Select(Gt(Col("value"), Lit(int64_t{300})))
                     .Build()));
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  ASSERT_TRUE(profiled->profile.has_value());
  const QueryProfile& profile = *profiled->profile;
  ASSERT_NE(profile.root, nullptr);

  // Root rows == result rows; wall time was measured.
  EXPECT_EQ(profile.root->rows_out,
            static_cast<int64_t>(profiled->records.size()));
  EXPECT_GT(profile.total_wall_ns, 0);
  EXPECT_GE(profile.root->wall_ns, 0);

  // The tree has the plan's operators under the synthetic root, and the
  // leaf scan emits at least as many rows as survive the select.
  ASSERT_EQ(profile.root->children.size(), 1u);
  int64_t leaf_rows = 0;
  profile.root->Visit([&](const OperatorProfile& op, int) {
    if (op.label.find("BaseRef") != std::string::npos) {
      leaf_rows = op.rows_out;
    }
  });
  EXPECT_GE(leaf_rows, profile.root->rows_out);
  EXPECT_GT(leaf_rows, 0);
}

// --- drift on exact statistics ----------------------------------------------

TEST_F(ExplainAnalyzeTest, BareScanHasNoDrift) {
  // A bare base-sequence scan: the catalog's record count is exact, so the
  // estimated and actual row counts must agree at every node.
  auto profiled = RunProfiled(RangeQuery(SeqRef("s").Build()));
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  ASSERT_TRUE(profiled->profile.has_value());
  const QueryProfile& profile = *profiled->profile;
  EXPECT_NEAR(profile.MaxQError(), 1.0, 1e-9);
  EXPECT_NEAR(profile.MeanQError(), 1.0, 1e-9);
  EXPECT_NEAR(profile.root->est_rows,
              static_cast<double>(profile.root->rows_out), 1e-6);
}

// --- EXPLAIN ANALYZE rendering ----------------------------------------------

TEST_F(ExplainAnalyzeTest, ReportShowsEstimatedVersusActualPerOperator) {
  // The representative shape from the issue: select + offset + compose.
  auto graph = SeqRef("s")
                   .Select(Gt(Col("value"), Lit(int64_t{200})))
                   .ComposeWith(SeqRef("s").Offset(1),
                                Gt(Col("value", 0), Col("value", 1)))
                   .Build();
  auto text = engine_.ExplainAnalyze(RangeQuery(std::move(graph)));
  ASSERT_TRUE(text.ok()) << text.status();

  // All four report sections are present.
  EXPECT_NE(text->find("=== plan (estimated vs actual) ==="),
            std::string::npos);
  EXPECT_NE(text->find("=== optimizer trace ==="), std::string::npos);
  EXPECT_NE(text->find("=== cost-model drift ==="), std::string::npos);
  EXPECT_NE(text->find("=== totals ==="), std::string::npos);

  // Every operator of the plan shows up with est-vs-actual annotations.
  for (const char* token :
       {"Compose", "Select", "PositionalOffset", "BaseRef", "est_rows=",
        "act_rows=", "est_cost=", "act_cost=", "q_err=", "wall="}) {
    EXPECT_NE(text->find(token), std::string::npos) << token;
  }

  // The drift summary and the optimizer's decisions are rendered.
  EXPECT_NE(text->find("per-node row q-error: max="), std::string::npos);
  EXPECT_NE(text->find("root cost drift: est="), std::string::npos);
  EXPECT_NE(text->find("optimize time:"), std::string::npos);
  EXPECT_NE(text->find("[choice] root:"), std::string::npos);
  EXPECT_NE(text->find("access: stream_records="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, TraceRecordsRewriteDecisions) {
  // Select over offset with a pos()-free predicate: the pushdown applies
  // and must appear in the trace.
  auto pushed = RunProfiled(
      RangeQuery(SeqRef("s")
                     .Offset(2)
                     .Select(Gt(Col("value"), Lit(int64_t{100})))
                     .Build()));
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  ASSERT_TRUE(pushed->profile.has_value());
  EXPECT_FALSE(pushed->profile->optimizer.Stage("rewrite").empty());
  EXPECT_FALSE(pushed->profile->optimizer.Stage("choice").empty());
  // The executor's driving decision (serial vs morsel-parallel) is traced.
  EXPECT_FALSE(pushed->profile->optimizer.Stage("execution").empty());
  EXPECT_GE(pushed->profile->optimizer.optimize_us, 0);

  // A predicate on pos() blocks the same pushdown; the rejection is traced
  // with its reason.
  auto rejected = RunProfiled(
      RangeQuery(SeqRef("s")
                     .Offset(2)
                     .Select(Gt(Expr::Position(), Lit(int64_t{5})))
                     .Build()));
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  ASSERT_TRUE(rejected->profile.has_value());
  bool saw_reason = false;
  for (const OptTraceEntry* e :
       rejected->profile->optimizer.Stage("rewrite-rejected")) {
    if (e->detail.find("pos()") != std::string::npos) saw_reason = true;
  }
  EXPECT_TRUE(saw_reason);
}

// --- profiled flame-graph export --------------------------------------------

TEST_F(ExplainAnalyzeTest, ProfileExportsTraceEvents) {
  auto profiled = RunProfiled(
      RangeQuery(SeqRef("s")
                     .Select(Gt(Col("value"), Lit(int64_t{300})))
                     .Agg(AggFunc::kMax, "value", 4)
                     .Build()));
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  ASSERT_TRUE(profiled->profile.has_value());

  TraceRecorder recorder;
  profiled->profile->EmitTraceEvents(&recorder);
  ASSERT_FALSE(recorder.empty());

  // One "execute" span on the executor lane, the optimize span on lane 0,
  // and a span per operator. Spans nest: every operator fits inside the
  // execute span.
  int64_t exec_start = -1;
  int64_t exec_end = -1;
  for (const TraceEvent& e : recorder.events()) {
    if (e.name == "execute") {
      exec_start = e.ts_us;
      exec_end = e.ts_us + e.dur_us;
    }
  }
  ASSERT_GE(exec_start, 0);  // the execute span exists
  int operators = 0;
  for (const TraceEvent& e : recorder.events()) {
    if (e.category == "operator") {
      ++operators;
      EXPECT_GE(e.ts_us, exec_start) << e.name;
      EXPECT_LE(e.ts_us + e.dur_us, exec_end) << e.name;
    }
  }
  EXPECT_GE(operators, 3);  // synthetic root + agg + select at minimum
}

}  // namespace
}  // namespace seq
