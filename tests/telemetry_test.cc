// Tests for the always-on telemetry layer: query-text digest
// normalization, the live query registry, the slow-query digest log, the
// Prometheus/JSON exporters, and the engine integration that ties them
// together (docs/observability.md).
//
// These tests exercise the PROCESS-GLOBAL registries (that is the layer
// under test), so each test resets them on entry; do not run tests from
// this binary in parallel within one process.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/slow_query_log.h"
#include "workload/generators.h"
#include "json_test_util.h"

namespace seq {
namespace {

using testutil::JsonParser;
using testutil::JsonValue;

// --- digest normalization ---------------------------------------------------

TEST(DigestTest, ParameterizesLiteralsFoldsCaseAndWhitespace) {
  // The contract from slow_query_log.h: literals -> `?`, ASCII case
  // folded, tokens joined by single spaces.
  EXPECT_EQ(NormalizeQueryText("select(IBM, close > 100.0)"),
            NormalizeQueryText("SELECT( ibm,close>7 )"));
  EXPECT_EQ(NormalizeQueryText("select(IBM, close > 100.0)"),
            "select ( ibm , close > ? )");

  // Number shapes: integers, decimals, exponents all collapse to one `?`.
  EXPECT_EQ(NormalizeQueryText("x > 7"), NormalizeQueryText("x > 1.5e-3"));
  // String literals are parameterized too.
  EXPECT_EQ(NormalizeQueryText("name = \"Acme\""),
            NormalizeQueryText("name = \"Globex\""));
  // Layout never matters.
  EXPECT_EQ(NormalizeQueryText("a  >\n\t b"), "a > b");
  // Different shapes stay different.
  EXPECT_NE(NormalizeQueryText("select(s, a > 1)"),
            NormalizeQueryText("select(s, a < 1)"));
}

// --- QueryRegistry ----------------------------------------------------------

TEST(QueryRegistryTest, StartLiveFinishRing) {
  QueryRegistry registry;
  EXPECT_EQ(registry.live_count(), 0u);

  QueryRegistry::Ticket t = registry.Start("q1 text", "q1 digest");
  ASSERT_TRUE(t.active());
  ASSERT_NE(t.telemetry(), nullptr);
  t.telemetry()->rows.store(42, std::memory_order_relaxed);
  t.telemetry()->pages.store(7, std::memory_order_relaxed);
  t.set_state(QueryState::kExecuting);

  std::vector<LiveQueryInfo> live = registry.Live();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].id, t.id());
  EXPECT_EQ(live[0].text, "q1 text");
  EXPECT_EQ(live[0].digest, "q1 digest");
  EXPECT_EQ(live[0].state, QueryState::kExecuting);
  EXPECT_EQ(live[0].rows, 42);
  EXPECT_EQ(live[0].pages, 7);

  CompletedQueryInfo done = t.Finish(true, "OK");
  EXPECT_EQ(done.rows, 42);
  EXPECT_EQ(done.pages, 7);
  EXPECT_TRUE(done.ok);
  EXPECT_EQ(registry.live_count(), 0u);
  EXPECT_EQ(registry.started(), 1);
  EXPECT_EQ(registry.completed(), 1);

  std::vector<CompletedQueryInfo> recent = registry.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].id, done.id);
  EXPECT_EQ(recent[0].status, "OK");

  // Finish is idempotent: a second call does not double-count.
  t.Finish(true, "OK");
  EXPECT_EQ(registry.completed(), 1);
}

TEST(QueryRegistryTest, RingCapsAtConfiguredSizeNewestFirst) {
  QueryRegistry registry;
  registry.set_ring_capacity(3);
  for (int i = 0; i < 5; ++i) {
    QueryRegistry::Ticket t =
        registry.Start("q" + std::to_string(i), "digest");
    t.Finish(true, "OK");
  }
  std::vector<CompletedQueryInfo> recent = registry.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].text, "q4");  // most recent first
  EXPECT_EQ(recent[1].text, "q3");
  EXPECT_EQ(recent[2].text, "q2");
  EXPECT_EQ(registry.completed(), 5);
}

TEST(QueryRegistryTest, AbandonedTicketFinishesAsInternalFailure) {
  QueryRegistry registry;
  { QueryRegistry::Ticket t = registry.Start("doomed", "doomed"); }
  std::vector<CompletedQueryInfo> recent = registry.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_FALSE(recent[0].ok);
  EXPECT_EQ(recent[0].status, "Internal");
}

TEST(QueryRegistryTest, DisabledRegistryHandsOutInactiveTickets) {
  QueryRegistry registry;
  registry.set_enabled(false);
  QueryRegistry::Ticket t = registry.Start("q", "q");
  EXPECT_FALSE(t.active());
  EXPECT_EQ(t.telemetry(), nullptr);
  t.set_state(QueryState::kExecuting);  // all no-ops, must not crash
  EXPECT_EQ(t.Finish(true, "OK").id, 0u);
  EXPECT_EQ(registry.started(), 0);
  EXPECT_EQ(registry.Live().size(), 0u);
  EXPECT_EQ(registry.Recent().size(), 0u);
}

TEST(QueryRegistryTest, MovedTicketTransfersOwnership) {
  QueryRegistry registry;
  QueryRegistry::Ticket a = registry.Start("q", "q");
  QueryRegistry::Ticket b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  b.Finish(true, "OK");
  EXPECT_EQ(registry.completed(), 1);
}

// --- SlowQueryLog -----------------------------------------------------------

TEST(SlowQueryLogTest, ThresholdSemantics) {
  SlowQueryLog log;
  log.set_threshold_ms(10.0);
  EXPECT_FALSE(log.ShouldLog(9999.0));   // 9.999 ms
  EXPECT_TRUE(log.ShouldLog(10000.0));   // exactly the threshold
  log.set_threshold_ms(0.0);
  EXPECT_TRUE(log.ShouldLog(0.0));       // zero logs everything
  log.set_threshold_ms(-1.0);
  EXPECT_FALSE(log.ShouldLog(1e12));     // negative disables
}

TEST(SlowQueryLogTest, AccumulatesPerDigestAndKeepsWorstExemplar) {
  SlowQueryLog log;
  log.set_threshold_ms(0.0);
  log.Record("q = select ( s , x > ? )", "q = select(s, x > 1)", 1, 1000.0,
             10, 2, "OK");
  log.Record("q = select ( s , x > ? )", "q = select(s, x > 99)", 2, 5000.0,
             50, 8, "OK");
  log.Record("q = select ( s , x > ? )", "q = select(s, x > 5)", 3, 2000.0,
             20, 4, "DeadlineExceeded");
  log.Record("other", "other", 4, 100.0, 1, 1, "OK");

  std::vector<SlowQueryDigestStats> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // Sorted by total time descending.
  EXPECT_EQ(snap[0].digest, "q = select ( s , x > ? )");
  EXPECT_EQ(snap[0].count, 3);
  EXPECT_DOUBLE_EQ(snap[0].total_us, 8000.0);
  EXPECT_DOUBLE_EQ(snap[0].min_us, 1000.0);
  EXPECT_DOUBLE_EQ(snap[0].max_us, 5000.0);
  EXPECT_EQ(snap[0].total_rows, 80);
  EXPECT_EQ(snap[0].total_pages, 14);
  // The worst exemplar keeps the original literals of the slowest run.
  EXPECT_EQ(snap[0].worst_text, "q = select(s, x > 99)");
  EXPECT_EQ(snap[0].worst_query_id, 2u);
  EXPECT_DOUBLE_EQ(snap[0].worst_us, 5000.0);
  EXPECT_EQ(snap[0].last_status, "DeadlineExceeded");

  std::string text = log.ToString();
  EXPECT_NE(text.find("q = select ( s , x > ? )"), std::string::npos);
  EXPECT_NE(text.find("q = select(s, x > 99)"), std::string::npos);

  log.Reset();
  EXPECT_EQ(log.Snapshot().size(), 0u);
}

TEST(SlowQueryLogTest, DigestCapCountsDropsWithoutGrowing) {
  SlowQueryLog log;
  log.set_threshold_ms(0.0);
  for (size_t i = 0; i < SlowQueryLog::kMaxDigests + 10; ++i) {
    log.Record("digest" + std::to_string(i), "text", i, 1.0, 0, 0, "OK");
  }
  EXPECT_EQ(log.Snapshot().size(), SlowQueryLog::kMaxDigests);
  EXPECT_EQ(log.dropped_digests(), 10);
  // Known digests keep accumulating even at the cap.
  log.Record("digest0", "text", 999, 1.0, 0, 0, "OK");
  EXPECT_EQ(log.dropped_digests(), 10);
}

// --- engine integration -----------------------------------------------------

class TelemetryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    QueryRegistry::Global().Reset();
    QueryRegistry::Global().set_enabled(true);
    SlowQueryLog::Global().Reset();
    SlowQueryLog::Global().set_threshold_ms(-1.0);  // quiet by default

    IntSeriesOptions options;
    options.span = Span::Of(0, 1999);
    options.density = 0.9;
    options.seed = 11;
    ASSERT_TRUE(engine_.RegisterBase("s", *MakeIntSeries(options)).ok());
  }
  void TearDown() override {
    SlowQueryLog::Global().Reset();
    SlowQueryLog::Global().set_threshold_ms(100.0);
  }

  Query SelectQuery(int64_t bound) const {
    Query q;
    q.graph = SeqRef("s").Select(Gt(Col("value"), Lit(bound))).Build();
    return q;
  }

  Engine engine_;
};

TEST_F(TelemetryEngineTest, RunLandsInRegistryWithRowsAndPages) {
  const int64_t runs_before = MetricsRegistry::Global().Get("engine.runs");
  auto result = engine_.Run(SelectQuery(500), RunOptions{});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->records.size(), 0u);

  std::vector<CompletedQueryInfo> recent = QueryRegistry::Global().Recent();
  ASSERT_GE(recent.size(), 1u);
  const CompletedQueryInfo& done = recent[0];
  EXPECT_TRUE(done.ok);
  EXPECT_EQ(done.status, "OK");
  EXPECT_EQ(done.rows, static_cast<int64_t>(result->records.size()));
  EXPECT_GT(done.pages, 0);
  EXPECT_GE(done.wall_us, 0);
  // The registry text is the unparsed query; the digest parameterizes it.
  EXPECT_NE(done.text.find("select"), std::string::npos) << done.text;
  EXPECT_NE(done.digest.find("?"), std::string::npos) << done.digest;
  EXPECT_EQ(QueryRegistry::Global().live_count(), 0u);
  EXPECT_EQ(MetricsRegistry::Global().Get("engine.runs"), runs_before + 1);
}

TEST_F(TelemetryEngineTest, FailedRunRecordsFailureStatus) {
  const int64_t failed_before =
      MetricsRegistry::Global().Get("engine.failed_runs");
  Query q;
  q.graph = SeqRef("missing_sequence").Build();
  auto result = engine_.Run(q, RunOptions{});
  ASSERT_FALSE(result.ok());

  std::vector<CompletedQueryInfo> recent = QueryRegistry::Global().Recent();
  ASSERT_GE(recent.size(), 1u);
  EXPECT_FALSE(recent[0].ok);
  EXPECT_NE(recent[0].status, "OK");
  EXPECT_EQ(MetricsRegistry::Global().Get("engine.failed_runs"),
            failed_before + 1);
}

TEST_F(TelemetryEngineTest, SinkRunIsVisibleLiveWhileExecuting) {
  // The sink runs inside execution, so it can observe the registry
  // mid-query — a sink run always drives serially, with one worker.
  bool saw_live = false;
  LiveQueryInfo observed;
  RunOptions opts;
  opts.sink = [&](Position, const Record&) {
    if (saw_live) return;
    for (const LiveQueryInfo& info : QueryRegistry::Global().Live()) {
      if (info.state == QueryState::kExecuting && info.workers >= 1) {
        observed = info;
        saw_live = true;
      }
    }
  };
  auto result = engine_.Run(SelectQuery(100), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(saw_live);
  EXPECT_NE(observed.text.find("select"), std::string::npos);
  EXPECT_EQ(QueryRegistry::Global().live_count(), 0u);
}

TEST_F(TelemetryEngineTest, ParallelRunReportsMorselsAndWorkers) {
  const int64_t morsels_before = MetricsRegistry::Global().Get("exec.morsels");
  RunOptions opts;
  opts.exec.use_batch = true;  // morsel parallelism needs batch driving,
                               // even when SEQ_USE_BATCH=0 is the default
  opts.exec.parallelism = 4;
  opts.exec.morsel_size = 256;  // ~8 morsels over the 2000-position span
  auto result = engine_.Run(SelectQuery(100), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->records.size(), 0u);

  // The run completed: its morsels were counted in the always-on metric
  // and its per-morsel latencies landed in the histogram.
  const int64_t morsels = MetricsRegistry::Global().Get("exec.morsels");
  EXPECT_GE(morsels, morsels_before + 2) << "expected a parallel run";
  EXPECT_GT(
      MetricsRegistry::Global().GetHistogramSnapshot("exec.morsel_us").count,
      0);

  std::vector<CompletedQueryInfo> recent = QueryRegistry::Global().Recent();
  ASSERT_GE(recent.size(), 1u);
  EXPECT_EQ(recent[0].rows, static_cast<int64_t>(result->records.size()));
  EXPECT_GT(recent[0].pages, 0);
}

TEST_F(TelemetryEngineTest, PreparedRunUsesCapturedTextAndDigest) {
  auto prepared = engine_.Prepare(SelectQuery(500));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto result = prepared->Run(RunOptions{});
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<CompletedQueryInfo> recent = QueryRegistry::Global().Recent();
  ASSERT_GE(recent.size(), 1u);
  EXPECT_NE(recent[0].text.find("select"), std::string::npos);
  EXPECT_NE(recent[0].digest.find("?"), std::string::npos);
  EXPECT_EQ(recent[0].rows, static_cast<int64_t>(result->records.size()));
}

TEST_F(TelemetryEngineTest, SlowLogCapturesRunAtThresholdZero) {
  SlowQueryLog::Global().set_threshold_ms(0.0);
  auto result = engine_.Run(SelectQuery(750), RunOptions{});
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<SlowQueryDigestStats> snap = SlowQueryLog::Global().Snapshot();
  ASSERT_GE(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 1);
  EXPECT_NE(snap[0].digest.find("?"), std::string::npos) << snap[0].digest;
  // The exemplar keeps the literal that ran.
  EXPECT_NE(snap[0].worst_text.find("750"), std::string::npos)
      << snap[0].worst_text;

  // Same shape, different literal: one digest, two observations.
  ASSERT_TRUE(engine_.Run(SelectQuery(900), RunOptions{}).ok());
  snap = SlowQueryLog::Global().Snapshot();
  ASSERT_GE(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 2);
}

TEST_F(TelemetryEngineTest, DisabledRegistrySkipsRegistration) {
  QueryRegistry::Global().set_enabled(false);
  auto result = engine_.Run(SelectQuery(500), RunOptions{});
  QueryRegistry::Global().set_enabled(true);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(QueryRegistry::Global().Recent().size(), 0u);
  EXPECT_EQ(QueryRegistry::Global().started(), 0);
}

// --- exporters --------------------------------------------------------------

TEST_F(TelemetryEngineTest, PrometheusExportHasWellFormedSeries) {
  SlowQueryLog::Global().set_threshold_ms(0.0);
  ASSERT_TRUE(engine_.Run(SelectQuery(500), RunOptions{}).ok());

  TelemetrySnapshot snap = CaptureTelemetry();
  EXPECT_GE(snap.queries_started, 1);
  EXPECT_GE(snap.queries_completed, 1);
  ASSERT_GE(snap.slow.size(), 1u);

  std::string prom = RenderPrometheus(snap);
  // Counter with sanitized name.
  EXPECT_NE(prom.find("# TYPE seq_engine_runs counter"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("\nseq_engine_runs "), std::string::npos);
  // Histogram series: cumulative buckets plus +Inf, _sum and _count.
  EXPECT_NE(prom.find("# TYPE seq_engine_run_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("seq_engine_run_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("seq_engine_run_us_sum"), std::string::npos);
  EXPECT_NE(prom.find("seq_engine_run_us_count"), std::string::npos);
  // Dist summary and registry gauges.
  EXPECT_NE(prom.find("seq_engine_rows_count"), std::string::npos);
  EXPECT_NE(prom.find("seq_queries_live "), std::string::npos);
  EXPECT_NE(prom.find("seq_queries_started "), std::string::npos);
  EXPECT_NE(prom.find("seq_slow_query_threshold_ms "), std::string::npos);
  // Every non-comment line is "name{labels} value" or "name value".
  size_t pos = 0;
  while (pos < prom.size()) {
    size_t eol = prom.find('\n', pos);
    if (eol == std::string::npos) eol = prom.size();
    std::string line = prom.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    // The value parses as a double.
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

TEST_F(TelemetryEngineTest, JsonExportParsesAndMatchesSnapshot) {
  SlowQueryLog::Global().set_threshold_ms(0.0);
  ASSERT_TRUE(engine_.Run(SelectQuery(500), RunOptions{}).ok());
  ASSERT_TRUE(engine_.Run(SelectQuery(900), RunOptions{}).ok());

  TelemetrySnapshot snap = CaptureTelemetry();
  std::string json = RenderJson(snap);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).Parse(&doc)) << json;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);

  const JsonValue* counters = doc.Get("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* runs = counters->Get("engine.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->num_value,
            static_cast<double>(snap.counters.at("engine.runs")));

  const JsonValue* queries = doc.Get("queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->Get("started")->num_value,
            static_cast<double>(snap.queries_started));
  const JsonValue* recent = queries->Get("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->kind, JsonValue::Kind::kArray);
  ASSERT_GE(recent->array.size(), 2u);
  const JsonValue& last = recent->array[0];
  EXPECT_EQ(last.Get("status")->str_value, "OK");
  EXPECT_GT(last.Get("rows")->num_value, 0.0);

  const JsonValue* slow = doc.Get("slow_query_log");
  ASSERT_NE(slow, nullptr);
  const JsonValue* digests = slow->Get("digests");
  ASSERT_NE(digests, nullptr);
  ASSERT_GE(digests->array.size(), 1u);
  EXPECT_EQ(digests->array[0].Get("count")->num_value, 2.0);

  const JsonValue* hists = doc.Get("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* run_us = hists->Get("engine.run_us");
  ASSERT_NE(run_us, nullptr);
  EXPECT_GE(run_us->Get("count")->num_value, 2.0);
  EXPECT_NE(run_us->Get("p99"), nullptr);
}

// --- concurrency ------------------------------------------------------------

// Stress the always-on layer the way production uses it: many threads
// running engine queries (registry Start/Finish, counters, histograms,
// slow log) while other threads continuously snapshot everything. Run
// under the ThreadSanitizer CI job; sized to finish quickly there.
TEST_F(TelemetryEngineTest, ConcurrentRunsAndSnapshotsAreRaceFree) {
  SlowQueryLog::Global().set_threshold_ms(0.0);
  constexpr int kWriters = 4;
  constexpr int kRunsPerWriter = 12;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([this, t, &failures] {
      for (int i = 0; i < kRunsPerWriter; ++i) {
        RunOptions opts;
        if (i % 3 == 0) {
          opts.exec.use_batch = true;
          opts.exec.parallelism = 2;
          opts.exec.morsel_size = 512;
        }
        auto result = engine_.Run(SelectQuery(100 + 50 * t + i), opts);
        if (!result.ok()) failures.fetch_add(1);
      }
    });
  }
  // Readers: registry snapshots, full telemetry captures, both exports.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)QueryRegistry::Global().Live();
        (void)QueryRegistry::Global().Recent();
        TelemetrySnapshot snap = CaptureTelemetry();
        (void)RenderPrometheus(snap);
        (void)RenderJson(snap);
        (void)MetricsRegistry::Global().ToString();
        (void)SlowQueryLog::Global().ToString();
        std::this_thread::yield();
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(QueryRegistry::Global().live_count(), 0u);
  EXPECT_GE(QueryRegistry::Global().completed(), kWriters * kRunsPerWriter);
  std::vector<SlowQueryDigestStats> snap = SlowQueryLog::Global().Snapshot();
  int64_t total = 0;
  for (const SlowQueryDigestStats& d : snap) total += d.count;
  EXPECT_EQ(total, kWriters * kRunsPerWriter);
}

}  // namespace
}  // namespace seq
