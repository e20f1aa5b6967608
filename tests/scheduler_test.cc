// Tests for the process-wide query scheduler (exec/scheduler.h): admission
// control (slots, bounded queue, timeouts, priorities), FIFO + fair
// round-robin task dispatch on the shared worker pool, the executor
// integration (16 concurrent queries never exceed the configured worker
// count, rows+stats byte-identical to serial).
//
// The stress test asserts on QueryScheduler::Global()'s monotone
// peak_active_workers, so it must be the FIRST test in this binary to run
// a parallel query on the global scheduler — suites below are declared in
// that order; keep it that way.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/scheduler.h"
#include "obs/query_registry.h"
#include "workload/generators.h"

namespace seq {
namespace {

// --- env-knob validation ----------------------------------------------------

TEST(ValidatedEnvIntTest, AcceptsWholeStringIntegersOnly) {
  constexpr const char* kVar = "SEQ_TEST_ENV_INT";
  unsetenv(kVar);
  EXPECT_EQ(ValidatedEnvInt(kVar, 1, 7), 7);

  setenv(kVar, "4", 1);
  EXPECT_EQ(ValidatedEnvInt(kVar, 1, 7), 4);

  // Garbage, trailing junk, negatives and below-minimum values are all
  // rejected with the fallback instead of silently adopted (the old
  // std::atoi path turned "8garbage" into 8 and "banana" into 0).
  setenv(kVar, "banana", 1);
  EXPECT_EQ(ValidatedEnvInt(kVar, 1, 7), 7);
  setenv(kVar, "8garbage", 1);
  EXPECT_EQ(ValidatedEnvInt(kVar, 1, 7), 7);
  setenv(kVar, "-3", 1);
  EXPECT_EQ(ValidatedEnvInt(kVar, 1, 7), 7);
  setenv(kVar, "0", 1);
  EXPECT_EQ(ValidatedEnvInt(kVar, 1, 7), 7);
  setenv(kVar, "", 1);
  EXPECT_EQ(ValidatedEnvInt(kVar, 1, 7), 7);
  setenv(kVar, "99999999999999999999", 1);  // overflows long
  EXPECT_EQ(ValidatedEnvInt(kVar, 1, 7), 7);

  // min_value 0 admits zero (the shape .sched limit uses).
  setenv(kVar, "0", 1);
  EXPECT_EQ(ValidatedEnvInt(kVar, 0, 7), 0);
  unsetenv(kVar);
}

// --- dispatch order ---------------------------------------------------------

TEST(QuerySchedulerTest, SingleWorkerClaimsTasksFifo) {
  QueryScheduler sched;
  sched.SetWorkers(1);
  std::mutex mu;
  std::vector<size_t> order;
  sched.RunGroup(16, /*share_cap=*/1, QueryPriority::kNormal, [&](size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i) << "tasks must be claimed in submission order "
                              "(the old per-query pool drained LIFO)";
  }
  const SchedulerStats stats = sched.Stats();
  EXPECT_EQ(stats.tasks, 16);
  EXPECT_EQ(stats.groups, 1);
  EXPECT_LE(stats.peak_active_workers, 1);
}

TEST(QuerySchedulerTest, ShareCapBoundsConcurrencyWithinOneGroup) {
  QueryScheduler sched;
  sched.SetWorkers(4);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  sched.RunGroup(32, /*share_cap=*/2, QueryPriority::kNormal, [&](size_t) {
    const int now = inside.fetch_add(1) + 1;
    int prev = peak.load();
    while (prev < now && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    inside.fetch_sub(1);
  });
  EXPECT_LE(peak.load(), 2) << "share cap must bound per-query concurrency";
  EXPECT_LE(sched.Stats().peak_active_workers, 4);
}

TEST(QuerySchedulerTest, HighPriorityGroupDispatchedFirst) {
  QueryScheduler sched;
  sched.SetWorkers(1);

  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release{false};
  std::mutex mu;
  std::vector<std::string> order;

  // Occupy the single worker so the low and high groups both queue.
  std::thread blocker([&] {
    sched.RunGroup(1, 1, QueryPriority::kNormal, [&](size_t) {
      blocker_started.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  while (!blocker_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread low([&] {
    sched.RunGroup(1, 1, QueryPriority::kLow, [&](size_t) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back("low");
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread high([&] {
    sched.RunGroup(1, 1, QueryPriority::kHigh, [&](size_t) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back("high");
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  release.store(true);
  blocker.join();
  low.join();
  high.join();

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high")
      << "the high-priority group arrived later but must run first";
  EXPECT_EQ(order[1], "low");
}

// --- admission control ------------------------------------------------------

TEST(QuerySchedulerTest, AdmissionSlotsAndRelease) {
  QueryScheduler sched;
  sched.SetMaxRunning(1);

  auto first = sched.Admit({});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->active());
  EXPECT_EQ(first->queue_wait_us(), 0);

  // The slot is taken: a bounded wait times out with ResourceExhausted.
  QueryScheduler::AdmitRequest bounded;
  bounded.timeout_ms = 30;
  auto second = sched.Admit(bounded);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("timed out"), std::string::npos)
      << second.status();

  // Releasing frees the slot for the next arrival immediately.
  first->Release();
  EXPECT_FALSE(first->active());
  auto third = sched.Admit(bounded);
  ASSERT_TRUE(third.ok()) << third.status();

  const SchedulerStats stats = sched.Stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.rejected_timeout, 1);
  EXPECT_EQ(stats.running, 1);
}

TEST(QuerySchedulerTest, FullWaitQueueRejectsImmediately) {
  QueryScheduler sched;
  sched.SetMaxRunning(1);
  sched.SetMaxQueued(0);  // no waiting at all: reject when no slot is free

  auto holder = sched.Admit({});
  ASSERT_TRUE(holder.ok());
  auto rejected = sched.Admit({});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("queue is full"),
            std::string::npos)
      << rejected.status();
  EXPECT_EQ(sched.Stats().rejected_queue_full, 1);
}

TEST(QuerySchedulerTest, QueuedWaiterAbandonsOnCancelAndDeadline) {
  QueryScheduler sched;
  sched.SetMaxRunning(1);
  auto holder = sched.Admit({});
  ASSERT_TRUE(holder.ok());

  std::atomic<bool> cancel{true};
  QueryScheduler::AdmitRequest cancelled;
  cancelled.cancel = &cancel;
  auto c = sched.Admit(cancelled);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kCancelled);

  QueryScheduler::AdmitRequest expired;
  expired.timeout_ms = -1;  // wait forever — but the budget is already gone
  expired.deadline = std::chrono::steady_clock::now();
  auto d = sched.Admit(expired);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kDeadlineExceeded);

  // Abandoned waiters left the queue: releasing the slot admits no ghost.
  holder->Release();
  EXPECT_EQ(sched.Stats().queued, 0u);
  EXPECT_EQ(sched.Stats().running, 0);
}

TEST(QuerySchedulerTest, HighPriorityWaiterAdmittedBeforeEarlierLow) {
  QueryScheduler sched;
  sched.SetMaxRunning(1);
  auto holder = sched.Admit({});
  ASSERT_TRUE(holder.ok());

  std::mutex mu;
  std::vector<std::string> order;
  auto waiter = [&](QueryPriority p, const char* name) {
    QueryScheduler::AdmitRequest req;
    req.priority = p;
    req.timeout_ms = -1;
    auto a = sched.Admit(req);
    ASSERT_TRUE(a.ok()) << a.status();
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(name);
    }
    a->Release();
  };
  std::thread low(waiter, QueryPriority::kLow, "low");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread high(waiter, QueryPriority::kHigh, "high");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  holder->Release();
  low.join();
  high.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high") << "freed slots go to the best waiting class";
}

// --- executor integration ---------------------------------------------------

void ExpectSameStats(const AccessStats& a, const AccessStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.stream_records, b.stream_records) << label;
  EXPECT_EQ(a.stream_pages, b.stream_pages) << label;
  EXPECT_EQ(a.probes, b.probes) << label;
  EXPECT_EQ(a.probe_pages, b.probe_pages) << label;
  EXPECT_EQ(a.cache_stores, b.cache_stores) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.predicate_evals, b.predicate_evals) << label;
  EXPECT_EQ(a.agg_steps, b.agg_steps) << label;
  EXPECT_EQ(a.records_output, b.records_output) << label;
  EXPECT_NEAR(a.simulated_cost, b.simulated_cost,
              1e-9 * (1.0 + std::abs(a.simulated_cost)))
      << label;
}

void ExpectSameRows(const QueryResult& a, const QueryResult& b,
                    const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].pos, b.records[i].pos) << label << " row " << i;
    ASSERT_EQ(a.records[i].rec.size(), b.records[i].rec.size())
        << label << " row " << i;
    for (size_t j = 0; j < a.records[i].rec.size(); ++j) {
      EXPECT_EQ(a.records[i].rec[j], b.records[i].rec[j])
          << label << " row " << i << " col " << j;
    }
  }
}

/// Engine fixture on the global scheduler. Every test restores the global
/// scheduler's admission configuration on exit so suites that follow see
/// the defaults (worker-pool size is also restored; threads themselves
/// shrink lazily, which is fine — assertions use active/peak counters).
class SchedulerEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_workers_ = QueryScheduler::Global().workers();
    saved_max_running_ = QueryScheduler::Global().max_running();
    IntSeriesOptions options;
    options.span = Span::Of(0, 1999);
    options.density = 0.9;
    options.seed = 11;
    ASSERT_TRUE(engine_.RegisterBase("s", *MakeIntSeries(options)).ok());
  }
  void TearDown() override {
    QueryScheduler::Global().SetWorkers(saved_workers_);
    QueryScheduler::Global().SetMaxRunning(saved_max_running_);
    QueryScheduler::Global().SetMaxQueued(256);
    QueryScheduler::Global().SetDefaultTimeoutMs(0);
  }

  Query SelectQuery(int64_t bound) const {
    Query q;
    q.graph = SeqRef("s").Select(Gt(Col("value"), Lit(bound))).Build();
    return q;
  }

  static RunOptions ParallelOpts(AccessStats* stats) {
    RunOptions opts;
    opts.exec.use_batch = true;  // morsel parallelism needs batch driving
    opts.exec.parallelism = 4;
    opts.exec.morsel_size = 256;  // ~8 morsels over the 2000-position span
    opts.stats = stats;
    return opts;
  }

  Engine engine_;
  int saved_workers_ = 0;
  int saved_max_running_ = 0;
};

TEST_F(SchedulerEngineTest, SixteenConcurrentQueriesStayWithinPool) {
  constexpr int kQueries = 16;
  constexpr int kPoolWorkers = 4;
  QueryScheduler::Global().SetWorkers(kPoolWorkers);

  // Serial baseline for the differential check.
  RunOptions serial_opts;
  serial_opts.exec.use_batch = true;
  serial_opts.exec.parallelism = 1;
  AccessStats serial_stats;
  serial_opts.stats = &serial_stats;
  auto serial = engine_.Run(SelectQuery(100), serial_opts);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_GT(serial->records.size(), 0u);

  std::vector<AccessStats> stats(kQueries);
  std::vector<Result<QueryResult>> results;
  results.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    results.emplace_back(Status::Internal("not run"));
  }
  std::vector<std::thread> threads;
  threads.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&, i] {
      results[i] = engine_.Run(SelectQuery(100), ParallelOpts(&stats[i]));
    });
  }
  for (std::thread& t : threads) t.join();

  const SchedulerStats after = QueryScheduler::Global().Stats();
  // The acceptance assertion: 16 queries x parallelism 4 never put more
  // executing threads to work than the configured pool size. (This suite
  // is the binary's first user of the global scheduler's pool, so the
  // monotone peak reflects exactly this burst.)
  EXPECT_LE(after.peak_active_workers, kPoolWorkers);
  EXPECT_LE(after.live_workers, kPoolWorkers);
  EXPECT_EQ(after.queued, 0u);
  EXPECT_EQ(after.running, 0);
  EXPECT_GE(after.admitted, kQueries);

  for (int i = 0; i < kQueries; ++i) {
    const std::string label = "query " + std::to_string(i);
    ASSERT_TRUE(results[i].ok()) << label << ": " << results[i].status();
    ExpectSameRows(*serial, *results[i], label);
    ExpectSameStats(serial_stats, stats[i], label);
  }
}

TEST_F(SchedulerEngineTest, AdmissionRejectionSurfacesAsResourceExhausted) {
  QueryScheduler::Global().SetMaxRunning(1);
  auto holder = QueryScheduler::Global().Admit({});
  ASSERT_TRUE(holder.ok());

  // No waiting allowed: the parallel query is rejected outright.
  QueryScheduler::Global().SetMaxQueued(0);
  AccessStats stats;
  auto rejected = engine_.Run(SelectQuery(100), ParallelOpts(&stats));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status();

  // Bounded waiting: the query queues, times out, and reports it.
  QueryScheduler::Global().SetMaxQueued(256);
  RunOptions timed = ParallelOpts(&stats);
  timed.exec.admission_timeout_ms = 30;
  auto timed_out = engine_.Run(SelectQuery(100), timed);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kResourceExhausted)
      << timed_out.status();
  EXPECT_NE(timed_out.status().message().find("timed out"),
            std::string::npos);

  // Serial queries never touch admission: still fine with zero slots.
  RunOptions serial_opts;
  serial_opts.exec.parallelism = 1;
  auto serial = engine_.Run(SelectQuery(100), serial_opts);
  EXPECT_TRUE(serial.ok()) << serial.status();

  holder->Release();
  auto recovered = engine_.Run(SelectQuery(100), ParallelOpts(&stats));
  EXPECT_TRUE(recovered.ok()) << recovered.status();
}

TEST_F(SchedulerEngineTest, QueuedStateAndQueueTimeVisibleInRegistry) {
  QueryRegistry::Global().Reset();
  QueryRegistry::Global().set_enabled(true);
  QueryScheduler::Global().SetMaxRunning(1);
  auto holder = QueryScheduler::Global().Admit({});
  ASSERT_TRUE(holder.ok());

  std::thread runner([&] {
    AccessStats stats;
    auto result = engine_.Run(SelectQuery(100), ParallelOpts(&stats));
    EXPECT_TRUE(result.ok()) << result.status();
  });

  // The query blocks in admission: the registry must show it as queued.
  bool saw_queued = false;
  for (int i = 0; i < 2000 && !saw_queued; ++i) {
    for (const LiveQueryInfo& info : QueryRegistry::Global().Live()) {
      if (info.state == QueryState::kQueued) saw_queued = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_queued) << "a waiting query must surface as 'queued'";
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  holder->Release();
  runner.join();

  // After completion the queue wait is attributed separately from
  // execution in the completion record.
  bool found = false;
  for (const CompletedQueryInfo& done : QueryRegistry::Global().Recent()) {
    if (done.ok && done.queued_us > 0) {
      EXPECT_LE(done.queued_us, done.wall_us);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "completed record must carry the queue time";

  // And the wall-clock budget keeps ticking while queued: a query whose
  // whole budget is spent in the queue fails with DeadlineExceeded, with
  // the wait still counted.
  auto holder2 = QueryScheduler::Global().Admit({});
  ASSERT_TRUE(holder2.ok());
  AccessStats stats;
  RunOptions budgeted = ParallelOpts(&stats);
  budgeted.exec.guards.max_wall_ms = 30;
  auto expired = engine_.Run(SelectQuery(100), budgeted);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded)
      << expired.status();
  holder2->Release();
}

}  // namespace
}  // namespace seq
