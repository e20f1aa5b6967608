// Fault-matrix robustness suite: every operator shape is driven in both
// access modes (range stream / point probes) and both driving modes
// (batch / tuple) under deterministic injected faults at every fault
// site, sweeping the trigger count. The invariants:
//
//   * never a crash (ASan/UBSan in CI also check: never a leak),
//   * the query returns a non-OK Status exactly when the injector fired,
//   * an armed-but-unfired injector changes nothing: identical rows and
//     identical AccessStats vs the fault-free baseline.
//
// Plus the budget guards (rows/pages/deadline/cancel) and the graceful
// cache-degradation path (Engine re-plans cache-free instead of failing).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/checkpoint.h"
#include "exec/exec_context.h"
#include "exec/fault_injector.h"
#include "exec/stream_session.h"
#include "workload/generators.h"

namespace seq {
namespace {

struct Shape {
  std::string name;
  LogicalOpPtr graph;
};

struct Outcome {
  Status status = Status::OK();
  QueryResult result;
  AccessStats stats;
};

void ExpectSameStats(const AccessStats& want, const AccessStats& got,
                     const std::string& label) {
  EXPECT_EQ(want.stream_records, got.stream_records) << label;
  EXPECT_EQ(want.stream_pages, got.stream_pages) << label;
  EXPECT_EQ(want.probes, got.probes) << label;
  EXPECT_EQ(want.probe_pages, got.probe_pages) << label;
  EXPECT_EQ(want.cache_stores, got.cache_stores) << label;
  EXPECT_EQ(want.cache_hits, got.cache_hits) << label;
  EXPECT_EQ(want.predicate_evals, got.predicate_evals) << label;
  EXPECT_EQ(want.agg_steps, got.agg_steps) << label;
  EXPECT_EQ(want.records_output, got.records_output) << label;
  // The armed-but-unfired path may take the per-record loop instead of the
  // bulk charge: same events, different summation order.
  EXPECT_NEAR(want.simulated_cost, got.simulated_cost,
              1e-9 * (1.0 + std::abs(want.simulated_cost)))
      << label;
}

void ExpectSameRows(const QueryResult& want, const QueryResult& got,
                    const std::string& label) {
  ASSERT_EQ(want.records.size(), got.records.size()) << label;
  for (size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(want.records[i].pos, got.records[i].pos) << label << " row "
                                                       << i;
    ASSERT_EQ(want.records[i].rec.size(), got.records[i].rec.size())
        << label << " row " << i;
    for (size_t j = 0; j < want.records[i].rec.size(); ++j) {
      EXPECT_EQ(want.records[i].rec[j], got.records[i].rec[j])
          << label << " row " << i << " col " << j;
    }
  }
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IntSeriesOptions dense;
    dense.span = Span::Of(0, 63);
    dense.density = 1.0;
    dense.seed = 7;
    dense.records_per_page = 16;
    ASSERT_TRUE(engine_.RegisterBase("s", *MakeIntSeries(dense)).ok());
    IntSeriesOptions sparse;
    sparse.span = Span::Of(0, 63);
    sparse.density = 0.6;
    sparse.seed = 9;
    sparse.records_per_page = 16;
    ASSERT_TRUE(engine_.RegisterBase("sp", *MakeIntSeries(sparse)).ok());
    SchemaPtr cschema = Schema::Make({Field{"k", TypeId::kInt64}});
    ASSERT_TRUE(
        engine_.RegisterConstant("c", cschema, Record{Value::Int64(7)})
            .ok());
  }

  // One query per operator kind (plus a deep chain); which physical
  // operator serves each (cached vs naive, lockstep vs probe) depends on
  // the access mode and the cache ablation toggled by the matrix.
  std::vector<Shape> Shapes() const {
    return {
        {"scan", SeqRef("s").Build()},
        {"constant", ConstRef("c").Build()},
        {"select",
         SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{300}))).Build()},
        {"project", SeqRef("s").Project({"value"}).Build()},
        {"pos-offset", SeqRef("s").Offset(3).Build()},
        {"value-offset", SeqRef("sp").Prev().Build()},
        {"window-agg", SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build()},
        {"running-agg",
         SeqRef("s").RunningAgg(AggFunc::kSum, "value").Build()},
        {"overall-agg",
         SeqRef("s").OverallAgg(AggFunc::kMax, "value").Build()},
        {"compose-pred",
         SeqRef("s")
             .ComposeWith(SeqRef("sp"), Gt(Col("value", 0), Col("value", 1)))
             .Build()},
        {"compose-offset",
         SeqRef("s").ComposeWith(SeqRef("sp").Prev()).Build()},
        {"collapse",
         SeqRef("s").Collapse(4, AggFunc::kSum, "value").Build()},
        {"expand",
         SeqRef("s").Collapse(4, AggFunc::kAvg, "value").Expand(4).Build()},
        {"chain", SeqRef("s")
                      .Select(Gt(Col("value"), Lit(int64_t{100})))
                      .Agg(AggFunc::kMin, "value", 5)
                      .Offset(1)
                      .Build()},
    };
  }

  Outcome RunShape(const Shape& shape, bool probed) {
    Outcome out;
    RunOptions opts = run_opts_;
    opts.stats = &out.stats;
    Result<QueryResult> r =
        probed ? engine_.Run(
                     {.graph = shape.graph, .positions = {5, 9, 22, 41}}, opts)
               : engine_.Run({shape.graph, Span::Of(0, 63)}, opts);
    out.status = r.status();
    if (r.ok()) out.result = std::move(r).value();
    return out;
  }

  Engine engine_;
  // Per-query execution knobs the matrix sweeps; RunShape copies these
  // into each run instead of mutating engine-wide state.
  RunOptions run_opts_;
};

TEST_F(FaultMatrixTest, TriggerSweepAcrossShapesModesAndSites) {
  const FaultSite kSites[] = {FaultSite::kPageRead, FaultSite::kOperatorOpen,
                              FaultSite::kExprEval};
  const int64_t kTriggers[] = {1, 2, 7, 1000000000};
  for (bool disable_caches : {false, true}) {
    engine_.options().cost_params.disable_window_cache = disable_caches;
    engine_.options().cost_params.disable_incremental_value_offset =
        disable_caches;
    for (const Shape& shape : Shapes()) {
      for (bool use_batch : {true, false}) {
        run_opts_.exec.use_batch = use_batch;
        for (bool probed : {false, true}) {
          std::string ctx = shape.name +
                            (use_batch ? " [batch" : " [tuple") +
                            (probed ? ",probed" : ",stream") +
                            (disable_caches ? ",nocache]" : ",cached]");
          run_opts_.exec.fault_injector = nullptr;
          Outcome baseline = RunShape(shape, probed);
          ASSERT_TRUE(baseline.status.ok())
              << ctx << ": " << baseline.status;
          for (FaultSite site : kSites) {
            for (int64_t k : kTriggers) {
              FaultInjector injector(/*seed=*/42);
              injector.ArmAfter(site, k);
              run_opts_.exec.fault_injector = &injector;
              Outcome got = RunShape(shape, probed);
              std::string label = ctx + " site=" +
                                  FaultSiteName(site) + " k=" +
                                  std::to_string(k);
              if (injector.fired() > 0) {
                EXPECT_FALSE(got.status.ok()) << label;
                EXPECT_NE(got.status.message().find("injected fault"),
                          std::string::npos)
                    << label << ": " << got.status;
              } else {
                ASSERT_TRUE(got.status.ok())
                    << label << ": " << got.status;
                ExpectSameRows(baseline.result, got.result, label);
                ExpectSameStats(baseline.stats, got.stats, label);
              }
            }
          }
          run_opts_.exec.fault_injector = nullptr;
        }
      }
    }
  }
}

TEST_F(FaultMatrixTest, CheckpointSiteTriggerSweep) {
  // Checkpoint fault sites, same contract as the storage/operator sites:
  // a fired kCheckpointWrite fails the suspending run closed and the torn
  // file it leaves behind refuses to resume (DataLoss); a fired
  // kCheckpointRead fails Resume closed (DataLoss). Armed-but-unfired
  // injectors change nothing — the suspend/resume chain still reproduces
  // the uninterrupted checkpointed run's rows and stats.
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build();
  query.range = Span::Of(0, 63);
  const std::string path =
      ::testing::TempDir() + "fault_matrix_checkpoint.ckpt";

  for (bool use_batch : {true, false}) {
    const std::string ctx = use_batch ? "[batch]" : "[tuple]";
    RunOptions opts;
    opts.exec.use_batch = use_batch;
    opts.exec.checkpoint.enabled = true;
    opts.exec.checkpoint.chunk = 8;
    opts.exec.checkpoint.suspend_every_chunks = 1;
    opts.exec.checkpoint.path = path;

    AccessStats baseline_stats;
    RunOptions baseline_opts = opts;
    baseline_opts.exec.checkpoint.suspend_every_chunks = 0;
    baseline_opts.stats = &baseline_stats;
    Result<QueryResult> baseline = engine_.Run(query, baseline_opts);
    ASSERT_TRUE(baseline.ok()) << ctx << ": " << baseline.status();

    for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{1000000000}}) {
      {
        FaultInjector injector(/*seed=*/42);
        injector.ArmAfter(FaultSite::kCheckpointWrite, k);
        AccessStats stats;
        RunOptions attempt = opts;
        attempt.exec.fault_injector = &injector;
        attempt.stats = &stats;
        std::string label =
            ctx + " site=checkpoint-write k=" + std::to_string(k);
        Result<QueryResult> r = engine_.Run(query, attempt);
        int resumes = 0;
        while (!r.ok() && IsQuerySuspended(r.status())) {
          ASSERT_LT(++resumes, 100) << label;
          r = engine_.Resume(path, attempt);
        }
        if (injector.fired() > 0) {
          ASSERT_FALSE(r.ok()) << label;
          EXPECT_NE(r.status().message().find("injected fault"),
                    std::string::npos)
              << label << ": " << r.status();
          Result<QueryResult> torn = engine_.Resume(path);
          ASSERT_FALSE(torn.ok()) << label;
          EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss) << label;
        } else {
          ASSERT_TRUE(r.ok()) << label << ": " << r.status();
          ExpectSameRows(baseline.value(), r.value(), label);
          ExpectSameStats(baseline_stats, stats, label);
        }
        std::remove(path.c_str());
      }
      {
        // Suspend cleanly, then resume under an armed read fault; the
        // resumed leg runs to completion so exactly one checkpoint read
        // happens (k=1 fires, larger triggers stay armed-but-unfired).
        Result<QueryResult> r = engine_.Run(query, opts);
        ASSERT_TRUE(!r.ok() && IsQuerySuspended(r.status()))
            << ctx << ": " << r.status();

        FaultInjector injector(/*seed=*/42);
        injector.ArmAfter(FaultSite::kCheckpointRead, k);
        AccessStats stats;
        RunOptions resume_opts = opts;
        resume_opts.exec.fault_injector = &injector;
        resume_opts.stats = &stats;
        resume_opts.exec.checkpoint.suspend_every_chunks = 0;
        std::string label =
            ctx + " site=checkpoint-read k=" + std::to_string(k);
        Result<QueryResult> resumed = engine_.Resume(path, resume_opts);
        if (injector.fired() > 0) {
          ASSERT_FALSE(resumed.ok()) << label;
          EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss) << label;
          EXPECT_NE(resumed.status().message().find("injected fault"),
                    std::string::npos)
              << label << ": " << resumed.status();
        } else {
          ASSERT_TRUE(resumed.ok()) << label << ": " << resumed.status();
          ExpectSameRows(baseline.value(), resumed.value(), label);
          ExpectSameStats(baseline_stats, stats, label);
        }
        std::remove(path.c_str());
      }
    }
  }
}

TEST_F(FaultMatrixTest, RandomizedProbabilityFaults) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const Shape& shape : Shapes()) {
      for (bool use_batch : {true, false}) {
        run_opts_.exec.use_batch = use_batch;
        FaultInjector injector(seed);
        injector.ArmProbability(FaultSite::kPageRead, 0.02);
        injector.ArmProbability(FaultSite::kOperatorOpen, 0.02);
        injector.ArmProbability(FaultSite::kExprEval, 0.02);
        run_opts_.exec.fault_injector = &injector;
        Outcome got = RunShape(shape, /*probed=*/false);
        std::string label = shape.name + " seed=" + std::to_string(seed);
        EXPECT_EQ(got.status.ok(), injector.fired() == 0)
            << label << ": " << got.status;
        run_opts_.exec.fault_injector = nullptr;
      }
    }
  }
}

// --- budgets ----------------------------------------------------------------

TEST_F(FaultMatrixTest, RowBudgetTripsCleanly) {
  RunOptions opts;
  opts.exec.guards.max_rows = 10;
  auto r = engine_.Run({SeqRef("s").Build(), Span::Of(0, 63)}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("row budget"), std::string::npos);
}

TEST_F(FaultMatrixTest, PageBudgetTripsEvenWithoutCallerStats) {
  RunOptions opts;
  opts.exec.guards.max_pages = 1;
  // No AccessStats passed: the executor must supply its own counters so
  // the page budget still binds (4 pages of 16 records here).
  auto r = engine_.Run({SeqRef("s").Build(), Span::Of(0, 63)}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("page-access budget"),
            std::string::npos);
}

TEST_F(FaultMatrixTest, DeadlineTripsOnLongQuery) {
  RunOptions opts;
  opts.exec.guards.max_wall_ms = 1;
  // A dense constant over half a million positions takes well over 1ms to
  // drive; the deadline check at batch boundaries must stop it cleanly.
  auto r = engine_.Run({ConstRef("c").Build(), Span::Of(1, 500000)}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultMatrixTest, CancellationFlagStopsQuery) {
  std::atomic<bool> cancel{true};
  RunOptions opts;
  opts.exec.guards.cancel = &cancel;
  auto r = engine_.Run({SeqRef("s").Build(), Span::Of(0, 63)}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(FaultMatrixTest, BudgetsUnarmedChangeNothing) {
  AccessStats plain;
  auto base = engine_.Run(
      {SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build(), Span::Of(0, 63)},
      {.stats = &plain});
  ASSERT_TRUE(base.ok());
  RunOptions opts;
  opts.exec.guards.max_rows = 1000000;
  opts.exec.guards.max_pages = 1000000;
  opts.exec.guards.max_wall_ms = 60000;
  AccessStats guarded;
  opts.stats = &guarded;
  auto got = engine_.Run(
      {SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build(), Span::Of(0, 63)},
      opts);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameRows(*base, *got, "generous budgets");
  ExpectSameStats(plain, guarded, "generous budgets");
}

// --- graceful cache degradation ---------------------------------------------

TEST_F(FaultMatrixTest, WindowCacheBudgetDegradesInsteadOfFailing) {
  auto query = SeqRef("s").Agg(AggFunc::kAvg, "value", 16).Build();
  auto baseline = engine_.Run({query, Span::Of(0, 63)});
  ASSERT_TRUE(baseline.ok());
  // A 16-entry Cache-A window cannot fit in 64 bytes; the engine must
  // re-plan cache-free and still answer, with the event in the profile.
  RunOptions opts;
  opts.exec.guards.max_cache_bytes = 64;
  auto degraded = engine_.Run({query, Span::Of(0, 63)}, opts);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ExpectSameRows(*baseline, *degraded, "window degradation");

  Query q;
  q.graph = query;
  q.range = Span::Of(0, 63);
  opts.profile = true;
  auto profiled = engine_.Run(q, opts);
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  ASSERT_TRUE(profiled->profile.has_value());
  ASSERT_FALSE(profiled->profile->notes.empty());
  EXPECT_NE(profiled->profile->notes[0].find("degraded"), std::string::npos);
  EXPECT_NE(profiled->profile->ToString().find("degraded"),
            std::string::npos);
}

TEST_F(FaultMatrixTest, ValueOffsetCacheBudgetDegradesInsteadOfFailing) {
  auto query = SeqRef("sp").Prev().Build();
  auto baseline = engine_.Run({query, Span::Of(0, 63)});
  ASSERT_TRUE(baseline.ok());
  RunOptions opts;
  opts.exec.guards.max_cache_bytes = 16;
  auto degraded = engine_.Run({query, Span::Of(0, 63)}, opts);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ExpectSameRows(*baseline, *degraded, "value-offset degradation");
}

TEST_F(FaultMatrixTest, MaterializationsAreExemptFromCacheBudget) {
  // Running-aggregate checkpoints are a materialization, not an operator
  // cache: a tiny cache budget must not fail or degrade the query.
  RunOptions opts;
  opts.exec.guards.max_cache_bytes = 16;
  opts.profile = true;
  Query q;
  q.graph = SeqRef("s").RunningAgg(AggFunc::kSum, "value").Build();
  q.positions = {5, 9, 22};
  auto profiled = engine_.Run(q, opts);
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  ASSERT_TRUE(profiled->profile.has_value());
  for (const std::string& note : profiled->profile->notes) {
    EXPECT_EQ(note.find("degraded"), std::string::npos) << note;
  }
}

TEST(StreamSessionDegradationTest, PollFallsBackToCacheFreePlans) {
  Catalog catalog;
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kInt64}});
  auto store = std::make_shared<BaseSequenceStore>(schema, 16);
  ASSERT_TRUE(catalog.RegisterBase("live", store).ok());
  ExecOptions exec_options;
  exec_options.guards.max_cache_bytes = 64;
  StreamSession session(&catalog,
                        SeqRef("live").Agg(AggFunc::kSum, "v", 16).Build(),
                        OptimizerOptions{}, 1024, exec_options);
  for (Position p = 0; p < 64; ++p) {
    ASSERT_TRUE(session.Append("live", p, {Value::Int64(p)}).ok());
  }
  auto rows = session.Poll();
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(session.degraded());
  EXPECT_FALSE(rows->empty());

  // Same data, no budget: the undegraded session must agree.
  Catalog catalog2;
  auto store2 = std::make_shared<BaseSequenceStore>(schema, 16);
  ASSERT_TRUE(catalog2.RegisterBase("live", store2).ok());
  StreamSession plain(&catalog2,
                      SeqRef("live").Agg(AggFunc::kSum, "v", 16).Build());
  for (Position p = 0; p < 64; ++p) {
    ASSERT_TRUE(plain.Append("live", p, {Value::Int64(p)}).ok());
  }
  auto expected = plain.Poll();
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(plain.degraded());
  ASSERT_EQ(rows->size(), expected->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i].pos, (*expected)[i].pos);
    EXPECT_EQ((*rows)[i].rec, (*expected)[i].rec);
  }
}

}  // namespace
}  // namespace seq
