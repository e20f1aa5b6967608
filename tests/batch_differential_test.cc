// Differential test for the two execution paths: every query shape the
// exec/engine suites exercise is run tuple-at-a-time and batch-at-a-time
// and must produce identical rows and identical AccessStats. The int64
// counters must match exactly; simulated_cost is a double accumulated in a
// different order between the paths, so it is compared to a tight relative
// tolerance instead of bit equality.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/checkpoint.h"
#include "workload/generators.h"

namespace seq {
namespace {

void ExpectSameStats(const AccessStats& tuple, const AccessStats& batch,
                     const std::string& label) {
  EXPECT_EQ(tuple.stream_records, batch.stream_records) << label;
  EXPECT_EQ(tuple.stream_pages, batch.stream_pages) << label;
  EXPECT_EQ(tuple.probes, batch.probes) << label;
  EXPECT_EQ(tuple.probe_pages, batch.probe_pages) << label;
  EXPECT_EQ(tuple.cache_stores, batch.cache_stores) << label;
  EXPECT_EQ(tuple.cache_hits, batch.cache_hits) << label;
  EXPECT_EQ(tuple.predicate_evals, batch.predicate_evals) << label;
  EXPECT_EQ(tuple.agg_steps, batch.agg_steps) << label;
  EXPECT_EQ(tuple.records_output, batch.records_output) << label;
  // Same charges in a different summation order: ulp-level drift only.
  EXPECT_NEAR(tuple.simulated_cost, batch.simulated_cost,
              1e-9 * (1.0 + std::abs(tuple.simulated_cost)))
      << label;
}

void ExpectSameRows(const QueryResult& tuple, const QueryResult& batch,
                    const std::string& label) {
  ASSERT_EQ(tuple.records.size(), batch.records.size()) << label;
  for (size_t i = 0; i < tuple.records.size(); ++i) {
    EXPECT_EQ(tuple.records[i].pos, batch.records[i].pos)
        << label << " row " << i;
    ASSERT_EQ(tuple.records[i].rec.size(), batch.records[i].rec.size())
        << label << " row " << i;
    for (size_t j = 0; j < tuple.records[i].rec.size(); ++j) {
      EXPECT_EQ(tuple.records[i].rec[j], batch.records[i].rec[j])
          << label << " row " << i << " col " << j;
    }
  }
}

/// Streams `query` through PreparedQuery::Run with a RunOptions sink under
/// the requested driving mode, copying each visited row (sink-held
/// references are only valid during the callback).
QueryResult VisitRows(Engine& engine, const Query& query, bool use_batch,
                      AccessStats* stats, const std::string& label) {
  auto prepared = engine.Prepare(query);
  EXPECT_TRUE(prepared.ok()) << label;
  QueryResult out;
  if (!prepared.ok()) return out;
  RunOptions opts;
  opts.exec.use_batch = use_batch;
  opts.sink = [&out](Position p, const Record& rec) {
    out.records.push_back(PosRecord{p, rec});
  };
  opts.stats = stats;
  auto run = prepared->Run(opts);
  EXPECT_TRUE(run.ok()) << label << ": " << run.status().ToString();
  return out;
}

/// Runs `query` through every path — tuple, batch, profiled, streamed, and
/// morsel-parallel at 2 and 4 workers — and asserts identical rows and
/// stats everywhere. Every mode is expressed as a per-query RunOptions;
/// nothing mutates engine-wide state.
void RunBoth(Engine& engine, const Query& query, const std::string& label) {
  RunOptions tuple_opts;
  tuple_opts.exec.use_batch = false;
  AccessStats tuple_stats;
  tuple_opts.stats = &tuple_stats;
  auto tuple = engine.Run(query, tuple_opts);
  ASSERT_TRUE(tuple.ok()) << label << ": " << tuple.status().ToString();

  RunOptions batch_opts;
  batch_opts.exec.use_batch = true;
  AccessStats batch_stats;
  batch_opts.stats = &batch_stats;
  auto batch = engine.Run(query, batch_opts);
  ASSERT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();

  ExpectSameRows(*tuple, *batch, label);
  ExpectSameStats(tuple_stats, batch_stats, label);

  // The profiled executor must batch through its wrappers too.
  RunOptions prof_opts;
  prof_opts.exec.use_batch = true;
  prof_opts.profile = true;
  AccessStats prof_stats;
  prof_opts.stats = &prof_stats;
  auto profiled = engine.Run(query, prof_opts);
  ASSERT_TRUE(profiled.ok()) << label << ": " << profiled.status().ToString();
  ASSERT_TRUE(profiled->profile.has_value()) << label;
  ExpectSameRows(*tuple, *profiled, label + " [profiled]");
  ExpectSameStats(tuple_stats, prof_stats, label + " [profiled]");

  // Streaming consumption must visit exactly the materialized rows, with
  // the same charges, in both driving modes.
  AccessStats tv_stats;
  QueryResult tv = VisitRows(engine, query, /*use_batch=*/false, &tv_stats,
                             label + " [visit t]");
  ExpectSameRows(*tuple, tv, label + " [visit tuple]");
  ExpectSameStats(tuple_stats, tv_stats, label + " [visit tuple]");

  AccessStats bv_stats;
  QueryResult bv = VisitRows(engine, query, /*use_batch=*/true, &bv_stats,
                             label + " [visit b]");
  ExpectSameRows(*tuple, bv, label + " [visit batch]");
  ExpectSameStats(tuple_stats, bv_stats, label + " [visit batch]");

  // Morsel parity sweep: the same query split into small forced morsels at
  // 2 and 4 workers must produce byte-identical rows and merged AccessStats
  // equal to the serial counters. Plans whose operators cannot partition
  // fall back to serial inside the executor — still a parity check, just a
  // trivial one.
  for (int workers : {2, 4}) {
    RunOptions par_opts;
    par_opts.exec.use_batch = true;
    par_opts.exec.parallelism = workers;
    par_opts.exec.morsel_size = 256;
    AccessStats par_stats;
    par_opts.stats = &par_stats;
    auto par = engine.Run(query, par_opts);
    const std::string plabel =
        label + " [parallel x" + std::to_string(workers) + "]";
    ASSERT_TRUE(par.ok()) << plabel << ": " << par.status().ToString();
    ExpectSameRows(*tuple, *par, plabel);
    ExpectSameStats(tuple_stats, par_stats, plabel);
  }
}

/// A budget must trip on a sink run and on a checkpointed run exactly as
/// on the serial materialized run `serial` made under `budget`: same
/// ok-ness, same status. The rows the sink saw before a trip must be a
/// prefix of the full answer `full` (all of it when nothing trips).
void ExpectSinkAndCheckpointTripLikeSerial(Engine& engine, const Query& query,
                                           const RunOptions& budget,
                                           const Result<QueryResult>& serial,
                                           const QueryResult& full,
                                           const std::string& label) {
  QueryResult seen;
  RunOptions sink_opts = budget;
  sink_opts.sink = [&seen](Position p, const Record& rec) {
    seen.records.push_back(PosRecord{p, rec});
  };
  auto sres = engine.Run(query, sink_opts);
  ASSERT_EQ(serial.ok(), sres.ok()) << label << " [sink]";
  if (!serial.ok()) {
    EXPECT_EQ(serial.status().ToString(), sres.status().ToString())
        << label << " [sink]";
  }
  ASSERT_LE(seen.records.size(), full.records.size()) << label << " [sink]";
  if (serial.ok()) {
    EXPECT_EQ(seen.records.size(), full.records.size()) << label << " [sink]";
  }
  QueryResult prefix;
  prefix.records.assign(full.records.begin(),
                        full.records.begin() + seen.records.size());
  ExpectSameRows(prefix, seen, label + " [sink prefix]");

  RunOptions ck_opts = budget;
  ck_opts.exec.checkpoint.enabled = true;
  ck_opts.exec.checkpoint.chunk = 512;
  auto cres = engine.Run(query, ck_opts);
  ASSERT_EQ(serial.ok(), cres.ok()) << label << " [checkpoint]";
  if (!serial.ok()) {
    EXPECT_EQ(serial.status().ToString(), cres.status().ToString())
        << label << " [checkpoint]";
  } else {
    ExpectSameRows(*serial, *cres, label + " [checkpoint]");
  }
}

void RunBoth(Engine& engine, const QueryBuilder& builder,
             std::optional<Span> range, const std::string& label) {
  Query query;
  query.graph = builder.Build();
  query.range = range;
  RunBoth(engine, query, label);
}

class BatchDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IntSeriesOptions dense;
    dense.span = Span::Of(1, 4000);
    dense.density = 0.9;
    dense.seed = 17;
    ASSERT_TRUE(engine_.RegisterBase("s", *MakeIntSeries(dense)).ok());

    IntSeriesOptions sparse;
    sparse.span = Span::Of(1, 4000);
    sparse.density = 0.15;
    sparse.seed = 23;
    ASSERT_TRUE(engine_.RegisterBase("sp", *MakeIntSeries(sparse)).ok());

    // Unclustered store: per-record page charges exercise the scan's page
    // accounting on the other branch.
    IntSeriesOptions uncl;
    uncl.span = Span::Of(1, 500);
    uncl.density = 0.8;
    uncl.seed = 29;
    uncl.costs.clustered = false;
    ASSERT_TRUE(engine_.RegisterBase("u", *MakeIntSeries(uncl)).ok());

    StockSeriesOptions stocks;
    stocks.span = Span::Of(1, 2000);
    stocks.density = 0.95;
    stocks.seed = 31;
    ASSERT_TRUE(engine_.RegisterBase("ibm", *MakeStockSeries(stocks)).ok());

    // String-bearing sequences: record movement must not slice or copy
    // payloads differently between the paths.
    EventSeriesOptions eq;
    eq.span = Span::Of(1, 3000);
    eq.density = 0.05;
    eq.seed = 37;
    ASSERT_TRUE(engine_.RegisterBase("quakes", *MakeEarthquakes(eq)).ok());
    EventSeriesOptions vo;
    vo.span = Span::Of(1, 3000);
    vo.density = 0.03;
    vo.seed = 41;
    ASSERT_TRUE(engine_.RegisterBase("volcanos", *MakeVolcanos(vo)).ok());
  }

  Engine engine_;
};

TEST_F(BatchDifferentialTest, ScanSelectProject) {
  RunBoth(engine_, SeqRef("s"), std::nullopt, "plain scan");
  RunBoth(engine_, SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{500}))),
          std::nullopt, "select");
  RunBoth(engine_,
          SeqRef("ibm")
              .Select(Gt(Col("close"), Col("open")))
              .Project({"close", "volume"}),
          std::nullopt, "select+project");
  RunBoth(engine_,
          SeqRef("s").Select(And(Gt(Col("value"), Lit(int64_t{100})),
                                 Lt(Col("value"), Lit(int64_t{900})))),
          std::nullopt, "conjunctive select");
  RunBoth(engine_,
          SeqRef("s").Select(
              Eq(Sub(Col("value"), Mul(Div(Col("value"), Lit(int64_t{7})),
                                       Lit(int64_t{7}))),
                 Lit(int64_t{3}))),
          std::nullopt, "arithmetic select");
}

TEST_F(BatchDifferentialTest, ClippedRangesAndSparseInputs) {
  RunBoth(engine_, SeqRef("s"), Span::Of(100, 300), "clipped scan");
  RunBoth(engine_, SeqRef("sp").Select(Gt(Col("value"), Lit(int64_t{200}))),
          Span::Of(50, 3500), "sparse select");
  RunBoth(engine_, SeqRef("u").Project({"value"}), std::nullopt,
          "unclustered scan");
  RunBoth(engine_, SeqRef("s"), Span::Of(3999, 4000), "tail sliver");
}

TEST_F(BatchDifferentialTest, Offsets) {
  RunBoth(engine_, SeqRef("s").Offset(-3), std::nullopt, "pos offset back");
  RunBoth(engine_, SeqRef("s").Offset(5), Span::Of(1, 3000),
          "pos offset fwd");
  RunBoth(engine_, SeqRef("sp").Prev(), std::nullopt, "previous");
  RunBoth(engine_, SeqRef("sp").Next(), std::nullopt, "next");
  RunBoth(engine_, SeqRef("sp").ValueOffset(-3), std::nullopt,
          "third previous");
  RunBoth(engine_, SeqRef("sp").ValueOffset(2), Span::Of(10, 3900),
          "second next");
}

TEST_F(BatchDifferentialTest, Aggregates) {
  RunBoth(engine_, SeqRef("s").Agg(AggFunc::kSum, "value", 7), std::nullopt,
          "window sum");
  RunBoth(engine_, SeqRef("sp").Agg(AggFunc::kMax, "value", 20),
          std::nullopt, "sparse window max");
  RunBoth(engine_, SeqRef("s").Agg(AggFunc::kAvg, "value", 5),
          Span::Of(500, 1500), "window avg clipped");
  RunBoth(engine_, SeqRef("s").RunningAgg(AggFunc::kCount, "value"),
          std::nullopt, "running count");
  RunBoth(engine_, SeqRef("sp").RunningAgg(AggFunc::kMin, "value"),
          std::nullopt, "sparse running min");
  RunBoth(engine_, SeqRef("s").OverallAgg(AggFunc::kSum, "value"),
          Span::Of(1, 4000), "overall sum");
}

TEST_F(BatchDifferentialTest, ComposeVariants) {
  RunBoth(engine_, SeqRef("volcanos").ComposeWith(SeqRef("quakes").Prev()),
          std::nullopt, "volcano join");
  RunBoth(engine_,
          SeqRef("volcanos")
              .ComposeWith(SeqRef("quakes").Prev())
              .Select(Gt(Col("strength"), Lit(7.0)))
              .Project({"name"}),
          std::nullopt, "fig1 query");
  RunBoth(engine_,
          SeqRef("s").ComposeWith(SeqRef("sp"),
                                  Gt(Col("value", 0), Col("value", 1))),
          std::nullopt, "predicated compose");
  RunBoth(engine_,
          SeqRef("quakes").ComposeWith(SeqRef("volcanos")), std::nullopt,
          "event intersect");
}

TEST_F(BatchDifferentialTest, CollapseExpandAndChains) {
  RunBoth(engine_, SeqRef("s").Collapse(7, AggFunc::kSum, "value"),
          std::nullopt, "collapse");
  RunBoth(engine_, SeqRef("s").Collapse(5, AggFunc::kAvg, "value").Expand(5),
          std::nullopt, "collapse+expand");
  RunBoth(engine_,
          SeqRef("s")
              .Agg(AggFunc::kSum, "value", 3, "sum")
              .Offset(-2)
              .Agg(AggFunc::kSum, "sum", 3, "sum")
              .Offset(-2),
          std::nullopt, "fig2 chain");
  RunBoth(engine_,
          SeqRef("s")
              .Select(Gt(Col("value"), Lit(int64_t{50})))
              .Agg(AggFunc::kAvg, "value", 10, "avg")
              .Select(Gt(Col("avg"), Lit(int64_t{400})))
              .Project({"avg"}),
          std::nullopt, "select-agg-select");
  RunBoth(engine_,
          SeqRef("ibm")
              .Agg(AggFunc::kAvg, "close", 21, "ma21")
              .ComposeWith(SeqRef("ibm").Agg(AggFunc::kAvg, "close", 5,
                                             "ma5")),
          std::nullopt, "moving-average cross");
}

TEST_F(BatchDifferentialTest, PointQueries) {
  // Point-position queries: a probed root is driven through ProbeBatch in
  // chunks of the requested positions; a stream root falls back to the
  // tuple skip-scan in both settings.
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kSum, "value", 5).Build();
  query.positions = {10, 57, 58, 900, 3999};
  RunBoth(engine_, query, "point positions");
}

TEST_F(BatchDifferentialTest, ProbedRootPlans) {
  // Force a probed root: batch driving then goes through ProbeBatch
  // instead of NextBatch, and the probe sets — and therefore every
  // AccessStats counter — must match the tuple Probe loop exactly.
  engine_.options().force_root_mode = AccessMode::kProbed;
  RunBoth(engine_, SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{500}))),
          std::nullopt, "probed select");
  RunBoth(engine_, SeqRef("sp").Prev(), std::nullopt, "probed previous");
  RunBoth(engine_, SeqRef("sp").ValueOffset(2), Span::Of(10, 3900),
          "probed second next");
  RunBoth(engine_,
          SeqRef("s")
              .ValueOffset(-2)
              .Select(Gt(Col("value"), Lit(int64_t{100})))
              .Project({"value"}),
          std::nullopt, "probed offset chain");
  RunBoth(engine_, SeqRef("s").Agg(AggFunc::kSum, "value", 7), std::nullopt,
          "probed window sum");
  RunBoth(engine_, SeqRef("s").RunningAgg(AggFunc::kCount, "value"),
          std::nullopt, "probed running count");
  RunBoth(engine_, SeqRef("s").OverallAgg(AggFunc::kSum, "value"),
          Span::Of(1, 4000), "probed overall sum");
  RunBoth(engine_, SeqRef("s").Collapse(7, AggFunc::kSum, "value"),
          std::nullopt, "probed collapse");
  RunBoth(engine_, SeqRef("s").Collapse(5, AggFunc::kAvg, "value").Expand(5),
          std::nullopt, "probed collapse+expand");
  RunBoth(engine_, SeqRef("quakes").ComposeWith(SeqRef("volcanos")),
          std::nullopt, "probed event intersect");
  RunBoth(engine_,
          SeqRef("s").ComposeWith(SeqRef("sp"),
                                  Gt(Col("value", 0), Col("value", 1))),
          std::nullopt, "probed predicated compose");
}

TEST_F(BatchDifferentialTest, ProbedPointPositions) {
  // Probed root + explicit positions: the executor chunks the position
  // list itself through ProbeBatch.
  engine_.options().force_root_mode = AccessMode::kProbed;
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kSum, "value", 5).Build();
  query.positions = {10, 57, 58, 900, 3999};
  RunBoth(engine_, query, "probed point positions");

  Query offsets;
  offsets.graph = SeqRef("sp").Prev().Build();
  offsets.positions = {1, 2, 3, 500, 501, 502, 3000};
  RunBoth(engine_, offsets, "probed point value offset");

  Query join;
  join.graph = SeqRef("quakes").ComposeWith(SeqRef("volcanos")).Build();
  join.positions = {5, 100, 101, 2500};
  RunBoth(engine_, join, "probed point compose");
}

TEST_F(BatchDifferentialTest, EmptyAndEdgeResults) {
  RunBoth(engine_, SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{100000}))),
          std::nullopt, "selects nothing");
  RunBoth(engine_, SeqRef("sp"), Span::Of(3990, 4000), "nearly empty tail");
}

TEST_F(BatchDifferentialTest, MorselDrivingActuallyGoesParallel) {
  // Guard against the sweep above silently degenerating: a partitionable
  // plan with forced morsels must take the parallel path, and the decision
  // must be visible in the profile notes.
  Query query;
  query.graph =
      SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{100}))).Build();
  RunOptions opts;
  opts.exec.use_batch = true;
  opts.exec.parallelism = 4;
  opts.exec.morsel_size = 256;
  opts.profile = true;
  auto run = engine_.Run(query, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->profile.has_value());
  bool saw_parallel = false;
  for (const std::string& note : run->profile->notes) {
    if (note.find("parallel:") != std::string::npos) saw_parallel = true;
  }
  EXPECT_TRUE(saw_parallel)
      << "expected a 'parallel:' execution note, notes were: "
      << ::testing::PrintToString(run->profile->notes);
}

// Budget trips must fire at the same point — same ok-ness, same status
// message — whether the query runs serial or morsel-parallel. The sweep
// walks max_rows across the interesting boundary values around the true
// answer size for a stream root and a probed root.
TEST_F(BatchDifferentialTest, RowBudgetTripParity) {
  Query query;
  query.graph =
      SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{200}))).Build();

  RunOptions serial_opts;
  serial_opts.exec.use_batch = true;
  auto full = engine_.Run(query, serial_opts);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const size_t total = full->records.size();
  ASSERT_GT(total, 100u);

  const size_t budgets[] = {1, 10, total / 2, total - 1, total, total + 1};
  for (size_t budget : budgets) {
    RunOptions serial;
    serial.exec.use_batch = true;
    serial.exec.guards.max_rows = budget;
    auto sres = engine_.Run(query, serial);
    ExpectSinkAndCheckpointTripLikeSerial(
        engine_, query, serial, sres, *full,
        "max_rows=" + std::to_string(budget));
    for (int workers : {2, 4}) {
      RunOptions par;
      par.exec.use_batch = true;
      par.exec.guards.max_rows = budget;
      par.exec.parallelism = workers;
      par.exec.morsel_size = 256;
      auto pres = engine_.Run(query, par);
      const std::string label = "max_rows=" + std::to_string(budget) +
                                " x" + std::to_string(workers);
      ASSERT_EQ(sres.ok(), pres.ok()) << label;
      if (!sres.ok()) {
        EXPECT_EQ(sres.status().ToString(), pres.status().ToString()) << label;
      } else {
        ExpectSameRows(*sres, *pres, label);
      }
    }
  }
}

TEST_F(BatchDifferentialTest, RowBudgetTripParityProbedRoot) {
  engine_.options().force_root_mode = AccessMode::kProbed;
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kSum, "value", 7).Build();

  RunOptions serial_opts;
  serial_opts.exec.use_batch = true;
  auto full = engine_.Run(query, serial_opts);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const size_t total = full->records.size();
  ASSERT_GT(total, 10u);

  for (size_t budget : {size_t{1}, total / 2, total, total + 1}) {
    RunOptions serial;
    serial.exec.use_batch = true;
    serial.exec.guards.max_rows = budget;
    auto sres = engine_.Run(query, serial);
    ExpectSinkAndCheckpointTripLikeSerial(
        engine_, query, serial, sres, *full,
        "probed max_rows=" + std::to_string(budget));
    for (int workers : {2, 4}) {
      RunOptions par;
      par.exec.use_batch = true;
      par.exec.guards.max_rows = budget;
      par.exec.parallelism = workers;
      par.exec.morsel_size = 256;
      auto pres = engine_.Run(query, par);
      const std::string label = "probed max_rows=" + std::to_string(budget) +
                                " x" + std::to_string(workers);
      ASSERT_EQ(sres.ok(), pres.ok()) << label;
      if (!sres.ok()) {
        EXPECT_EQ(sres.status().ToString(), pres.status().ToString()) << label;
      } else {
        ExpectSameRows(*sres, *pres, label);
      }
    }
  }
}

// Suspend/resume differential: a checkpointed run suspended at every k-th
// chunk boundary and resumed to completion must reproduce the
// uninterrupted checkpointed run exactly — rows and AccessStats — across
// both driving modes, both root modes, and serial vs 4-worker execution.
// Each intermediate checkpoint travels through its file, so the restored
// prefix (rows, stats, operator carries) is what the parity checks see.
TEST_F(BatchDifferentialTest, SuspendResumeParitySweep) {
  const std::string path = ::testing::TempDir() + "batch_diff_suspend.ckpt";
  struct Shape {
    std::string name;
    LogicalOpPtr graph;
  };
  const std::vector<Shape> shapes = {
      {"window sum", SeqRef("s").Agg(AggFunc::kSum, "value", 7).Build()},
      {"stock select", SeqRef("ibm")
                           .Select(Gt(Col("close"), Col("open")))
                           .Project({"close", "volume"})
                           .Build()},
  };
  // Stream first, probed second: force_root_mode stays set once flipped.
  for (bool probed_root : {false, true}) {
    if (probed_root) {
      engine_.options().force_root_mode = AccessMode::kProbed;
    }
    for (const Shape& shape : shapes) {
      Query query;
      query.graph = shape.graph;
      query.range = Span::Of(1, 4000);
      for (bool use_batch : {true, false}) {
        for (int workers : {1, 4}) {
          RunOptions opts;
          opts.exec.use_batch = use_batch;
          opts.exec.parallelism = workers;
          if (workers > 1) opts.exec.morsel_size = 256;
          opts.exec.checkpoint.enabled = true;
          opts.exec.checkpoint.chunk = 512;
          opts.exec.checkpoint.path = path;
          const std::string ctx = shape.name +
                                  (use_batch ? " [batch" : " [tuple") +
                                  (probed_root ? ",probed" : ",stream") +
                                  ",x" + std::to_string(workers) + "]";

          AccessStats base_stats;
          RunOptions base_opts = opts;
          base_opts.stats = &base_stats;
          auto base = engine_.Run(query, base_opts);
          ASSERT_TRUE(base.ok()) << ctx << ": " << base.status().ToString();

          for (int64_t k : {1, 3}) {
            AccessStats stats;
            RunOptions chain = opts;
            chain.exec.checkpoint.suspend_every_chunks = k;
            chain.stats = &stats;
            auto r = engine_.Run(query, chain);
            int suspensions = 0;
            while (!r.ok() && IsQuerySuspended(r.status())) {
              ASSERT_LT(++suspensions, 100) << ctx;
              r = engine_.Resume(path, chain);
            }
            std::remove(path.c_str());
            const std::string label = ctx + " k=" + std::to_string(k);
            ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
            EXPECT_GE(suspensions, 1) << label;
            ExpectSameRows(*base, *r, label);
            ExpectSameStats(base_stats, stats, label);
          }
        }
      }
    }
  }
}

TEST_F(BatchDifferentialTest, PageBudgetTripParity) {
  Query query;
  query.graph = SeqRef("s").Project({"value"}).Build();

  RunOptions count_opts;
  count_opts.exec.use_batch = true;
  AccessStats stats;
  count_opts.stats = &stats;
  ASSERT_TRUE(engine_.Run(query, count_opts).ok());
  const int64_t pages = stats.stream_pages + stats.probe_pages;
  ASSERT_GT(pages, 4);
  auto full = engine_.Run(query, count_opts);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  for (int64_t budget : {pages / 2, pages, pages * 2}) {
    RunOptions serial;
    serial.exec.use_batch = true;
    serial.exec.guards.max_pages = budget;
    auto sres = engine_.Run(query, serial);
    ExpectSinkAndCheckpointTripLikeSerial(
        engine_, query, serial, sres, *full,
        "max_pages=" + std::to_string(budget));
    for (int workers : {2, 4}) {
      RunOptions par;
      par.exec.use_batch = true;
      par.exec.guards.max_pages = budget;
      par.exec.parallelism = workers;
      par.exec.morsel_size = 256;
      auto pres = engine_.Run(query, par);
      const std::string label = "max_pages=" + std::to_string(budget) + " x" +
                                std::to_string(workers);
      ASSERT_EQ(sres.ok(), pres.ok()) << label;
      if (!sres.ok()) {
        EXPECT_EQ(sres.status().ToString(), pres.status().ToString()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace seq
