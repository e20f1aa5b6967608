// Operator-state checkpointing: suspend/resume robustness suite
// (docs/robustness.md). The invariants:
//
//   * a run suspended at ANY chunk boundary and resumed — in the same
//     engine or a freshly built one — produces rows and stats identical
//     to an uninterrupted checkpointed run, across batch/tuple x
//     stream/probed x serial/4-worker,
//   * a stale checkpoint (catalog version, optimizer-options fingerprint
//     or plan signature changed) is rejected with FailedPrecondition
//     naming the mismatch,
//   * a torn or corrupt checkpoint file fails closed with DataLoss —
//     never a crash, never wrong rows — including under injected
//     checkpoint-write/checkpoint-read faults,
//   * scheduler parking (preempt flag) round-trips through the file and
//     still completes with identical results.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/checkpoint.h"
#include "exec/fault_injector.h"
#include "exec/scheduler.h"
#include "exec/stream_session.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "optimizer/plan_template.h"
#include "storage/checkpoint_file.h"
#include "workload/generators.h"

namespace seq {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// Exact equality including simulated_cost: the chunk grid of a resumed run
// replays the original boundary sequence, so even the floating-point
// charge order must reproduce bit-for-bit.
void ExpectIdenticalStats(const AccessStats& want, const AccessStats& got,
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
  EXPECT_EQ(want.simulated_cost, got.simulated_cost) << label;
}

void ExpectSameRows(const QueryResult& want, const QueryResult& got,
                    const std::string& label) {
  ASSERT_EQ(want.records.size(), got.records.size()) << label;
  for (size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(want.records[i].pos, got.records[i].pos)
        << label << " row " << i;
    ASSERT_EQ(want.records[i].rec.size(), got.records[i].rec.size())
        << label << " row " << i;
    for (size_t j = 0; j < want.records[i].rec.size(); ++j) {
      EXPECT_EQ(want.records[i].rec[j], got.records[i].rec[j])
          << label << " row " << i << " col " << j;
    }
  }
}

struct ChainOutcome {
  Status status = Status::OK();
  QueryResult result;
  AccessStats stats;
  int suspensions = 0;
};

/// Runs `query` with a suspend trigger after every `suspend_every` chunks,
/// then resumes the chain of checkpoints until the run completes. Each
/// intermediate file is deleted after its resume: the stats/rows prefix
/// must travel through the files, not through the caller.
ChainOutcome RunSuspendChain(const Engine& engine, const Query& query,
                             RunOptions opts, int64_t suspend_every) {
  ChainOutcome out;
  opts.exec.checkpoint.enabled = true;
  opts.exec.checkpoint.suspend_every_chunks = suspend_every;
  opts.stats = &out.stats;
  Result<QueryResult> r = engine.Run(query, opts);
  while (!r.ok() && IsQuerySuspended(r.status())) {
    ++out.suspensions;
    if (out.suspensions > 1000) break;  // runaway-chain backstop
    const std::string path = SuspendedCheckpointPath(r.status());
    r = engine.Resume(path, opts);
    std::remove(path.c_str());
  }
  out.status = r.status();
  if (r.ok()) out.result = std::move(r).value();
  return out;
}

// --- checkpoint file format -------------------------------------------------

CheckpointImage SampleImage() {
  CheckpointImage image;
  image.catalog_version = 7;
  image.options_fingerprint = "fp|1|2";
  image.plan_signature = "sig|range=none";
  image.query_text = "out = s.select(value > 3);";
  image.probed = true;
  image.has_range = true;
  image.span_start = -5;
  image.span_end = 900;
  image.positions = {1, 2, 500};
  image.position_sequence = "ticks";
  image.watermark = 123;
  image.next_index = 2;
  image.chunks_done = 3;
  image.chunk_len = 64;
  image.stats.stream_records = 10;
  image.stats.probe_pages = 4;
  image.stats.simulated_cost = 12.625;
  image.rows.push_back(
      PosRecord{42, {Value::Int64(-9), Value::Double(2.5), Value::Bool(true),
                     Value::String("hello")}});
  image.rows.push_back(PosRecord{43, {Value::Int64(11)}});
  image.op_state = std::string("\xA1\x01\x00tail", 7);
  return image;
}

TEST(CheckpointFileTest, RoundTrip) {
  const std::string path = TmpPath("ckpt_roundtrip.ckpt");
  const CheckpointImage image = SampleImage();
  ASSERT_TRUE(SaveCheckpoint(image, path).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->catalog_version, image.catalog_version);
  EXPECT_EQ(loaded->options_fingerprint, image.options_fingerprint);
  EXPECT_EQ(loaded->plan_signature, image.plan_signature);
  EXPECT_EQ(loaded->query_text, image.query_text);
  EXPECT_EQ(loaded->probed, image.probed);
  EXPECT_EQ(loaded->has_range, image.has_range);
  EXPECT_EQ(loaded->span_start, image.span_start);
  EXPECT_EQ(loaded->span_end, image.span_end);
  EXPECT_EQ(loaded->positions, image.positions);
  EXPECT_EQ(loaded->position_sequence, image.position_sequence);
  EXPECT_EQ(loaded->watermark, image.watermark);
  EXPECT_EQ(loaded->next_index, image.next_index);
  EXPECT_EQ(loaded->chunks_done, image.chunks_done);
  EXPECT_EQ(loaded->chunk_len, image.chunk_len);
  EXPECT_EQ(loaded->op_state, image.op_state);
  ExpectIdenticalStats(image.stats, loaded->stats, "roundtrip stats");
  ASSERT_EQ(loaded->rows.size(), image.rows.size());
  EXPECT_EQ(loaded->rows[0].pos, 42);
  EXPECT_EQ(loaded->rows[0].rec, image.rows[0].rec);
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, TruncationIsDataLoss) {
  const std::string path = TmpPath("ckpt_torn.ckpt");
  ASSERT_TRUE(SaveCheckpoint(SampleImage(), path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 40u);
  // A torn write can stop anywhere: header-only, mid-body, one byte short.
  for (size_t keep : {size_t{10}, bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    auto loaded = LoadCheckpoint(path);
    ASSERT_FALSE(loaded.ok()) << "keep=" << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "keep=" << keep << ": " << loaded.status();
  }
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, BitFlipIsDataLoss) {
  const std::string path = TmpPath("ckpt_flip.ckpt");
  ASSERT_TRUE(SaveCheckpoint(SampleImage(), path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one bit in the body: the checksum must catch it.
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, BadMagicIsInvalidArgument) {
  const std::string path = TmpPath("ckpt_magic.ckpt");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "NOTACKPTxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
  out.close();
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, MissingFileIsNotFound) {
  auto loaded = LoadCheckpoint(TmpPath("ckpt_never_written.ckpt"));
  ASSERT_FALSE(loaded.ok());
}

// --- suspend/resume parity --------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterAll(engine_); }

  // Identical content (same seeds) so a second engine reaches the same
  // catalog version with the same stores — the fresh-process resume case.
  static void RegisterAll(Engine& engine) {
    IntSeriesOptions dense;
    dense.span = Span::Of(0, 63);
    dense.density = 1.0;
    dense.seed = 7;
    dense.records_per_page = 16;
    ASSERT_TRUE(engine.RegisterBase("s", *MakeIntSeries(dense)).ok());
    IntSeriesOptions sparse;
    sparse.span = Span::Of(0, 63);
    sparse.density = 0.6;
    sparse.seed = 9;
    sparse.records_per_page = 16;
    ASSERT_TRUE(engine.RegisterBase("sp", *MakeIntSeries(sparse)).ok());
  }

  Engine engine_;
};

TEST_F(CheckpointTest, SuspendAtEveryBoundaryMatchesUninterruptedRun) {
  struct Shape {
    std::string name;
    LogicalOpPtr graph;
    // Shapes whose plans cannot chunk (materialized running aggregate,
    // lock-step compose) fall back to an uninterrupted run: suspend
    // triggers are ignored, but every parity check below still holds.
    bool chunkable = true;
  };
  const std::vector<Shape> shapes = {
      {"window-chain", SeqRef("s")
                           .Select(Gt(Col("value"), Lit(int64_t{100})))
                           .Agg(AggFunc::kAvg, "value", 8)
                           .Offset(1)
                           .Build()},
      {"scan-select",
       SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{100}))).Build()},
      {"pos-offset", SeqRef("s").Offset(3).Project({"value"}).Build()},
      {"running-sum", SeqRef("s").RunningAgg(AggFunc::kSum, "value").Build(),
       /*chunkable=*/false},
      {"compose", SeqRef("s").ComposeWith(SeqRef("sp").Prev()).Build(),
       /*chunkable=*/false},
  };
  for (bool probed : {false, true}) {
    engine_.options().force_root_mode =
        probed ? std::optional<AccessMode>(AccessMode::kProbed) : std::nullopt;
    for (const Shape& shape : shapes) {
      Query query;
      query.graph = shape.graph;
      query.range = Span::Of(0, 63);
      for (bool use_batch : {true, false}) {
        for (int workers : {1, 4}) {
          RunOptions opts;
          opts.exec.use_batch = use_batch;
          opts.exec.parallelism = workers;
          opts.exec.checkpoint.chunk = 8;
          const std::string ctx = shape.name +
                                  (use_batch ? " [batch" : " [tuple") +
                                  (probed ? ",probed" : ",stream") + ",x" +
                                  std::to_string(workers) + "]";

          // Uninterrupted checkpointed run: the parity baseline.
          ChainOutcome base = RunSuspendChain(engine_, query, opts,
                                              /*suspend_every=*/0);
          ASSERT_TRUE(base.status.ok()) << ctx << ": " << base.status;
          EXPECT_EQ(base.suspensions, 0) << ctx;

          // The plain path must agree on rows (and integer counters —
          // simulated_cost may sum in a different order across chunks).
          RunOptions plain_opts;
          plain_opts.exec.use_batch = use_batch;
          plain_opts.exec.parallelism = workers;
          AccessStats plain_stats;
          plain_opts.stats = &plain_stats;
          auto plain = engine_.Run(query, plain_opts);
          ASSERT_TRUE(plain.ok()) << ctx << ": " << plain.status();
          ExpectSameRows(*plain, base.result, ctx + " vs plain");
          EXPECT_EQ(plain_stats.records_output, base.stats.records_output)
              << ctx;
          EXPECT_NEAR(plain_stats.simulated_cost, base.stats.simulated_cost,
                      1e-9 * (1.0 + std::abs(plain_stats.simulated_cost)))
              << ctx;

          // Suspend after every k-th chunk and resume the chain to the
          // end: rows AND stats must be identical to the uninterrupted
          // checkpointed run — including simulated_cost, bit for bit.
          for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{3}}) {
            ChainOutcome got = RunSuspendChain(engine_, query, opts, k);
            const std::string label = ctx + " k=" + std::to_string(k);
            ASSERT_TRUE(got.status.ok()) << label << ": " << got.status;
            if (shape.chunkable) {
              EXPECT_GE(got.suspensions, 1) << label;
            }
            ExpectSameRows(base.result, got.result, label);
            ExpectIdenticalStats(base.stats, got.stats, label);
          }
        }
      }
    }
  }
  engine_.options().force_root_mode = std::nullopt;
}

TEST_F(CheckpointTest, ProbedPositionListSuspendsBetweenProbeChunks) {
  engine_.options().force_root_mode = AccessMode::kProbed;
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kSum, "value", 5).Build();
  query.positions = {2, 3, 10, 17, 18, 25, 33, 40, 41, 55, 60, 63};
  RunOptions opts;
  opts.exec.checkpoint.chunk = 4;  // 3 chunks of the 12-entry probe list
  ChainOutcome base = RunSuspendChain(engine_, query, opts, 0);
  ASSERT_TRUE(base.status.ok()) << base.status;
  ChainOutcome got = RunSuspendChain(engine_, query, opts, 1);
  ASSERT_TRUE(got.status.ok()) << got.status;
  EXPECT_GE(got.suspensions, 1);
  ExpectSameRows(base.result, got.result, "probed position list");
  ExpectIdenticalStats(base.stats, got.stats, "probed position list");
  engine_.options().force_root_mode = std::nullopt;
}

TEST_F(CheckpointTest, ResumeInFreshEngineProcess) {
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build();
  query.range = Span::Of(0, 63);
  RunOptions opts;
  opts.exec.checkpoint.enabled = true;
  opts.exec.checkpoint.chunk = 8;
  opts.exec.checkpoint.suspend_every_chunks = 2;
  opts.exec.checkpoint.path = TmpPath("ckpt_fresh_engine.ckpt");
  auto suspended = engine_.Run(query, opts);
  ASSERT_FALSE(suspended.ok());
  ASSERT_TRUE(IsQuerySuspended(suspended.status())) << suspended.status();
  const std::string path = SuspendedCheckpointPath(suspended.status());
  EXPECT_EQ(path, opts.exec.checkpoint.path);

  // Same registrations in the same order = same catalog version and same
  // stores: the checkpoint written by engine_ resumes in a fresh engine,
  // exactly as crash recovery in a new process would.
  Engine fresh;
  RegisterAll(fresh);
  RunOptions resume_opts;
  resume_opts.exec.checkpoint.chunk = 8;
  AccessStats stats;
  resume_opts.stats = &stats;
  auto resumed = fresh.Resume(path, resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();

  RunOptions base_opts;
  base_opts.exec.checkpoint.chunk = 8;
  ChainOutcome base = RunSuspendChain(fresh, query, base_opts, 0);
  ASSERT_TRUE(base.status.ok());
  ExpectSameRows(base.result, *resumed, "fresh-engine resume");
  ExpectIdenticalStats(base.stats, stats, "fresh-engine resume");
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, UserRequestFlagSuspends) {
  std::atomic<bool> request{true};
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kSum, "value", 8).Build();
  query.range = Span::Of(0, 63);
  RunOptions opts;
  opts.exec.checkpoint.enabled = true;
  opts.exec.checkpoint.chunk = 8;
  opts.exec.checkpoint.request = &request;
  opts.exec.checkpoint.path = TmpPath("ckpt_user_request.ckpt");
  auto r = engine_.Run(query, opts);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(IsQuerySuspended(r.status())) << r.status();
  EXPECT_NE(r.status().message().find("user"), std::string::npos)
      << r.status();

  request.store(false);
  RunOptions resume_opts;
  resume_opts.exec.checkpoint.chunk = 8;
  auto resumed = engine_.Resume(opts.exec.checkpoint.path, resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  auto plain = engine_.Run(query, RunOptions{});
  ASSERT_TRUE(plain.ok());
  ExpectSameRows(*plain, *resumed, "user-request resume");
  std::remove(opts.exec.checkpoint.path.c_str());
}

TEST_F(CheckpointTest, RegistryRequestSuspendFlagsLiveQuery) {
  EXPECT_FALSE(Engine::RequestSuspend(999999999));

  // A deliberately long checkpointed run; the main thread finds it in the
  // live-query registry and flags it, exactly as seqsh `.suspend <id>`
  // does. If the run wins the race and finishes first, RequestSuspend
  // stays false and the run must simply have succeeded.
  Engine big;
  IntSeriesOptions series;
  series.span = Span::Of(0, 199999);
  series.density = 1.0;
  series.seed = 11;
  ASSERT_TRUE(big.RegisterBase("big", *MakeIntSeries(series)).ok());
  Query query;
  query.graph = SeqRef("big").Agg(AggFunc::kSum, "value", 8).Build();
  query.range = Span::Of(0, 199999);
  RunOptions opts;
  opts.exec.checkpoint.enabled = true;
  opts.exec.checkpoint.chunk = 512;
  opts.exec.checkpoint.path = TmpPath("ckpt_registry_request.ckpt");

  // Result(Status) requires a non-OK status; the runner overwrites this.
  Result<QueryResult> outcome = Status::Internal("query did not finish");
  std::thread runner([&] { outcome = big.Run(query, opts); });
  bool flagged = false;
  for (int i = 0; i < 200000 && !flagged; ++i) {
    for (const LiveQueryInfo& live : QueryRegistry::Global().Live()) {
      if (Engine::RequestSuspend(live.id)) {
        flagged = true;
        break;
      }
    }
  }
  runner.join();
  if (flagged && !outcome.ok()) {
    ASSERT_TRUE(IsQuerySuspended(outcome.status())) << outcome.status();
    auto resumed = big.Resume(SuspendedCheckpointPath(outcome.status()));
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(resumed->records.size(), 200000u);
  } else {
    // Raced to completion (or the flag landed after the last boundary).
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }
  std::remove(opts.exec.checkpoint.path.c_str());
}

// --- stale-checkpoint rejection ---------------------------------------------

class CheckpointStaleTest : public CheckpointTest {
 protected:
  /// Suspends a window-aggregate run after its first chunk and returns the
  /// checkpoint path.
  std::string SuspendOnce(const std::string& file) {
    Query query;
    query.graph = SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build();
    query.range = Span::Of(0, 63);
    RunOptions opts;
    opts.exec.checkpoint.enabled = true;
    opts.exec.checkpoint.chunk = 8;
    opts.exec.checkpoint.suspend_every_chunks = 1;
    opts.exec.checkpoint.path = TmpPath(file);
    auto r = engine_.Run(query, opts);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(IsQuerySuspended(r.status())) << r.status();
    return opts.exec.checkpoint.path;
  }
};

TEST_F(CheckpointStaleTest, CatalogVersionMismatchRejected) {
  const std::string path = SuspendOnce("ckpt_stale_catalog.ckpt");
  IntSeriesOptions extra;
  extra.span = Span::Of(0, 7);
  extra.seed = 3;
  ASSERT_TRUE(engine_.RegisterBase("extra", *MakeIntSeries(extra)).ok());
  auto resumed = engine_.Resume(path);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("catalog version"),
            std::string::npos)
      << resumed.status();
  std::remove(path.c_str());
}

TEST_F(CheckpointStaleTest, OptionsFingerprintMismatchRejected) {
  const std::string path = SuspendOnce("ckpt_stale_options.ckpt");
  engine_.options().cost_params.disable_window_cache = true;
  auto resumed = engine_.Resume(path);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("fingerprint"),
            std::string::npos)
      << resumed.status();
  std::remove(path.c_str());
}

TEST_F(CheckpointStaleTest, PlanSignatureMismatchRejected) {
  const std::string path = SuspendOnce("ckpt_stale_signature.ckpt");
  // Tamper with the stored shape signature (checksum recomputed by the
  // save): the re-planned query no longer matches and must be rejected.
  auto image = LoadCheckpoint(path);
  ASSERT_TRUE(image.ok()) << image.status();
  image->plan_signature = "not|the|same|shape";
  ASSERT_TRUE(SaveCheckpoint(*image, path).ok());
  auto resumed = engine_.Resume(path);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("plan signature"),
            std::string::npos)
      << resumed.status();
  std::remove(path.c_str());
}

TEST_F(CheckpointStaleTest, ResumeRejectsProfileAndSink) {
  const std::string path = SuspendOnce("ckpt_resume_modes.ckpt");
  RunOptions profile_opts;
  profile_opts.profile = true;
  auto profiled = engine_.Resume(path, profile_opts);
  ASSERT_FALSE(profiled.ok());
  EXPECT_EQ(profiled.status().code(), StatusCode::kInvalidArgument);

  RunOptions sink_opts;
  sink_opts.sink = [](Position, const Record&) {};
  auto sunk = engine_.Resume(path, sink_opts);
  ASSERT_FALSE(sunk.ok());
  EXPECT_EQ(sunk.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CheckpointedRunRejectsSink) {
  Query query;
  query.graph = SeqRef("s").Build();
  query.range = Span::Of(0, 63);
  RunOptions opts;
  opts.exec.checkpoint.enabled = true;
  opts.sink = [](Position, const Record&) {};
  auto r = engine_.Run(query, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- injected checkpoint faults ---------------------------------------------

TEST_F(CheckpointTest, CheckpointWriteFaultFailsClosedAndTearsFile) {
  FaultInjector injector(/*seed=*/42);
  injector.ArmAfter(FaultSite::kCheckpointWrite, 1);
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build();
  query.range = Span::Of(0, 63);
  RunOptions opts;
  opts.exec.checkpoint.enabled = true;
  opts.exec.checkpoint.chunk = 8;
  opts.exec.checkpoint.suspend_every_chunks = 1;
  opts.exec.checkpoint.path = TmpPath("ckpt_write_fault.ckpt");
  opts.exec.fault_injector = &injector;
  auto r = engine_.Run(query, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(injector.fired(), 1);
  EXPECT_FALSE(IsQuerySuspended(r.status())) << r.status();
  EXPECT_NE(r.status().message().find("injected fault"), std::string::npos)
      << r.status();
  // The torn file the failed write left behind must never resume: loading
  // it is DataLoss, end to end.
  auto loaded = LoadCheckpoint(opts.exec.checkpoint.path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  auto resumed = engine_.Resume(opts.exec.checkpoint.path);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
  std::remove(opts.exec.checkpoint.path.c_str());
}

TEST_F(CheckpointTest, CheckpointReadFaultFailsClosed) {
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build();
  query.range = Span::Of(0, 63);
  RunOptions opts;
  opts.exec.checkpoint.enabled = true;
  opts.exec.checkpoint.chunk = 8;
  opts.exec.checkpoint.suspend_every_chunks = 1;
  opts.exec.checkpoint.path = TmpPath("ckpt_read_fault.ckpt");
  auto r = engine_.Run(query, opts);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(IsQuerySuspended(r.status())) << r.status();

  FaultInjector injector(/*seed=*/42);
  injector.ArmAfter(FaultSite::kCheckpointRead, 1);
  RunOptions resume_opts;
  resume_opts.exec.fault_injector = &injector;
  auto resumed = engine_.Resume(opts.exec.checkpoint.path, resume_opts);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(injector.fired(), 1);
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(resumed.status().message().find("injected fault"),
            std::string::npos)
      << resumed.status();

  // The same file resumes fine once the fault is gone: the injected read
  // failure was transient, the file itself is intact.
  auto clean = engine_.Resume(opts.exec.checkpoint.path);
  EXPECT_TRUE(clean.ok()) << clean.status();
  std::remove(opts.exec.checkpoint.path.c_str());
}

// --- cache-budget parking ---------------------------------------------------

TEST_F(CheckpointTest, CacheBudgetParksInsteadOfDegrading) {
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kAvg, "value", 16).Build();
  query.range = Span::Of(0, 63);
  auto plain = engine_.Run(query, RunOptions{});
  ASSERT_TRUE(plain.ok());

  RunOptions opts;
  opts.exec.checkpoint.enabled = true;
  opts.exec.checkpoint.chunk = 8;
  opts.exec.checkpoint.park_on_cache_budget = true;
  opts.exec.checkpoint.path = TmpPath("ckpt_cache_budget.ckpt");
  opts.exec.guards.max_cache_bytes = 64;  // a 16-entry window cannot fit
  auto parked = engine_.Run(query, opts);
  ASSERT_FALSE(parked.ok());
  ASSERT_TRUE(IsQuerySuspended(parked.status())) << parked.status();
  EXPECT_NE(parked.status().message().find("cache"), std::string::npos)
      << parked.status();

  // Resume with a workable budget: the parked query completes with the
  // answer it would always have produced.
  RunOptions resume_opts;
  resume_opts.exec.checkpoint.chunk = 8;
  auto resumed = engine_.Resume(opts.exec.checkpoint.path, resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ExpectSameRows(*plain, *resumed, "cache-budget park");
  std::remove(opts.exec.checkpoint.path.c_str());
}

// --- scheduler preemption ---------------------------------------------------

TEST_F(CheckpointTest, PreemptFlagParksThroughFileAndCompletes) {
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build();
  query.range = Span::Of(0, 63);
  RunOptions opts;
  opts.exec.checkpoint.chunk = 8;
  ChainOutcome base = RunSuspendChain(engine_, query, opts, 0);
  ASSERT_TRUE(base.status.ok());

  // A permanently raised preempt flag parks the run at EVERY chunk
  // boundary: checkpoint written, slot re-requested from the (idle)
  // global scheduler, state reloaded from the file — the full in-place
  // park loop — and the answer must still come out identical.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t parked_before = metrics.Get("engine.checkpoints.parked");
  std::atomic<bool> preempt{true};
  RunOptions park_opts;
  park_opts.exec.checkpoint.enabled = true;
  park_opts.exec.checkpoint.chunk = 8;
  park_opts.exec.checkpoint.preempt = &preempt;
  park_opts.exec.checkpoint.path = TmpPath("ckpt_preempt.ckpt");
  AccessStats stats;
  park_opts.stats = &stats;
  auto r = engine_.Run(query, park_opts);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectSameRows(base.result, *r, "preempt park");
  ExpectIdenticalStats(base.stats, stats, "preempt park");
  EXPECT_GE(metrics.Get("engine.checkpoints.parked") - parked_before, 1);
  std::remove(park_opts.exec.checkpoint.path.c_str());
}

TEST(SchedulerPreemptionTest, QueuePressureFlagsLowestPriorityRunner) {
  QueryScheduler sched;
  sched.SetMaxRunning(1);
  QueryScheduler::AdmitRequest first;
  auto slot = sched.Admit(first);
  ASSERT_TRUE(slot.ok());

  QueryScheduler::Preemption low = sched.RegisterPreemptible(
      QueryPriority::kLow);
  QueryScheduler::Preemption normal = sched.RegisterPreemptible(
      QueryPriority::kNormal);
  EXPECT_EQ(sched.Stats().preemptible, 2u);
  EXPECT_FALSE(low.flag()->load());

  // A high-priority waiter queues -> the scheduler must flag the LOWEST
  // priority registered runner (strictly below the waiter), exactly once.
  std::thread waiter([&] {
    QueryScheduler::AdmitRequest high;
    high.priority = QueryPriority::kHigh;
    auto s = sched.Admit(high);
    if (s.ok()) s.value().Release();
  });
  while (sched.Stats().queued == 0) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(low.flag()->load());
  EXPECT_FALSE(normal.flag()->load());
  EXPECT_EQ(sched.Stats().suspend_requests, 1);
  EXPECT_NE(sched.ToString().find("suspend request"), std::string::npos);

  low.Rearm();
  EXPECT_FALSE(low.flag()->load());
  slot.value().Release();
  waiter.join();
}

// --- non-chunkable shapes ---------------------------------------------------

TEST_F(CheckpointTest, NonChunkablePlanIgnoresSuspendAndCompletes) {
  // Point positions on a stream root cannot chunk: the run must ignore
  // the trigger and complete normally instead of suspending or failing.
  engine_.options().force_root_mode = AccessMode::kStream;
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kSum, "value", 5).Build();
  query.positions = {5, 9, 22, 41};
  auto plain = engine_.Run(query, RunOptions{});
  ASSERT_TRUE(plain.ok());

  RunOptions opts;
  opts.exec.checkpoint.enabled = true;
  opts.exec.checkpoint.suspend_every_chunks = 1;
  auto r = engine_.Run(query, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectSameRows(*plain, *r, "non-chunkable");
  engine_.options().force_root_mode = std::nullopt;
}

// --- metrics & registry accounting ------------------------------------------

TEST_F(CheckpointTest, SuspensionCountsAsCheckpointNotFailure) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int64_t written_before = metrics.Get("engine.checkpoints.written");
  const int64_t failed_before = metrics.Get("engine.failed_runs");
  Query query;
  query.graph = SeqRef("s").Agg(AggFunc::kAvg, "value", 8).Build();
  query.range = Span::Of(0, 63);
  RunOptions opts;
  opts.exec.checkpoint.enabled = true;
  opts.exec.checkpoint.chunk = 8;
  opts.exec.checkpoint.suspend_every_chunks = 1;
  opts.exec.checkpoint.path = TmpPath("ckpt_metrics.ckpt");
  auto r = engine_.Run(query, opts);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(IsQuerySuspended(r.status()));
  EXPECT_GE(metrics.Get("engine.checkpoints.written") - written_before, 1);
  // A suspension is a parked query, not a failed one.
  EXPECT_EQ(metrics.Get("engine.failed_runs"), failed_before);

  const int64_t resumed_before = metrics.Get("engine.checkpoints.resumed");
  auto resumed = engine_.Resume(opts.exec.checkpoint.path);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_GE(metrics.Get("engine.checkpoints.resumed") - resumed_before, 1);
  std::remove(opts.exec.checkpoint.path.c_str());
}

TEST(QueryStateTest, SuspendedStateHasAName) {
  EXPECT_STREQ(QueryStateName(QueryState::kSuspended), "suspended");
}

// --- stream sessions --------------------------------------------------------

TEST(StreamSessionCheckpointTest, SuspendResumeContinuesWhereItStopped) {
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kInt64}});
  Catalog catalog;
  auto store = std::make_shared<BaseSequenceStore>(schema, 16);
  ASSERT_TRUE(catalog.RegisterBase("live", store).ok());
  StreamSession session(&catalog,
                        SeqRef("live").Agg(AggFunc::kSum, "v", 4).Build());
  for (Position p = 0; p < 64; ++p) {
    ASSERT_TRUE(session.Append("live", p, {Value::Int64(p)}).ok());
  }
  auto first = session.Poll();
  ASSERT_TRUE(first.ok()) << first.status();
  const Position mark = session.high_water_mark();

  const std::string path = TmpPath("ckpt_stream_session.ckpt");
  ASSERT_TRUE(session.Suspend(path).ok());

  auto resumed = StreamSession::Resume(&catalog, path);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->high_water_mark(), mark);
  EXPECT_FALSE(resumed->degraded());

  // New arrivals after the restart: the resumed session emits exactly the
  // answers the suspended one had not yet emitted.
  for (Position p = 64; p < 100; ++p) {
    ASSERT_TRUE(resumed->Append("live", p, {Value::Int64(p)}).ok());
  }
  auto second = resumed->Poll();
  ASSERT_TRUE(second.ok()) << second.status();

  Catalog control_catalog;
  auto control_store = std::make_shared<BaseSequenceStore>(schema, 16);
  ASSERT_TRUE(control_catalog.RegisterBase("live", control_store).ok());
  StreamSession control(&control_catalog,
                        SeqRef("live").Agg(AggFunc::kSum, "v", 4).Build());
  for (Position p = 0; p < 100; ++p) {
    ASSERT_TRUE(control.Append("live", p, {Value::Int64(p)}).ok());
  }
  auto all = control.Poll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(first->size() + second->size(), all->size());
  for (size_t i = 0; i < all->size(); ++i) {
    const PosRecord& got =
        i < first->size() ? (*first)[i] : (*second)[i - first->size()];
    EXPECT_EQ(got.pos, (*all)[i].pos) << "row " << i;
    EXPECT_EQ(got.rec, (*all)[i].rec) << "row " << i;
  }
  std::remove(path.c_str());
}

TEST(StreamSessionCheckpointTest, StaleSessionCheckpointRejected) {
  SchemaPtr schema = Schema::Make({Field{"v", TypeId::kInt64}});
  Catalog catalog;
  auto store = std::make_shared<BaseSequenceStore>(schema, 16);
  ASSERT_TRUE(catalog.RegisterBase("live", store).ok());
  StreamSession session(&catalog, SeqRef("live").Prev().Build());
  const std::string path = TmpPath("ckpt_stream_stale.ckpt");
  ASSERT_TRUE(session.Suspend(path).ok());

  // The catalog moved on (new sequence registered): resuming against it
  // must be rejected, not silently re-attached.
  auto other = std::make_shared<BaseSequenceStore>(schema, 16);
  ASSERT_TRUE(catalog.RegisterBase("other", other).ok());
  auto resumed = StreamSession::Resume(&catalog, path);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("catalog version"),
            std::string::npos)
      << resumed.status();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seq
