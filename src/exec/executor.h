#ifndef SEQ_EXEC_EXECUTOR_H_
#define SEQ_EXEC_EXECUTOR_H_

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/cost_params.h"
#include "common/result.h"
#include "exec/checkpoint.h"
#include "exec/operator.h"
#include "exec/scheduler.h"
#include "obs/profile.h"
#include "obs/query_registry.h"
#include "optimizer/optimizer.h"
#include "optimizer/physical_plan.h"

namespace seq {

/// A materialized query output: the non-null records of the answer
/// sequence in position order. When the run was profiled
/// (RunOptions::profile), `profile` carries the per-operator
/// estimated-vs-actual record and the optimizer trace.
struct QueryResult {
  SchemaPtr schema;
  std::vector<PosRecord> records;
  std::optional<QueryProfile> profile;

  /// First `limit` records, one per line.
  std::string ToString(size_t limit = 20) const;
};

/// Row consumer for a sink run (Executor::Execute with a sink). The
/// executor's one driving loop hands every answer row either to the
/// materialized result (moving the values out of the batch slots) or to
/// the sink. The record reference is only valid for the duration of the
/// call: the batch path hands out pipeline-owned slot buffers that are
/// overwritten by the next batch, so a sink that wants to keep a row must
/// copy it.
using RowSink = std::function<void(Position, const Record&)>;

/// Process-wide default for ExecOptions::use_batch: true unless the
/// environment variable SEQ_USE_BATCH is set to "0". Lets the full test
/// suite be re-run under tuple driving without code changes.
bool DefaultUseBatch();

/// Process-wide default for ExecOptions::parallelism, from the
/// SEQ_PARALLELISM environment variable (1 when unset). Lets the full
/// suite be re-run under morsel-parallel driving — the ThreadSanitizer CI
/// job runs with SEQ_PARALLELISM=4 — without code changes.
int DefaultParallelism();

/// Runtime knobs for the Start operator's driving loop.
struct ExecOptions {
  /// Drive plans batch-at-a-time: NextBatch for stream roots, ProbeBatch
  /// for probed roots (including point-position probed queries). Stream
  /// plans answering point-position queries use the tuple path — the scan
  /// filter is positional, not batch-shaped. Setting this false forces
  /// tuple-at-a-time driving everywhere — the debugging and
  /// differential-testing baseline. Both paths produce identical rows and
  /// identical AccessStats counters (simulated_cost may differ in the
  /// last few ulps from summation order).
  bool use_batch = DefaultUseBatch();
  /// Capacity of the driver's RecordBatch and of every BatchInput buffer
  /// allocated beneath it.
  size_t batch_capacity = RecordBatch::kDefaultCapacity;
  /// Per-query budgets (rows, pages, wall clock, cache memory) and the
  /// cooperative cancellation flag; see QueryGuards. All unlimited by
  /// default.
  QueryGuards guards;
  /// Deterministic fault source for robustness testing; never set in
  /// production. Owned by the caller and must outlive every execution that
  /// uses these options. Arming it forces serial execution (the injector's
  /// global hit counters define "the k-th access" in serial order).
  FaultInjector* fault_injector = nullptr;
  /// Per-query *share cap* for morsel-driven intra-query parallelism
  /// (docs/execution.md): the most workers of the process-wide
  /// QueryScheduler pool that may run this query's morsels concurrently.
  /// 1 (the default) runs everything on the calling thread; values > 1
  /// split stream-root plans' output spans (and probed-root plans'
  /// position lists) into contiguous morsels evaluated by independent
  /// operator-tree clones on the shared pool. This is NOT a thread count:
  /// threads belong to the scheduler (SEQ_SCHED_WORKERS), and a query
  /// may get fewer than its cap when the pool is busy. Plans with
  /// operators that cannot be partitioned correctly, or where carry-in
  /// state would cost more than the parallel win, fall back to serial —
  /// rows, merged AccessStats and budget trips are identical either way.
  int parallelism = DefaultParallelism();
  /// Admission priority class on the process-wide scheduler: higher
  /// classes leave the admission queue first and their morsels are
  /// dispatched to workers first. Only consulted for parallel execution —
  /// serial queries never touch the scheduler.
  QueryPriority priority = QueryPriority::kNormal;
  /// Longest this query may wait in the scheduler's admission queue
  /// before giving up with ResourceExhausted: > 0 bounds the wait in
  /// milliseconds, 0 (the default) adopts the scheduler-wide default
  /// (itself "no timeout" unless configured), < 0 waits indefinitely.
  /// Wall-clock budgets (QueryGuards::max_wall_ms) keep ticking while
  /// queued either way.
  int64_t admission_timeout_ms = 0;
  /// Morsel length in positions. 0 (auto) splits the span into one morsel
  /// per worker. An explicit size is treated as a caller override: the
  /// carry-in cost heuristic is skipped (correctness fallbacks still
  /// apply), which is how tests force parallel driving on small spans.
  size_t morsel_size = 0;
  /// Live-progress sink for the query registry (docs/observability.md).
  /// When set, the driving loops publish rows emitted, pages charged,
  /// worker and morsel counts into it via relaxed atomics at batch
  /// boundaries — never with a lock. Owned by the caller (the engine's
  /// registry ticket) and must outlive the execution. Null costs nothing.
  QueryTelemetry* telemetry = nullptr;
  /// Consult the process-wide parameterized plan cache (docs/execution.md)
  /// before optimizing: repeat query shapes skip parse+rewrite+plan and
  /// re-bind literals into the cached template. Rows and stats are
  /// identical either way — the cache only changes where the plan comes
  /// from. Read by the engine, not the executor; lives here with the other
  /// per-query knobs so PreparedQuery/seqsh/benches thread it the same way
  /// as use_batch. The cache's own switch (PlanCache::set_enabled, started
  /// off by SEQ_PLAN_CACHE=0, flipped by `.plancache on|off`) turns it off
  /// for every query at once.
  bool use_plan_cache = true;
  /// Owning session (docs/server.md): a nonzero id attributes this run to
  /// a client session in the query registry, `.queries` output and the
  /// telemetry exporters. 0 (the default) means "no session" — direct
  /// library calls. Read by the engine's registry envelope, not the
  /// executor.
  uint64_t session_id = 0;
  /// Operator-state checkpointing (docs/robustness.md): when enabled, the
  /// engine drives the query through Executor::ExecuteCheckpointed, which
  /// executes chunkable plans as a sequence of clip-span chunks with
  /// cooperative suspend points at every chunk boundary. Plans whose shape
  /// cannot chunk run normally and report why in the capture.
  CheckpointConfig checkpoint;
};

/// How (and why) the executor decided to drive one plan: serial, or
/// parallel over which morsels. Computed deterministically from the plan
/// and ExecOptions by Executor::PlanMorsels; the engine surfaces `reason`
/// in the optimizer trace and the profile notes.
struct MorselPlan {
  bool parallel = false;
  /// Human-readable decision record, e.g. "parallel: 4 workers x 4
  /// morsels" or "serial: lock-step compose does not partition".
  std::string reason;
  int workers = 1;
  /// Contiguous output sub-spans (stream roots) in position order, tiling
  /// the plan's output span. Empty for probed roots (those chunk the
  /// position list instead).
  std::vector<Span> morsels;
};

/// Instantiates physical operators from plan descriptors and drives the
/// Start operator (paper §4: "the Start operator at the root of the plan
/// induces a stream access on its input sequence").
class Executor {
 public:
  explicit Executor(const Catalog& catalog, CostParams params = CostParams{},
                    ExecOptions options = ExecOptions{})
      : catalog_(catalog), params_(params), options_(options) {}

  /// Evaluates a complete plan: serially, or morsel-parallel when
  /// ExecOptions::parallelism allows (PlanMorsels). If `stats` is
  /// non-null, all simulated access/cache/predicate charges accumulate
  /// into it.
  ///
  /// With `sink` set, every answer row is handed to it in position order
  /// instead of being materialized, and the returned result carries only
  /// the schema. This is the allocation-free consumption path — under
  /// batch driving the rows visited are the pipeline's reusable slot
  /// buffers. A sink run always drives serially on the calling thread,
  /// whatever ExecOptions::parallelism says. Same rows, same order, same
  /// AccessStats charges as a materialized run in both driving modes.
  ///
  /// With `profile` set, every operator is wrapped in an instrumented
  /// shim that records calls, rows, wall time and simulated-cost deltas
  /// into `profile` (which is reset first); an unprofiled run builds no
  /// shims. A profiled run cannot also stream to a sink.
  Result<QueryResult> Execute(const PhysicalPlan& plan,
                              AccessStats* stats = nullptr,
                              const RowSink& sink = {},
                              QueryProfile* profile = nullptr) const;

  /// Operator-tree factory, exposed for tests and benchmarks that build
  /// custom plans. One table-driven pass lowers the PhysNode tree — each
  /// node's access mode and strategy annotations select the unified
  /// operator's construction shape; the caller drives the returned root
  /// in the plan's root mode. When `profile_parent` is non-null the
  /// returned tree is instrumented and its profile nodes are appended
  /// under it.
  Result<SeqOpPtr> Build(const PhysNodePtr& node,
                         OperatorProfile* profile_parent = nullptr) const;

  /// Checkpointable evaluation (docs/robustness.md): chunkable plans run
  /// as a deterministic grid of clip-span chunks — the same rows, counters
  /// and budget trips as Execute — polling the CheckpointConfig suspend
  /// triggers at every chunk boundary. On suspension the complete prefix
  /// (rows, stats, operator-state blob, watermark) is left in
  /// options.checkpoint.capture and an empty result is returned; the
  /// caller persists it and later resumes by re-running with
  /// options.checkpoint.resume set. Requires options.checkpoint.capture.
  Result<QueryResult> ExecuteCheckpointed(const PhysicalPlan& plan,
                                          AccessStats* stats = nullptr) const;

  /// The morsel-parallelism decision for `plan` under these options:
  /// whether it runs parallel, with how many workers over which morsels,
  /// and why. Pure and deterministic — the engine calls it to record the
  /// decision, Execute recomputes it to act on it.
  MorselPlan PlanMorsels(const PhysicalPlan& plan) const;

 private:
  Result<SeqOpPtr> BuildInner(const PhysNodePtr& node,
                              OperatorProfile* prof) const;

  // One builder per OpKind, dispatched through a table indexed by the
  // enum value so optimizer node kinds and executor lowering stay in
  // one-to-one correspondence.
  Result<SeqOpPtr> BuildBaseRef(const PhysNode& node,
                                OperatorProfile* prof) const;
  Result<SeqOpPtr> BuildConstantRef(const PhysNode& node,
                                    OperatorProfile* prof) const;
  Result<SeqOpPtr> BuildSelect(const PhysNode& node,
                               OperatorProfile* prof) const;
  Result<SeqOpPtr> BuildProject(const PhysNode& node,
                                OperatorProfile* prof) const;
  Result<SeqOpPtr> BuildPosOffset(const PhysNode& node,
                                  OperatorProfile* prof) const;
  Result<SeqOpPtr> BuildValueOffset(const PhysNode& node,
                                    OperatorProfile* prof) const;
  Result<SeqOpPtr> BuildWindowAgg(const PhysNode& node,
                                  OperatorProfile* prof) const;
  Result<SeqOpPtr> BuildCompose(const PhysNode& node,
                                OperatorProfile* prof) const;
  Result<SeqOpPtr> BuildCollapse(const PhysNode& node,
                                 OperatorProfile* prof) const;
  Result<SeqOpPtr> BuildExpand(const PhysNode& node,
                               OperatorProfile* prof) const;

  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  Result<QueryResult> ExecuteImpl(const PhysicalPlan& plan,
                                  AccessStats* stats, const RowSink& sink,
                                  OperatorProfile* root_profile) const;

  // The context one driven unit runs in. A serial run (`split` false)
  // checks its row and page budgets in ExecContext::CheckGuards; a unit of
  // a split run — a morsel or a checkpoint chunk — has them zeroed,
  // because its accounting step checks them against whole-query totals.
  ExecContext UnitContext(AccessStats* stats, const Deadline& deadline,
                          bool split) const;

  // Overrides applied when a morsel group executes ONE CHUNK of a
  // checkpointed query rather than the whole plan: the outermost units are
  // clipped at the chunk boundaries instead of left open (a middle chunk
  // must not re-read the lead-in or run into the tail), whole-query row and
  // page budgets start from what earlier chunks already spent, and the
  // wall-clock deadline is the one computed before chunk 0, not a fresh
  // one per chunk. Registry morsel telemetry is owned by the chunk driver.
  struct ChunkExtras {
    Position clip_lo = kMinPosition;
    Position clip_hi = kMaxPosition;
    int64_t base_rows = 0;
    int64_t base_pages = 0;
    Deadline deadline;
  };

  // Morsel-parallel driving (see docs/execution.md): independent operator
  // trees per morsel, per-morsel AccessStats merged in morsel order,
  // shared budget accounting at batch boundaries. `extras` is set when the
  // group runs one chunk of a checkpointed query.
  Result<QueryResult> ExecuteMorsels(const PhysicalPlan& plan,
                                     const MorselPlan& morsels,
                                     AccessStats* stats,
                                     OperatorProfile* root_profile,
                                     const ChunkExtras* extras) const;

  const Catalog& catalog_;
  CostParams params_;
  ExecOptions options_;
};

/// Graceful cache-budget degradation (docs/robustness.md), shared by
/// Engine::Run and StreamSession::Poll: after a run trips
/// QueryGuards::max_cache_bytes, re-plans `query` under `options` with
/// every operator cache (Cache-Strategy-A windows, Cache-Strategy-B offset
/// caches) disabled, so the fallback plan cannot trip the budget again,
/// and executes it. With `profile` set the run is profiled into it and
/// profile->optimizer receives the re-plan's trace; `morsels`, when set,
/// receives the fallback plan's driving decision. Never used for a sink
/// run: rows a sink already saw cannot be taken back.
Result<QueryResult> RunCacheFree(const Catalog& catalog, const Query& query,
                                 OptimizerOptions options,
                                 const ExecOptions& exec, AccessStats* stats,
                                 QueryProfile* profile = nullptr,
                                 MorselPlan* morsels = nullptr);

}  // namespace seq

#endif  // SEQ_EXEC_EXECUTOR_H_
