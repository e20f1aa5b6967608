#ifndef SEQ_CORE_ENGINE_H_
#define SEQ_CORE_ENGINE_H_

#include <optional>
#include <string>
#include <utility>

#include "catalog/catalog.h"
#include "common/allocator.h"
#include "common/result.h"
#include "core/plan_cache.h"
#include "core/views.h"
#include "exec/executor.h"
#include "logical/builder.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"

namespace seq {

/// Per-query run configuration — the one way to say HOW a query executes.
/// A RunOptions travels with the call, so concurrent queries on one engine
/// can use different budgets, parallelism, driving modes and
/// instrumentation without racing on shared engine state. Every field
/// reaches the executor's one run entry, Executor::Execute (or
/// ExecuteCheckpointed for a checkpointed run).
///
///   RunOptions opts;
///   opts.exec.guards.max_rows = 1000;
///   opts.exec.parallelism = 4;
///   opts.profile = true;
///   auto result = engine.Run({graph, range}, opts);  // result->profile set
struct RunOptions {
  /// Execution knobs for this run: driving mode, batch capacity, budgets,
  /// fault injection, morsel parallelism (a share cap on the process-wide
  /// scheduler pool), scheduler priority and admission timeout. Defaults
  /// are the library defaults (including SEQ_USE_BATCH / SEQ_PARALLELISM).
  ExecOptions exec = {};
  /// Collect the per-operator runtime profile and optimizer trace into
  /// QueryResult::profile. Slower (every operator call is timed); the
  /// unprofiled path is untouched when false.
  bool profile = false;
  /// When set, every answer row streams to this sink in position order and
  /// QueryResult::records stays empty — the allocation-free consumption
  /// path. The row reference is only valid during the callback. Cannot be
  /// combined with `profile`, and rows already visited before a mid-stream
  /// error or budget trip cannot be taken back (docs/robustness.md).
  RowSink sink = {};
  /// Simulated access/cache/predicate counters accumulate here when set.
  AccessStats* stats = nullptr;
};

/// The public facade of the SEQ library: a catalog of named sequences plus
/// optimize-and-evaluate entry points.
///
/// Thread safety: Plan/Run/Explain are const and safe to call from
/// multiple threads concurrently, provided no thread mutates the engine
/// (RegisterBase/DefineView/Materialize/StreamSession appends) at the same
/// time — the usual "set up, then query in parallel" pattern. Per-query
/// behavior differences belong in RunOptions, which never touches engine
/// state.
///
///   Engine engine;
///   engine.RegisterBase("quakes", store);
///   auto result = engine.Run({SeqRef("quakes")
///                                 .Select(Gt(Col("strength"), Lit(7.0)))
///                                 .Build()});
class Engine {
 public:
  explicit Engine(OptimizerOptions options = {})
      : options_(std::move(options)) {
    ConfigureAllocator();
  }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  OptimizerOptions& options() { return options_; }

  /// Catalog mutations retire this engine's plan-cache entries eagerly.
  /// (The catalog version in every cache key already makes stale entries
  /// unreachable; invalidation reclaims their memory without waiting for
  /// LRU eviction.)
  Status RegisterBase(std::string name, BaseSequencePtr store) {
    Status s = catalog_.RegisterBase(std::move(name), std::move(store));
    if (s.ok()) PlanCache::Global().InvalidateEngine(plan_cache_id_.value());
    return s;
  }
  Status RegisterConstant(std::string name, SchemaPtr schema, Record value) {
    Status s = catalog_.RegisterConstant(std::move(name), std::move(schema),
                                         std::move(value));
    if (s.ok()) PlanCache::Global().InvalidateEngine(plan_cache_id_.value());
    return s;
  }

  /// Defines a named derived sequence (§5.2): queries referring to `name`
  /// inline a clone of `graph`. The name must not shadow a catalog
  /// sequence; definitions may reference earlier views but not cycle.
  Status DefineView(std::string name, LogicalOpPtr graph);
  const ViewMap& views() const { return views_; }

  /// Materializes a derived sequence (§5.3: "materialization of derived
  /// sequences ... is definitely an option"): evaluates `graph` over
  /// `range` (or its natural span) and registers the result as a new base
  /// sequence called `name` — with real column statistics, making it a
  /// first-class optimizer citizen for later queries.
  Status Materialize(const std::string& name, const LogicalOpPtr& graph,
                     std::optional<Span> range = std::nullopt,
                     int records_per_page = 64,
                     AccessCosts costs = AccessCosts{});

  /// Optimizes `query` and returns the selected plan without running it.
  Result<PhysicalPlan> Plan(const Query& query) const;

  /// THE run entry point: optimizes and evaluates `query` under `opts`
  /// (profiled when opts.profile, streamed when opts.sink, checkpointed
  /// when opts.exec.checkpoint.enabled) and applies graceful cache-budget
  /// degradation on every non-sink path. Query is an aggregate, so the
  /// usual shapes are `engine.Run({graph, range})` and
  /// `engine.Run({.graph = g, .positions = {3, 6, 9}})`.
  Result<QueryResult> Run(const Query& query,
                          const RunOptions& opts = {}) const;

  /// Resumes a query suspended to `checkpoint_path` (by a run with
  /// RunOptions::exec.checkpoint.enabled — see docs/robustness.md).
  /// Validates the checkpoint's validity tuple against this engine —
  /// catalog version, optimizer-options fingerprint and plan signature
  /// must all match, or the resume is rejected with FailedPrecondition
  /// naming the mismatch. The query is re-planned from its stored text
  /// (through the plan cache), re-rooted at the stored watermark, its
  /// operator state restored, and run to completion — producing rows and
  /// stats byte-identical to an uninterrupted checkpointed run. The
  /// resumed run may itself suspend again (a new checkpoint file).
  /// `opts.profile` and `opts.sink` must be unset.
  Result<QueryResult> Resume(const std::string& checkpoint_path,
                             const RunOptions& opts = {}) const;

  /// Flags the live query `query_id` (a `.queries` id) for cooperative
  /// suspension at its next chunk boundary. Only checkpoint-enabled runs
  /// observe the flag; returns false when no such query is live.
  static bool RequestSuspend(uint64_t query_id);

  /// Annotated logical graph plus the physical plan, as text.
  Result<std::string> Explain(const Query& query) const;

  /// EXPLAIN ANALYZE: runs the query profiled under `opts` (opts.profile
  /// is implied; opts.sink must be unset) and renders the plan tree with
  /// estimated vs actual rows/cost per operator, the optimizer trace, and
  /// the cost-model drift summary.
  Result<std::string> ExplainAnalyze(const Query& query,
                                     const RunOptions& opts = {}) const;

  /// A query optimized once and executable many times — amortizes the
  /// fixed optimization cost for standing/repeated queries (the regime
  /// where E1's small-input nuance matters).
  class PreparedQuery {
   public:
    /// Executes the prepared plan under per-run options (profile, sink,
    /// budgets, parallelism). Unlike Engine::Run there is no degradation
    /// re-plan here — the plan is fixed; a cache-budget trip surfaces as
    /// the ResourceExhausted degradation signal for the caller to handle.
    Result<QueryResult> Run(const RunOptions& opts = {}) const;
    const PhysicalPlan& plan() const { return plan_; }

   private:
    friend class Engine;
    PreparedQuery(const Catalog* catalog, CostParams params, PhysicalPlan plan,
                  std::string text, std::string digest)
        : catalog_(catalog),
          params_(params),
          plan_(std::move(plan)),
          text_(std::move(text)),
          digest_(std::move(digest)) {}

    const Catalog* catalog_;  // owned by the Engine; must outlive this
    CostParams params_;
    PhysicalPlan plan_;
    // Query-registry identity, captured once at Prepare so repeated Runs
    // never re-unparse (empty when the registry was disabled then).
    std::string text_;
    std::string digest_;
    // True when Prepare itself was answered from the plan cache; surfaced
    // on every Run's registry record.
    bool plan_cached_ = false;
  };

  /// Optimizes once; the result stays valid while this engine (and its
  /// catalog contents) live and is safe to Run() from multiple threads.
  Result<PreparedQuery> Prepare(const Query& query) const;

 private:
  /// How a planning call uses the plan cache: not at all (Plan, Explain,
  /// opted-out runs), read then publish on a miss (Prepare, unprofiled
  /// Run), or publish only (profiled runs — they must produce a real
  /// optimizer trace, so they always re-optimize but still refresh the
  /// cached template).
  enum class CacheUse { kBypass, kRead, kRefresh };

  struct PlannedQuery {
    Query inlined;  // `query` with every view reference inlined
    PhysicalPlan plan;
    bool from_cache = false;  // the plan skipped the optimizer
  };

  /// The one planning entry behind Plan, Prepare, Run, Explain and Resume:
  /// inline views → plan-cache read → optimize via `optimizer` (whose
  /// options select the plan and key the cache) → publish the template.
  Result<PlannedQuery> PlanQuery(const Query& query, CacheUse use,
                                 Optimizer& optimizer) const;

  /// Run behind the always-on telemetry envelope that Run owns
  /// (query-registry ticket, run counters/latency histogram, slow-query
  /// log): plans, records the morsel-parallelism decision, executes (one
  /// Executor::Execute call — plain, profiled or sink — or the checkpointed
  /// driver), and re-plans cache-free on the cache-budget degradation
  /// signal (non-sink paths only — sunk rows can't be unsent).
  Result<QueryResult> RunPlanned(const Query& query, const RunOptions& opts,
                                 QueryRegistry::Ticket& ticket) const;

  /// The checkpointed execution driver behind Run (exec.checkpoint.enabled)
  /// and Resume: drives Executor::ExecuteCheckpointed and, when a suspend
  /// trigger fires at a chunk boundary, persists the capture as a
  /// checkpoint file. User/cache-budget suspensions return the
  /// query-suspended status carrying the file path; scheduler preemptions
  /// park in place — write the file, release the slot, wait in the
  /// admission queue, then resume from the file just written.
  Result<QueryResult> RunCheckpointed(const Query& inlined,
                                      const PhysicalPlan& plan,
                                      const OptimizerOptions& opt_options,
                                      const ExecOptions& exec,
                                      AccessStats* stats,
                                      QueryRegistry::Ticket& ticket) const;

  /// Everything literal-independent that selects a plan: engine identity,
  /// catalog version and the planning-relevant optimizer options. The
  /// query-shape signature is appended to form the full cache key.
  std::string PlanKeyPrefix(const OptimizerOptions& opt_options) const;

  /// Publishes an optimized template (called on every cache miss).
  void InsertPlanEntry(const std::string& key, ParameterizedQuery pq,
                       const PhysicalPlan& plan, const Optimizer& optimizer,
                       const Query& inlined) const;

  Catalog catalog_;
  OptimizerOptions options_;
  ViewMap views_;
  PlanCacheId plan_cache_id_;
};

}  // namespace seq

#endif  // SEQ_CORE_ENGINE_H_
