#include "core/engine.h"

#include <atomic>
#include <chrono>
#include <sstream>

#include "common/query_digest.h"
#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/slow_query_log.h"
#include "optimizer/plan_template.h"
#include "parser/unparse.h"
#include "storage/checkpoint_file.h"

namespace seq {

namespace {

/// Display text for the query registry and slow-query log: the query
/// rendered back to Sequin, with the range/point request appended. Only
/// called when the registry is enabled — the disabled fast path never
/// pays the unparse.
std::string QueryDisplayText(const Query& query) {
  std::string text = "<unprintable query>";
  if (query.graph != nullptr) {
    Result<std::string> unparsed = UnparseQuery(*query.graph);
    if (unparsed.ok()) text = std::move(unparsed).value();
  }
  if (!query.positions.empty()) {
    text += " at " + std::to_string(query.positions.size()) + " positions";
  } else if (query.range.has_value()) {
    text += " over " + query.range->ToString();
  }
  return text;
}

/// The always-on completion envelope shared by Engine::Run and
/// PreparedQuery::Run: times `run`, then records the per-run counters and
/// latency histogram, the registry completion record, and the slow-query
/// digest log on every exit path. The hot metric objects are resolved once
/// and cached — the registries are leaked process singletons, so the
/// references never dangle.
template <typename RunFn>
Result<QueryResult> RunRecorded(QueryRegistry::Ticket& ticket, RunFn&& run) {
  const auto start = std::chrono::steady_clock::now();
  Result<QueryResult> result = run();
  const double wall_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - start)
          .count();
  const Status& status = result.status();
  static MetricCounter& runs = MetricsRegistry::Global().Counter("engine.runs");
  static MetricCounter& failed =
      MetricsRegistry::Global().Counter("engine.failed_runs");
  static Histogram& run_us =
      MetricsRegistry::Global().GetHistogram("engine.run_us");
  // A suspended query is parked, not failed: its prefix sits in a valid
  // checkpoint file awaiting Resume.
  const bool suspended = IsQuerySuspended(status);
  runs.Add();
  if (!status.ok() && !suspended) failed.Add();
  run_us.Record(wall_us);
  if (!ticket.active()) return result;
  CompletedQueryInfo done = ticket.Finish(
      status.ok() || suspended,
      status.ok() ? "OK"
                  : (suspended ? "Suspended" : StatusCodeName(status.code())));
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Observe("engine.rows", static_cast<double>(done.rows));
  metrics.Observe("engine.pages", static_cast<double>(done.pages));
  SlowQueryLog& slow = SlowQueryLog::Global();
  if (slow.ShouldLog(static_cast<double>(done.wall_us))) {
    slow.Record(done.digest, done.text, done.id,
                static_cast<double>(done.wall_us), done.rows, done.pages,
                done.status, static_cast<double>(done.queued_us));
  }
  return result;
}

size_t CountPlanNodes(const PhysNodePtr& node) {
  if (node == nullptr) return 0;
  size_t n = 1;
  for (const PhysNodePtr& child : node->children) n += CountPlanNodes(child);
  return n;
}

/// True when a cached entry is safe to reuse for this parameterization:
/// same parameter types in order (Value::Compare is cross-numeric, so the
/// type check is not redundant), the same explicit positions (the
/// signature only hashes them), and — for templates whose plan no longer
/// mentions every literal — exactly the same literal values.
bool EntryMatches(const PlanCacheEntry& entry, const ParameterizedQuery& pq) {
  if (entry.param_types.size() != pq.params.size()) return false;
  for (size_t i = 0; i < pq.params.size(); ++i) {
    if (entry.param_types[i] != pq.params[i].type()) return false;
  }
  if (entry.positions != pq.query.positions) return false;
  if (!entry.bindable && entry.bound_values != pq.params) return false;
  return true;
}

/// Where a suspension lands on disk: the caller-pinned path when one was
/// given, otherwise a unique name under SEQ_CHECKPOINT_DIR. Every
/// suspension in a multi-suspend chain gets a fresh auto name, so earlier
/// checkpoints stay replayable.
std::string CheckpointPathFor(const CheckpointConfig& ck, uint64_t query_id) {
  if (!ck.path.empty()) return ck.path;
  static std::atomic<uint64_t> next_seq{1};
  const uint64_t seq = next_seq.fetch_add(1, std::memory_order_relaxed);
  return DefaultCheckpointDir() + "/seq-q" + std::to_string(query_id) + "-" +
         std::to_string(seq) + ".ckpt";
}

ResumeState ResumeStateFromImage(CheckpointImage&& image) {
  ResumeState rs;
  rs.probed = image.probed;
  rs.watermark = image.watermark;
  rs.next_index = image.next_index;
  rs.chunks_done = image.chunks_done;
  rs.chunk_len = image.chunk_len;
  rs.op_state = std::move(image.op_state);
  rs.rows = std::move(image.rows);
  rs.stats = image.stats;
  return rs;
}

}  // namespace

std::string Engine::PlanKeyPrefix(const OptimizerOptions& opt_options) const {
  return "e" + std::to_string(plan_cache_id_.value()) + "|v" +
         std::to_string(catalog_.version()) + "|o" +
         FingerprintOptimizerOptions(opt_options) + "|";
}

void Engine::InsertPlanEntry(const std::string& key, ParameterizedQuery pq,
                             const PhysicalPlan& plan,
                             const Optimizer& optimizer,
                             const Query& inlined) const {
  auto entry = std::make_shared<PlanCacheEntry>();
  entry->plan = plan;
  entry->param_types.reserve(pq.params.size());
  for (const Value& v : pq.params) entry->param_types.push_back(v.type());
  entry->bindable = PlanCoversAllParams(plan, pq.params.size());
  entry->recost_checks =
      CaptureRecostChecks(optimizer.optimized_graph(), catalog_,
                          optimizer.options().cost_params);
  entry->positions = pq.query.positions;
  entry->bound_values = std::move(pq.params);
  entry->engine_id = plan_cache_id_.value();
  entry->display = NormalizeQueryText(QueryDisplayText(inlined));
  entry->bytes = key.size() + entry->display.size() +
                 CountPlanNodes(plan.root) * (sizeof(PhysNode) + 64) +
                 entry->bound_values.size() * sizeof(Value) +
                 entry->positions.size() * sizeof(Position);
  PlanCache::Global().Insert(key, std::move(entry));
}

Result<Engine::PlannedQuery> Engine::PlanQuery(const Query& query,
                                               CacheUse use,
                                               Optimizer& optimizer) const {
  PlannedQuery out;
  out.inlined = query;
  SEQ_ASSIGN_OR_RETURN(out.inlined.graph, InlineViews(query.graph, views_));
  PlanCache& cache = PlanCache::Global();
  const bool cached = use != CacheUse::kBypass &&
                      out.inlined.graph != nullptr && cache.enabled();
  ParameterizedQuery pq;
  std::string key;
  if (cached) {
    pq = ParameterizeQuery(out.inlined);
    key = PlanKeyPrefix(optimizer.options()) + pq.signature;
  }
  if (cached && use == CacheUse::kRead) {
    PlanCacheEntryPtr entry = cache.Lookup(key);
    if (entry != nullptr && EntryMatches(*entry, pq)) {
      if (entry->recost_checks.empty() ||
          RecostWithinThreshold(entry->recost_checks, pq.params,
                                optimizer.options().cost_params,
                                kPlanCacheRecostThreshold)) {
        out.from_cache = true;
        // A non-bindable entry matched the exact literal values: reuse it
        // verbatim.
        out.plan = entry->bindable ? BindPlanParams(entry->plan, pq.params)
                                   : entry->plan;
        return out;
      }
      // The bound literals moved a predicate's estimated selectivity past
      // the threshold: the cached plan may be badly shaped for them. Fall
      // through to a full optimize, which refreshes the template.
      cache.CountRecostFallback();
    }
  }

  // A cached miss optimizes the TAGGED clone, so the plan's literals carry
  // their parameter indices and the result can serve as a bindable
  // template.
  SEQ_ASSIGN_OR_RETURN(out.plan,
                       optimizer.Optimize(cached ? pq.query : out.inlined));
  if (cached) {
    InsertPlanEntry(key, std::move(pq), out.plan, optimizer, out.inlined);
  }
  return out;
}

Result<PhysicalPlan> Engine::Plan(const Query& query) const {
  Optimizer optimizer(catalog_, options_);
  SEQ_ASSIGN_OR_RETURN(PlannedQuery planned,
                       PlanQuery(query, CacheUse::kBypass, optimizer));
  return std::move(planned.plan);
}

Status Engine::DefineView(std::string name, LogicalOpPtr graph) {
  if (graph == nullptr) {
    return Status::InvalidArgument("null view definition");
  }
  if (catalog_.Contains(name)) {
    return Status::InvalidArgument("view '" + name +
                                   "' shadows a catalog sequence");
  }
  if (views_.count(name) > 0) {
    return Status::InvalidArgument("view '" + name + "' already defined");
  }
  // Inline existing views now so later definitions cannot create cycles.
  SEQ_ASSIGN_OR_RETURN(LogicalOpPtr inlined, InlineViews(graph, views_));
  views_.emplace(std::move(name), std::move(inlined));
  return Status::OK();
}

Status Engine::Materialize(const std::string& name,
                           const LogicalOpPtr& graph,
                           std::optional<Span> range, int records_per_page,
                           AccessCosts costs) {
  if (catalog_.Contains(name) || views_.count(name) > 0) {
    return Status::InvalidArgument("'" + name + "' already exists");
  }
  SEQ_ASSIGN_OR_RETURN(QueryResult result, Run({graph, range}));
  SEQ_ASSIGN_OR_RETURN(
      BaseSequencePtr store,
      BaseSequenceStore::FromRecords(result.schema,
                                     std::move(result.records),
                                     records_per_page, costs));
  // Through the wrapper: the new base sequence retires this engine's
  // cached plans (the catalog version bump already changed every key).
  return RegisterBase(name, std::move(store));
}

Result<Engine::PreparedQuery> Engine::Prepare(const Query& query) const {
  Optimizer optimizer(catalog_, options_);
  SEQ_ASSIGN_OR_RETURN(PlannedQuery planned,
                       PlanQuery(query, CacheUse::kRead, optimizer));
  // Registry identity is captured once here; every Run of the prepared
  // query registers under the same text and digest without re-unparsing.
  std::string text;
  std::string digest;
  if (QueryRegistry::Global().enabled()) {
    text = QueryDisplayText(query);
    digest = NormalizeQueryText(text);
  }
  PreparedQuery prepared(&catalog_, options_.cost_params,
                         std::move(planned.plan), std::move(text),
                         std::move(digest));
  prepared.plan_cached_ = planned.from_cache;
  return prepared;
}

Result<QueryResult> Engine::Run(const Query& query,
                                const RunOptions& opts) const {
  if (opts.profile && opts.sink) {
    return Status::InvalidArgument(
        "RunOptions::profile cannot be combined with RunOptions::sink: the "
        "batch sink hands out reusable slot buffers that the profiling shims "
        "do not wrap");
  }

  // The always-on telemetry envelope: register the query (live in
  // `.queries` from here), thread its progress counters through the
  // executor, and on every exit path complete the ticket into the recent
  // ring, the run metrics and the slow-query log.
  QueryRegistry& registry = QueryRegistry::Global();
  QueryRegistry::Ticket ticket;
  if (registry.enabled()) {
    std::string text = QueryDisplayText(query);
    std::string digest = NormalizeQueryText(text);
    ticket = registry.Start(std::move(text), std::move(digest),
                            opts.exec.session_id);
  }
  RunOptions run_opts = opts;
  run_opts.exec.telemetry = ticket.telemetry();
  return RunRecorded(ticket,
                     [&] { return RunPlanned(query, run_opts, ticket); });
}

Result<QueryResult> Engine::RunPlanned(const Query& query,
                                       const RunOptions& opts,
                                       QueryRegistry::Ticket& ticket) const {
  const ExecOptions& exec = opts.exec;
  if (exec.checkpoint.enabled && opts.sink) {
    return Status::InvalidArgument(
        "checkpointed runs cannot stream to a sink: rows already handed to "
        "the sink could not be replayed from the checkpoint on resume");
  }

  OptimizerOptions opt_options = options_;
  if (opts.profile) opt_options.collect_trace = true;
  Optimizer optimizer(catalog_, opt_options);
  const CacheUse use = !exec.use_plan_cache ? CacheUse::kBypass
                       : opts.profile       ? CacheUse::kRefresh
                                            : CacheUse::kRead;
  SEQ_ASSIGN_OR_RETURN(PlannedQuery planned, PlanQuery(query, use, optimizer));
  const PhysicalPlan& plan = planned.plan;
  if (planned.from_cache) ticket.set_plan_cached();
  ticket.set_state(QueryState::kExecuting);
  Executor executor(catalog_, opt_options.cost_params, exec);

  QueryProfile prof;
  // The first attempt charges into local stats so a degraded retry does not
  // leak the aborted attempt's counters into the caller's totals. A sink
  // run charges the caller directly: rows already handed to the sink
  // cannot be taken back, so it is never retried — a cache budget trip
  // surfaces as its ResourceExhausted status.
  AccessStats attempt_stats;
  AccessStats* attempt =
      opts.stats != nullptr && !opts.sink ? &attempt_stats : opts.stats;
  // Checkpointed execution (profiled runs execute normally — a profile of
  // a partial run would be misleading, and the trace requirement already
  // forces the re-optimize path).
  const bool checkpointed = exec.checkpoint.enabled && !opts.profile;
  Result<QueryResult> result =
      checkpointed
          ? RunCheckpointed(planned.inlined, plan, opt_options, exec, attempt,
                            ticket)
          : executor.Execute(plan, attempt, opts.sink,
                             opts.profile ? &prof : nullptr);
  // Execute resets the profile, so the trace is attached after.
  MorselPlan morsels;
  if (opts.profile) {
    prof.optimizer = optimizer.trace();
    morsels = executor.PlanMorsels(plan);
  }
  std::string degradation_note;
  if (!result.ok() && !opts.sink && IsCacheBudgetExceeded(result.status())) {
    // Graceful degradation: the query is fine, only its cached plan does not
    // fit max_cache_bytes. Run the (slower, memory-flat) cache-free plan
    // instead of failing.
    MetricsRegistry::Global().Add("engine.cache_degradations");
    ticket.set_state(QueryState::kDegraded);
    degradation_note =
        "degraded: " + result.status().message() +
        "; re-planned with operator caches disabled";
    result = RunCacheFree(catalog_, planned.inlined, opt_options, exec,
                          opts.stats, opts.profile ? &prof : nullptr,
                          opts.profile ? &morsels : nullptr);
  } else if (result.ok() && attempt == &attempt_stats) {
    *opts.stats += attempt_stats;
  }
  SEQ_RETURN_IF_ERROR(result.status());
  QueryResult out = std::move(result).value();

  if (opts.profile) {
    // The driving decision is part of the query's explanation: surface it
    // in the trace (stage "execution") always, and as a profile note when
    // the run actually went parallel (serial is the unremarkable default).
    prof.optimizer.Add("execution", morsels.reason, -1.0, morsels.parallel);
    if (!degradation_note.empty()) {
      prof.notes.push_back(std::move(degradation_note));
    }
    if (morsels.parallel) {
      prof.notes.push_back("execution: " + morsels.reason);
    }
    if (use == CacheUse::kRefresh && PlanCache::Global().enabled()) {
      prof.notes.push_back(
          "plan cache: template refreshed (profiled runs always re-optimize "
          "to produce the trace)");
    }
    MetricsRegistry& metrics = MetricsRegistry::Global();
    metrics.Add("engine.profiled_runs");
    metrics.Observe("engine.optimize_us",
                    static_cast<double>(prof.optimizer.optimize_us));
    metrics.Observe("engine.execute_us",
                    static_cast<double>(prof.total_wall_ns) / 1000.0);
    out.profile = std::move(prof);
  }
  return out;
}

Result<QueryResult> Engine::RunCheckpointed(
    const Query& inlined, const PhysicalPlan& plan,
    const OptimizerOptions& opt_options, const ExecOptions& exec,
    AccessStats* stats, QueryRegistry::Ticket& ticket) const {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  ExecOptions run_exec = exec;
  SuspendCapture capture;
  run_exec.checkpoint.capture = &capture;
  // The `.suspend <id>` flag lives on the registry entry; adopt it when the
  // caller did not supply a request flag of their own.
  if (run_exec.checkpoint.request == nullptr &&
      ticket.telemetry() != nullptr) {
    run_exec.checkpoint.request = &ticket.telemetry()->suspend_requested;
  }
  // Register as preemptible for the duration of the run: under
  // admission-queue pressure the scheduler flags the lowest-priority
  // checkpointable runner, and the executor notices at the next chunk
  // boundary.
  QueryScheduler::Preemption preemption;
  if (run_exec.checkpoint.preempt == nullptr) {
    preemption =
        QueryScheduler::Global().RegisterPreemptible(run_exec.priority);
    run_exec.checkpoint.preempt = preemption.flag();
  }

  ResumeState park_resume;  // reloaded state across an in-place park
  for (;;) {
    Executor executor(catalog_, opt_options.cost_params, run_exec);
    Result<QueryResult> result = executor.ExecuteCheckpointed(plan, stats);
    if (!result.ok() || !capture.suspended) return result;

    // Suspended at a chunk boundary: persist the complete prefix.
    const std::string path =
        CheckpointPathFor(run_exec.checkpoint, ticket.id());
    CheckpointImage image;
    image.catalog_version = catalog_.version();
    image.options_fingerprint = FingerprintOptimizerOptions(options_);
    image.plan_signature = ParameterizeQuery(inlined).signature;
    Result<std::string> text = UnparseQuery(*inlined.graph);
    if (!text.ok()) return text.status();
    image.query_text = std::move(text).value();
    image.probed = capture.probed;
    image.has_range = inlined.range.has_value();
    if (image.has_range) {
      image.span_start = inlined.range->start;
      image.span_end = inlined.range->end;
    }
    image.positions = inlined.positions;
    image.position_sequence = inlined.position_sequence;
    image.watermark = capture.watermark;
    image.next_index = capture.next_index;
    image.chunks_done = capture.chunks_done;
    image.chunk_len = capture.chunk_len;
    image.stats = capture.stats;
    image.rows = std::move(capture.rows);
    image.op_state = std::move(capture.op_state);
    Status written = SaveCheckpoint(
        image, path, CheckpointWriteFaultHook(run_exec.fault_injector));
    if (!written.ok()) {
      metrics.Add("engine.checkpoints.write_failures");
      return written;
    }
    metrics.Add("engine.checkpoints.written");

    if (capture.reason != SuspendReason::kScheduler) {
      return MakeQuerySuspended(path, capture.reason);
    }

    // Scheduler preemption: park in place. Chunk admissions are per chunk,
    // so no slot is held here — wait in the admission queue at our own
    // priority and continue only once this query would be admitted again.
    metrics.Add("engine.checkpoints.parked");
    ticket.set_state(QueryState::kSuspended);
    QueryScheduler::AdmitRequest readmit;
    readmit.priority = run_exec.priority;
    readmit.timeout_ms = run_exec.admission_timeout_ms;
    readmit.cancel = run_exec.guards.cancel;
    Result<QueryScheduler::Admission> slot =
        QueryScheduler::Global().Admit(readmit);
    if (!slot.ok()) {
      // Could not re-admit (timeout / cancelled): leave the query parked —
      // the checkpoint stays on disk for a later Resume.
      return MakeQuerySuspended(path, capture.reason);
    }
    slot.value().Release();  // only waited for the turn; chunks re-admit
    preemption.Rearm();

    // Honest roundtrip: continue from the file just written, exactly as a
    // fresh process would.
    Result<CheckpointImage> loaded = LoadCheckpoint(
        path, CheckpointReadFaultHook(run_exec.fault_injector));
    if (!loaded.ok()) {
      metrics.Add("engine.checkpoints.resume_failures");
      return loaded.status();
    }
    metrics.Add("engine.checkpoints.resumed");
    park_resume = ResumeStateFromImage(std::move(loaded).value());
    run_exec.checkpoint.resume = &park_resume;
    ticket.set_state(QueryState::kExecuting);
  }
}

Result<QueryResult> Engine::Resume(const std::string& checkpoint_path,
                                   const RunOptions& opts) const {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  if (opts.profile || opts.sink) {
    return Status::InvalidArgument(
        "Resume cannot profile or stream to a sink: the suspended prefix is "
        "replayed from the checkpoint, not re-executed");
  }
  Result<CheckpointImage> loaded = LoadCheckpoint(
      checkpoint_path, CheckpointReadFaultHook(opts.exec.fault_injector));
  if (!loaded.ok()) {
    metrics.Add("engine.checkpoints.resume_failures");
    return loaded.status();
  }
  CheckpointImage image = std::move(loaded).value();

  // The validity tuple, checked with precise reasons: a stale checkpoint
  // must never resume against an engine it no longer matches.
  if (image.catalog_version != catalog_.version()) {
    metrics.Add("engine.checkpoints.resume_failures");
    return Status::FailedPrecondition(
        "checkpoint '" + checkpoint_path + "' is stale: catalog version " +
        std::to_string(image.catalog_version) + " at suspend, " +
        std::to_string(catalog_.version()) + " now");
  }
  const std::string fingerprint = FingerprintOptimizerOptions(options_);
  if (image.options_fingerprint != fingerprint) {
    metrics.Add("engine.checkpoints.resume_failures");
    return Status::FailedPrecondition(
        "checkpoint '" + checkpoint_path +
        "' is stale: optimizer-options fingerprint " +
        image.options_fingerprint + " at suspend, " + fingerprint + " now");
  }
  Result<ParsedProgram> program = ParseSequin(image.query_text);
  if (!program.ok() || program.value().main == nullptr) {
    metrics.Add("engine.checkpoints.resume_failures");
    return Status::DataLoss("checkpoint '" + checkpoint_path +
                            "' carries an unparseable query: " +
                            (program.ok() ? "no main statement"
                                          : program.status().message()));
  }

  Query query;
  query.graph = program.value().main;
  if (image.has_range) {
    query.range = Span::Of(image.span_start, image.span_end);
  }
  query.positions = image.positions;
  query.position_sequence = image.position_sequence;

  // The stored text is already view-inlined, so re-planning here cannot
  // pick up redefined views; the plan signature confirms the shape.
  Query inlined = query;
  Result<LogicalOpPtr> graph = InlineViews(query.graph, views_);
  if (!graph.ok()) return graph.status();
  inlined.graph = std::move(graph).value();
  if (ParameterizeQuery(inlined).signature != image.plan_signature) {
    metrics.Add("engine.checkpoints.resume_failures");
    return Status::FailedPrecondition(
        "checkpoint '" + checkpoint_path +
        "' is stale: plan signature does not match the re-planned query "
        "(the query graph or its driving range changed)");
  }
  metrics.Add("engine.checkpoints.resumed");

  ResumeState resume = ResumeStateFromImage(std::move(image));
  RunOptions run_opts = opts;
  run_opts.exec.checkpoint.enabled = true;
  run_opts.exec.checkpoint.resume = &resume;
  return Run(query, run_opts);
}

bool Engine::RequestSuspend(uint64_t query_id) {
  return QueryRegistry::Global().RequestSuspend(query_id);
}

Result<std::string> Engine::ExplainAnalyze(const Query& query,
                                           const RunOptions& opts) const {
  if (opts.sink) {
    return Status::InvalidArgument(
        "ExplainAnalyze cannot stream to a sink: it must profile the run");
  }
  RunOptions profiled = opts;
  profiled.profile = true;
  SEQ_ASSIGN_OR_RETURN(QueryResult run, Run(query, profiled));
  return run.profile->ToString();
}

Result<QueryResult> Engine::PreparedQuery::Run(const RunOptions& opts) const {
  if (opts.profile && opts.sink) {
    return Status::InvalidArgument(
        "RunOptions::profile cannot be combined with RunOptions::sink");
  }
  // Same telemetry envelope as Engine::Run, under the identity captured at
  // Prepare. The plan is already optimized, so the query registers
  // directly in the executing state.
  QueryRegistry& registry = QueryRegistry::Global();
  QueryRegistry::Ticket ticket;
  if (registry.enabled() && !text_.empty()) {
    ticket = registry.Start(text_, digest_, opts.exec.session_id);
    ticket.set_state(QueryState::kExecuting);
    if (plan_cached_) ticket.set_plan_cached();
  }
  ExecOptions run_exec = opts.exec;
  run_exec.telemetry = ticket.telemetry();
  return RunRecorded(ticket, [&]() -> Result<QueryResult> {
    Executor executor(*catalog_, params_, run_exec);
    QueryProfile prof;
    SEQ_ASSIGN_OR_RETURN(
        QueryResult run,
        executor.Execute(plan_, opts.stats, opts.sink,
                         opts.profile ? &prof : nullptr));
    if (opts.profile) {
      const MorselPlan morsels = executor.PlanMorsels(plan_);
      if (morsels.parallel) {
        prof.notes.push_back("execution: " + morsels.reason);
      }
      run.profile = std::move(prof);
    }
    return run;
  });
}

Result<std::string> Engine::Explain(const Query& query) const {
  Optimizer optimizer(catalog_, options_);
  SEQ_ASSIGN_OR_RETURN(PlannedQuery planned,
                       PlanQuery(query, CacheUse::kBypass, optimizer));
  std::ostringstream oss;
  oss << "=== logical (annotated, rewritten) ===\n";
  oss << optimizer.optimized_graph()->ToTreeString();
  if (!optimizer.rewrites_applied().empty()) {
    oss << "--- rewrites: ";
    for (size_t i = 0; i < optimizer.rewrites_applied().size(); ++i) {
      if (i > 0) oss << ", ";
      oss << optimizer.rewrites_applied()[i];
    }
    oss << "\n";
  }
  oss << "=== physical ===\n" << planned.plan.Explain();
  return oss.str();
}

}  // namespace seq
