#ifndef SEQ_EXEC_EXEC_CONTEXT_H_
#define SEQ_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <utility>

#include "catalog/catalog.h"
#include "catalog/cost_params.h"
#include "common/status.h"
#include "exec/fault_injector.h"
#include "storage/access_stats.h"
#include "types/span.h"

namespace seq {

/// Per-query resource budgets, checked cooperatively at batch boundaries
/// (every driver loop iteration and every leaf-scan batch refill). 0 means
/// unlimited. Exceeding a budget yields a clean ResourceExhausted /
/// DeadlineExceeded / Cancelled status — never a crash, never a silently
/// truncated answer.
struct QueryGuards {
  /// Output rows the query may produce at the root.
  int64_t max_rows = 0;
  /// Page accesses (streamed pages + probe page fetches) the whole plan
  /// may charge.
  int64_t max_pages = 0;
  /// Wall-clock budget for execution, measured from plan Open.
  int64_t max_wall_ms = 0;
  /// Memory budget (approximate bytes) shared by all operator caches
  /// (Cache-Strategy-A windows, Cache-Strategy-B offset caches). Hitting
  /// it does not fail the query: the engine degrades to the cache-free
  /// naive plan (see docs/robustness.md).
  int64_t max_cache_bytes = 0;
  /// Cooperative cancellation: the driver sets the flag (from any thread);
  /// execution notices at the next batch boundary and returns Cancelled.
  const std::atomic<bool>* cancel = nullptr;

  bool any_armed() const {
    return max_rows > 0 || max_pages > 0 || max_wall_ms > 0 ||
           cancel != nullptr;
  }

  /// The page and row budget checks, in that order, against whole-query
  /// totals: a serial run passes its own counts, a morsel group or a
  /// checkpointed run the totals it keeps across units.
  Status CheckBudgets(int64_t pages, int64_t rows) const {
    if (max_pages > 0 && pages > max_pages) {
      return Status::ResourceExhausted("query exceeded page-access budget of " +
                                       std::to_string(max_pages) + " pages");
    }
    if (max_rows > 0 && rows > max_rows) {
      return Status::ResourceExhausted("query exceeded row budget of " +
                                       std::to_string(max_rows) + " rows");
    }
    return Status::OK();
  }
};

/// Message prefix of the degradation signal raised when an operator cache
/// hits QueryGuards::max_cache_bytes. Engine::Run and StreamSession::Poll
/// recognize it (IsCacheBudgetExceeded) and re-plan with caching disabled
/// instead of failing the query.
inline constexpr const char* kCacheBudgetExceededPrefix =
    "operator cache memory budget exceeded";

/// Shared state threaded through a plan's operators during evaluation.
/// `stats` receives every simulated access/cache/predicate charge; the cost
/// constants mirror the ones the optimizer estimated with so measured
/// simulated cost is comparable to plan estimates.
///
/// Per-operation price table (all from CostParams; the optimizer's
/// estimate formulas charge the same constants for the same events):
///
///   operation                      counter           simulated cost
///   ---------------------------------------------------------------
///   join predicate application     predicate_evals   join_predicate_cost
///   select predicate application   predicate_evals   select_predicate_cost
///   operator-cache store           cache_stores      cache_store_cost
///   operator-cache access          cache_hits        cache_access_cost
///   output-record computation      —                 compute_cost
///   aggregate state step (Add)     agg_steps         agg_step_cost
///
/// Base-sequence page/probe charges are priced per store (AccessCosts) and
/// charged by the scan operators directly.
struct ExecContext {
  const Catalog* catalog = nullptr;
  AccessStats* stats = nullptr;
  CostParams params;

  /// Optional deterministic fault source (robustness testing). Unset in
  /// production runs; every polling site gates on the pointer first.
  FaultInjector* faults = nullptr;

  /// Per-query budgets; ArmGuardsAt() latches the wall-clock deadline.
  QueryGuards guards;

  // ---- Mid-stream error channel ----------------------------------------
  //
  // SeqOp::Next/NextBatch/Probe return optionals and row counts with no
  // error slot, so a mid-stream failure is reported out-of-band: the
  // failing operator Raise()s a status here and returns end-of-stream.
  // Every native batch loop checks failed() between child pulls, the
  // default adapters terminate on the end-of-stream they are handed, and
  // the executor's one driving loop stops at it; its caller surfaces the
  // raised status — materialized partial rows are discarded, never
  // returned (rows a sink already saw stay seen).

  bool failed() const { return !error_.ok(); }
  const Status& error() const { return error_; }

  /// Records a mid-stream error. The first raised error wins; later ones
  /// (usually cascading end-of-stream confusion) are dropped.
  void Raise(Status s) {
    if (error_.ok() && !s.ok()) error_ = std::move(s);
  }

  Status TakeError() {
    Status s = std::move(error_);
    error_ = Status::OK();
    return s;
  }

  // ---- Guard checks -----------------------------------------------------

  /// Latches the query's wall-clock deadline, computed once by the
  /// executor before anything runs: every morsel worker and checkpoint
  /// chunk arms the SAME instant, so the budget measures the query, not
  /// each unit's start skew.
  void ArmGuardsAt(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Cooperative budget check, called at batch boundaries. `rows_emitted`
  /// is the driver's root-row count (operators pass the running total they
  /// know, or 0 when only checking cancellation/time/pages).
  Status CheckGuards(int64_t rows_emitted) const {
    if (guards.cancel != nullptr &&
        guards.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled by driver");
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      return Status::DeadlineExceeded(
          "query exceeded wall-clock budget of " +
          std::to_string(guards.max_wall_ms) + "ms");
    }
    return guards.CheckBudgets(
        stats != nullptr ? stats->stream_pages + stats->probe_pages : 0,
        rows_emitted);
  }

  // ---- Fault polling ----------------------------------------------------

  bool FaultArmed(FaultSite site) const {
    return faults != nullptr && faults->armed(site);
  }

  /// Open-time fault poll: operators call this first thing in Open and
  /// propagate the status directly (Open has a real error channel).
  Status PollOpenFault(const char* op_label) {
    if (faults == nullptr || !faults->Poll(FaultSite::kOperatorOpen)) {
      return Status::OK();
    }
    return FaultStatus(FaultSite::kOperatorOpen, op_label, kNoFaultPos);
  }

  /// Mid-stream fault poll: counts a hit of `site`; when the injector
  /// fires, raises an Unavailable status carrying the operator label and
  /// position and returns true — the caller then returns end-of-stream.
  bool PollFaultRaise(FaultSite site, const char* op_label, Position pos) {
    if (faults == nullptr || !faults->Poll(site)) return false;
    Raise(FaultStatus(site, op_label, pos));
    return true;
  }

  // ---- Operator-cache memory accounting ---------------------------------

  /// Adjusts the shared cache footprint by `delta` bytes (negative on
  /// eviction). Returns false when a positive adjustment pushes the
  /// footprint over guards.max_cache_bytes; the caller then raises the
  /// degradation signal via RaiseCacheBudget. With no budget set this is
  /// pure accounting.
  bool AdjustCacheBytes(int64_t delta) {
    cache_bytes_used_ += delta;
    if (cache_bytes_used_ < 0) cache_bytes_used_ = 0;
    if (cache_bytes_used_ > cache_bytes_peak_) {
      cache_bytes_peak_ = cache_bytes_used_;
    }
    return guards.max_cache_bytes <= 0 ||
           cache_bytes_used_ <= guards.max_cache_bytes;
  }

  /// Raises the cache-budget degradation signal (recognized by
  /// IsCacheBudgetExceeded) naming the operator that hit the budget.
  void RaiseCacheBudget(const char* op_label) {
    std::ostringstream oss;
    oss << kCacheBudgetExceededPrefix << " (" << guards.max_cache_bytes
        << " bytes) [op=" << op_label << " used=" << cache_bytes_used_
        << "]";
    Raise(Status::ResourceExhausted(oss.str()));
  }

  int64_t cache_bytes_used() const { return cache_bytes_used_; }
  int64_t cache_bytes_peak() const { return cache_bytes_peak_; }

  void ChargePredicate(bool join) {
    if (stats == nullptr) return;
    ++stats->predicate_evals;
    stats->simulated_cost +=
        join ? params.join_predicate_cost : params.select_predicate_cost;
  }
  void ChargeCacheStore() {
    if (stats == nullptr) return;
    ++stats->cache_stores;
    stats->simulated_cost += params.cache_store_cost;
  }
  void ChargeCacheHit() {
    if (stats == nullptr) return;
    ++stats->cache_hits;
    stats->simulated_cost += params.cache_access_cost;
  }
  void ChargeCompute() {
    if (stats == nullptr) return;
    stats->simulated_cost += params.compute_cost;
  }
  void ChargeAggStep() {
    if (stats == nullptr) return;
    ++stats->agg_steps;
    stats->simulated_cost += params.agg_step_cost;
  }

  // Bulk variants used by the batch path: one call per batch with the
  // per-event constant multiplied out. Counter totals are identical to n
  // single charges; simulated_cost agrees up to floating-point
  // reassociation (see ExecOptions::use_batch).
  void ChargePredicates(bool join, int64_t n) {
    if (stats == nullptr || n <= 0) return;
    stats->predicate_evals += n;
    stats->simulated_cost +=
        static_cast<double>(n) *
        (join ? params.join_predicate_cost : params.select_predicate_cost);
  }
  void ChargeCacheStores(int64_t n) {
    if (stats == nullptr || n <= 0) return;
    stats->cache_stores += n;
    stats->simulated_cost += static_cast<double>(n) * params.cache_store_cost;
  }
  void ChargeCacheHits(int64_t n) {
    if (stats == nullptr || n <= 0) return;
    stats->cache_hits += n;
    stats->simulated_cost += static_cast<double>(n) * params.cache_access_cost;
  }
  void ChargeComputeN(int64_t n) {
    if (stats == nullptr || n <= 0) return;
    stats->simulated_cost += static_cast<double>(n) * params.compute_cost;
  }
  void ChargeAggSteps(int64_t n) {
    if (stats == nullptr || n <= 0) return;
    stats->agg_steps += n;
    stats->simulated_cost += static_cast<double>(n) * params.agg_step_cost;
  }

 private:
  static constexpr Position kNoFaultPos = kMinPosition;

  Status FaultStatus(FaultSite site, const char* op_label,
                     Position pos) const {
    std::ostringstream oss;
    oss << "injected fault at " << FaultSiteName(site) << " [op=" << op_label;
    if (pos != kNoFaultPos) oss << " pos=" << pos;
    oss << " hit=" << faults->hits(site) << "]";
    return Status::Unavailable(oss.str());
  }

  Status error_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  int64_t cache_bytes_used_ = 0;
  int64_t cache_bytes_peak_ = 0;
};

/// Leaf-scan cooperative stop check, polled at batch boundaries by the
/// scan operators: true when a mid-stream error has been raised or an
/// armed budget has tripped. A budget trip is Raise()d here so that the
/// leaf can simply return end-of-stream and the driver surfaces the
/// status.
inline bool LeafShouldStop(ExecContext* ctx) {
  if (ctx->failed()) return true;
  if (!ctx->guards.any_armed()) return false;
  Status g = ctx->CheckGuards(0);
  if (g.ok()) return false;
  ctx->Raise(std::move(g));
  return true;
}

/// True when `status` is the cache-budget degradation signal raised by a
/// Cache-A/Cache-B operator: the query is valid, only its cached plan does
/// not fit the memory budget, so callers holding the logical query (Engine,
/// StreamSession) re-plan with operator caches disabled instead of failing.
inline bool IsCacheBudgetExceeded(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().rfind(kCacheBudgetExceededPrefix, 0) == 0;
}

}  // namespace seq

#endif  // SEQ_EXEC_EXEC_CONTEXT_H_
