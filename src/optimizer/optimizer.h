#ifndef SEQ_OPTIMIZER_OPTIMIZER_H_
#define SEQ_OPTIMIZER_OPTIMIZER_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/cost_params.h"
#include "common/result.h"
#include "logical/logical_op.h"
#include "optimizer/physical_plan.h"
#include "optimizer/planner.h"

namespace seq {

/// A sequence query per the Fig. 6 template: a sequence query graph plus
/// how it is asked — all positions in a range, or a list of specific
/// positions (the Position Sequence of the template). An aggregate whose
/// members all have defaults, so `{graph, range}` and
/// `{.graph = g, .positions = {3, 6}}` both spell a query.
struct Query {
  LogicalOpPtr graph = nullptr;

  /// Range query: all positions in `range` (if unset, the graph's own span
  /// bounded by its base sequences).
  std::optional<Span> range = std::nullopt;

  /// Point query: exactly these positions (overrides `range` when
  /// non-empty). Must be sorted ascending.
  std::vector<Position> positions = {};

  /// Fig. 6's Position Sequence proper: the name of a base sequence whose
  /// record positions are the positions queried (intersected with `range`
  /// when set). Overrides `positions`.
  std::string position_sequence = {};
};

/// Switches for ablation benchmarks; everything on by default.
struct OptimizerOptions {
  CostParams cost_params;
  bool enable_rewrites = true;       ///< §3.1 transformations (Step 3)
  bool enable_span_pushdown = true;  ///< §3.2 top-down span pass (Step 2.b)
  /// Force the root access mode instead of costing both (for experiments).
  std::optional<AccessMode> force_root_mode;
  /// Record an OptTrace of rewrites, plan candidates and choices (see
  /// Optimizer::trace()). Off by default; Optimize pays nothing when off.
  bool collect_trace = false;
};

/// The sequence query optimizer (paper §4): bottom-up, cost-based plan
/// generation over the annotated, rewritten query graph.
class Optimizer {
 public:
  explicit Optimizer(const Catalog& catalog, OptimizerOptions options = {})
      : catalog_(catalog), options_(std::move(options)) {}

  /// Runs Steps 1–6 and returns the selected evaluation plan. The input
  /// graph is cloned; the caller's graph is never modified.
  Result<PhysicalPlan> Optimize(const Query& query);

  const OptimizerOptions& options() const { return options_; }

  /// Enumeration counters of the last Optimize call (Property 4.1).
  const PlannerStats& planner_stats() const { return planner_stats_; }

  /// Rewrite-rule applications of the last Optimize call.
  const std::vector<std::string>& rewrites_applied() const {
    return rewrites_applied_;
  }

  /// The annotated, rewritten logical graph of the last Optimize call
  /// (for explain / tests).
  const LogicalOpPtr& optimized_graph() const { return optimized_graph_; }

  /// Decision trace of the last Optimize call. Only populated when
  /// OptimizerOptions::collect_trace was set.
  const OptTrace& trace() const { return trace_; }

 private:
  const Catalog& catalog_;
  OptimizerOptions options_;
  PlannerStats planner_stats_;
  std::vector<std::string> rewrites_applied_;
  LogicalOpPtr optimized_graph_;
  OptTrace trace_;
};

}  // namespace seq

#endif  // SEQ_OPTIMIZER_OPTIMIZER_H_
