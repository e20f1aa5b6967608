#include "optimizer/optimizer.h"

#include <algorithm>
#include <chrono>
#include <span>

#include "optimizer/annotate.h"
#include "optimizer/rewriter.h"

namespace seq {
namespace {

/// Hull of the base-sequence spans under `op`; used to bound queries whose
/// graphs have unbounded spans (value offsets, constants).
Span BaseSpanHull(const LogicalOp& op) {
  if (op.arity() == 0) {
    if (op.kind() == OpKind::kBaseRef) return op.meta().span;
    return Span::Empty();  // constants do not bound anything
  }
  Span hull = Span::Empty();
  for (const LogicalOpPtr& in : op.inputs()) {
    hull = hull.Hull(BaseSpanHull(*in));
  }
  // An ancestor offset shifts where those base positions surface, but for
  // bounding purposes the hull of leaf spans is a serviceable default.
  return hull;
}

}  // namespace

Result<PhysicalPlan> Optimizer::Optimize(const Query& query) {
  if (query.graph == nullptr) {
    return Status::InvalidArgument("query has no graph");
  }
  planner_stats_ = PlannerStats{};
  rewrites_applied_.clear();
  trace_ = OptTrace{};
  OptTrace* trace = options_.collect_trace ? &trace_ : nullptr;
  auto opt_start = std::chrono::steady_clock::now();
  auto finish_trace = [&] {
    if (trace == nullptr) return;
    trace_.plans_considered = planner_stats_.plans_considered;
    trace_.plans_retained_max = planner_stats_.plans_retained_max;
    trace_.join_blocks = planner_stats_.join_blocks;
    trace_.largest_block = planner_stats_.largest_block;
    trace_.nonunit_blocks = planner_stats_.nonunit_blocks;
    trace_.optimize_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - opt_start)
                             .count();
  };

  // Step 1 — specification: work on a private clone.
  LogicalOpPtr graph = query.graph->Clone();

  // Step 2.a — bottom-up annotation (type check, span/density propagation).
  Annotator annotator(catalog_, options_.cost_params);
  SEQ_RETURN_IF_ERROR(annotator.AnnotateBottomUp(graph.get()));

  // Step 3 — equivalence transformations, then re-annotate since spans,
  // densities and schemas of intermediate nodes moved.
  if (options_.enable_rewrites) {
    Rewriter rewriter;
    SEQ_RETURN_IF_ERROR(rewriter.Rewrite(&graph));
    rewrites_applied_ = rewriter.applied();
    if (trace != nullptr) {
      for (const std::string& rule : rewriter.applied()) {
        trace->Add("rewrite", rule);
      }
      for (const std::string& rejection : rewriter.rejected()) {
        trace->Add("rewrite-rejected", rejection);
      }
    }
    SEQ_RETURN_IF_ERROR(annotator.AnnotateBottomUp(graph.get()));
  }

  // Resolve the requested range (the Fig. 6 position-sequence template).
  Query resolved_query;
  const Query* active = &query;
  if (!query.position_sequence.empty()) {
    // A named Position Sequence: its non-null record positions are the
    // positions asked for.
    SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                         catalog_.Lookup(query.position_sequence));
    if (entry->kind != CatalogEntry::Kind::kBase) {
      return Status::InvalidArgument("position sequence '" +
                                     query.position_sequence +
                                     "' must be a base sequence");
    }
    std::span<const Position> positions = entry->store->positions();
    if (query.range.has_value()) {
      auto first = std::lower_bound(positions.begin(), positions.end(),
                                    query.range->start);
      auto last = std::upper_bound(first, positions.end(), query.range->end);
      positions = {first, last};
    }
    resolved_query = query;
    resolved_query.positions.assign(positions.begin(), positions.end());
    if (resolved_query.positions.empty()) {
      PhysicalPlan empty;
      empty.schema = graph->meta().schema;
      empty.output_span = Span::Empty();
      optimized_graph_ = graph;
      // A plan over an empty position set: keep a valid root for explain.
      Planner empty_planner(catalog_, options_.cost_params,
                            &planner_stats_, trace);
      annotator.PushRequiredSpans(graph.get(), Span::Empty(),
                                  options_.enable_span_pushdown);
      SEQ_ASSIGN_OR_RETURN(PlannedSeq planned, empty_planner.Plan(*graph));
      empty.root = planned.stream_plan;
      empty.root_mode = AccessMode::kStream;
      finish_trace();
      return empty;
    }
    resolved_query.range.reset();
    active = &resolved_query;
  }
  const Query& q = *active;

  Span requested;
  if (!q.positions.empty()) {
    for (size_t i = 1; i < q.positions.size(); ++i) {
      if (q.positions[i] <= q.positions[i - 1]) {
        return Status::InvalidArgument(
            "query positions must be strictly ascending");
      }
    }
    requested = Span::Of(q.positions.front(), q.positions.back());
  } else if (q.range.has_value()) {
    requested = *q.range;
  } else {
    requested = graph->meta().span;
  }
  if (requested.IsUnbounded()) {
    Span hull = BaseSpanHull(*graph);
    if (hull.IsEmpty() || hull.IsUnbounded()) {
      return Status::InvalidArgument(
          "query range is unbounded (no base sequence bounds it); specify "
          "an explicit range");
    }
    requested = requested.Intersect(hull);
  }

  // Step 2.b — top-down span propagation (or plain vertical bounding when
  // the Fig. 3 optimization is disabled).
  annotator.PushRequiredSpans(graph.get(), requested,
                              options_.enable_span_pushdown);

  // Steps 4 & 5 — block identification and block-wise plan generation.
  Planner planner(catalog_, options_.cost_params, &planner_stats_, trace);
  SEQ_ASSIGN_OR_RETURN(PlannedSeq planned, planner.Plan(*graph));

  optimized_graph_ = graph;

  // Step 6 — plan selection at the Start operator.
  PhysicalPlan plan;
  plan.schema = planned.schema;
  plan.output_span = requested;
  plan.positions = q.positions;

  double stream_cost = planned.stream_cost;
  double probed_cost;
  if (!q.positions.empty()) {
    // Point queries probe exactly |positions| positions.
    probed_cost = planned.ToAccessEst().PerProbe() *
                  static_cast<double>(q.positions.size());
  } else {
    probed_cost = planned.probed_cost;
  }

  AccessMode mode;
  if (options_.force_root_mode.has_value()) {
    mode = *options_.force_root_mode;
    if (trace != nullptr) {
      trace->Add("choice",
                 std::string("root mode forced to ") + AccessModeName(mode));
    }
  } else {
    mode = (stream_cost <= probed_cost) ? AccessMode::kStream
                                        : AccessMode::kProbed;
  }
  if (trace != nullptr) {
    trace->Add("choice", "root: stream driving", stream_cost,
               mode == AccessMode::kStream);
    trace->Add("choice", "root: probed driving", probed_cost,
               mode == AccessMode::kProbed);
  }
  if (mode == AccessMode::kStream) {
    plan.root = planned.stream_plan;
    plan.root_mode = AccessMode::kStream;
    plan.est_cost = stream_cost;
  } else {
    plan.root = planned.probed_plan;
    plan.root_mode = AccessMode::kProbed;
    plan.est_cost = probed_cost;
  }
  finish_trace();
  return plan;
}

}  // namespace seq
