#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "exec/agg_ops.h"
#include "obs/metrics.h"
#include "exec/collapse_ops.h"
#include "exec/compose_ops.h"
#include "exec/offset_ops.h"
#include "exec/profiled_ops.h"
#include "exec/scan_ops.h"
#include "exec/unary_ops.h"

namespace seq {
namespace {

/// Resolves projection column names to indices in the child schema.
Result<std::vector<size_t>> ProjectIndices(const PhysNode& node,
                                           const Schema& child_schema) {
  std::vector<size_t> indices;
  indices.reserve(node.columns.size());
  for (const std::string& col : node.columns) {
    SEQ_ASSIGN_OR_RETURN(size_t idx, child_schema.FieldIndex(col));
    indices.push_back(idx);
  }
  return indices;
}

struct AggBinding {
  size_t col_index;
  TypeId col_type;
};

Result<AggBinding> BindAggColumn(const PhysNode& node) {
  SEQ_CHECK(!node.children.empty());
  const Schema& child_schema = *node.children[0]->out_schema;
  SEQ_ASSIGN_OR_RETURN(size_t idx, child_schema.FieldIndex(node.agg_column));
  return AggBinding{idx, child_schema.field(idx).type};
}

/// Fills a fresh profile node with the PhysNode's identity and estimates.
OperatorProfile* AddProfileNode(OperatorProfile* parent,
                                const PhysNode& node) {
  OperatorProfile* prof = parent->AddChild();
  prof->label = node.Label();
  prof->est_cost = node.est_cost;
  prof->est_rows = node.EstRows();
  prof->span_len =
      (node.required.IsEmpty() || node.required.IsUnbounded())
          ? 0
          : node.required.Length();
  return prof;
}

/// Publishes serial driving-loop progress into the live-query record.
/// Rows are reported as the caller's per-batch delta; pages are read as
/// deltas from the context's stats block (a serial run installs a local
/// block whenever telemetry is set; a checkpoint chunk has its own).
/// Construction marks one worker live, destruction marks it idle; all
/// accesses are relaxed atomics, so reporting never blocks and a null
/// telemetry costs a branch.
class TelemetryReporter {
 public:
  TelemetryReporter(QueryTelemetry* telem, const AccessStats* stats)
      : telem_(telem), stats_(stats) {
    if (telem_ != nullptr) telem_->workers.store(1, std::memory_order_relaxed);
  }
  ~TelemetryReporter() {
    if (telem_ != nullptr) telem_->workers.store(0, std::memory_order_relaxed);
  }
  TelemetryReporter(const TelemetryReporter&) = delete;
  TelemetryReporter& operator=(const TelemetryReporter&) = delete;

  void Report(int64_t rows_delta) {
    if (telem_ == nullptr) return;
    if (rows_delta > 0) {
      telem_->rows.fetch_add(rows_delta, std::memory_order_relaxed);
    }
    if (stats_ != nullptr) {
      const int64_t now = stats_->stream_pages + stats_->probe_pages;
      if (now != pages_seen_) {
        telem_->pages.fetch_add(now - pages_seen_, std::memory_order_relaxed);
        pages_seen_ = now;
      }
    }
  }

 private:
  QueryTelemetry* telem_;
  const AccessStats* stats_;
  int64_t pages_seen_ = 0;
};

}  // namespace

bool DefaultUseBatch() {
  static const bool kUseBatch = [] {
    const char* env = std::getenv("SEQ_USE_BATCH");
    return env == nullptr || std::string_view(env) != "0";
  }();
  return kUseBatch;
}

int DefaultParallelism() {
  static const int kParallelism =
      ValidatedEnvInt("SEQ_PARALLELISM", 1, /*fallback=*/1);
  return kParallelism;
}

Result<SeqOpPtr> Executor::Build(const PhysNodePtr& node,
                                 OperatorProfile* profile_parent) const {
  if (profile_parent == nullptr) return BuildInner(node, nullptr);
  SEQ_CHECK(node != nullptr);
  OperatorProfile* prof = AddProfileNode(profile_parent, *node);
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr inner, BuildInner(node, prof));
  return SeqOpPtr(new ProfiledOp(std::move(inner), prof));
}

Result<SeqOpPtr> Executor::BuildInner(const PhysNodePtr& node,
                                      OperatorProfile* prof) const {
  SEQ_CHECK(node != nullptr);
  // The lowering table: one builder per OpKind, in enum order. The access
  // mode no longer selects between operator classes — each unified
  // operator serves the mode(s) its plan shape supports — so the only
  // per-node dispatch left is this kind lookup plus the node's strategy
  // annotations inside each builder.
  using BuildFn = Result<SeqOpPtr> (Executor::*)(const PhysNode&,
                                                 OperatorProfile*) const;
  static constexpr BuildFn kLowering[] = {
      &Executor::BuildBaseRef,      // OpKind::kBaseRef
      &Executor::BuildConstantRef,  // OpKind::kConstantRef
      &Executor::BuildSelect,       // OpKind::kSelect
      &Executor::BuildProject,      // OpKind::kProject
      &Executor::BuildPosOffset,    // OpKind::kPositionalOffset
      &Executor::BuildValueOffset,  // OpKind::kValueOffset
      &Executor::BuildWindowAgg,    // OpKind::kWindowAgg
      &Executor::BuildCompose,      // OpKind::kCompose
      &Executor::BuildCollapse,     // OpKind::kCollapse
      &Executor::BuildExpand,       // OpKind::kExpand
  };
  const size_t kind = static_cast<size_t>(node->op);
  SEQ_CHECK_MSG(kind < std::size(kLowering),
                "unknown operator kind in plan: " << OpKindName(node->op));
  return (this->*kLowering[kind])(*node, prof);
}

Result<SeqOpPtr> Executor::BuildBaseRef(const PhysNode& node,
                                        OperatorProfile*) const {
  SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                       catalog_.Lookup(node.seq_name));
  return SeqOpPtr(new BaseScan(entry->store.get(), node.required,
                               node.resume_covered_from));
}

Result<SeqOpPtr> Executor::BuildConstantRef(const PhysNode& node,
                                            OperatorProfile*) const {
  SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                       catalog_.Lookup(node.seq_name));
  return SeqOpPtr(new ConstantOp(entry->constant, node.required));
}

Result<SeqOpPtr> Executor::BuildSelect(const PhysNode& node,
                                       OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  return SeqOpPtr(new SelectOp(std::move(child), node.predicate,
                               node.children[0]->out_schema));
}

Result<SeqOpPtr> Executor::BuildProject(const PhysNode& node,
                                        OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  SEQ_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                       ProjectIndices(node, *node.children[0]->out_schema));
  return SeqOpPtr(new ProjectOp(std::move(child), std::move(indices)));
}

Result<SeqOpPtr> Executor::BuildPosOffset(const PhysNode& node,
                                          OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  return SeqOpPtr(new PosOffsetOp(std::move(child), node.offset));
}

Result<SeqOpPtr> Executor::BuildValueOffset(const PhysNode& node,
                                            OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  if (node.offset_strategy == OffsetStrategy::kIncrementalCacheB) {
    // Streamed child in both modes: the incremental cache consumes the
    // input in order whether the consumer streams or probes monotonically.
    return SeqOpPtr(
        new ValueOffsetOp(std::move(child), node.offset, node.required));
  }
  // Naive search over a probed child.
  return SeqOpPtr(new ValueOffsetNaiveOp(std::move(child), node.offset,
                                         node.required,
                                         node.children[0]->required));
}

Result<SeqOpPtr> Executor::BuildWindowAgg(const PhysNode& node,
                                          OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(AggBinding binding, BindAggColumn(node));
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  // Morsel clones of sequential aggregates carry an extra (uncharged)
  // carry-in subtree as children[1]; it is never profiled, so profiled
  // morsel trees stay isomorphic to the display tree.
  SeqOpPtr carry;
  if (node.morsel_carry) {
    SEQ_CHECK(node.children.size() == 2);
    SEQ_ASSIGN_OR_RETURN(carry, Build(node.children[1], nullptr));
  }
  switch (node.window_kind) {
    case WindowKind::kTrailing:
      if (node.mode == AccessMode::kStream &&
          node.agg_strategy == AggStrategy::kCacheA) {
        auto* op = new WindowAggCachedOp(
            std::move(child), node.agg_func, binding.col_index,
            binding.col_type, node.window, node.required);
        if (carry != nullptr) op->set_carry(std::move(carry));
        return SeqOpPtr(op);
      }
      // Naive window probing, streamed or probed (probed child).
      return SeqOpPtr(new WindowAggNaiveOp(
          std::move(child), node.agg_func, binding.col_index,
          binding.col_type, node.window, node.required));
    case WindowKind::kRunning:
      if (node.mode == AccessMode::kProbed) {
        return SeqOpPtr(new MaterializedAggOp(
            std::move(child), node.agg_func, binding.col_index,
            binding.col_type, node.window_kind, node.out_span));
      }
      {
        auto* op = new RunningAggOp(std::move(child), node.agg_func,
                                    binding.col_index, binding.col_type,
                                    node.required);
        if (carry != nullptr) op->set_carry(std::move(carry));
        return SeqOpPtr(op);
      }
    case WindowKind::kAll:
      if (node.mode == AccessMode::kProbed) {
        return SeqOpPtr(new MaterializedAggOp(
            std::move(child), node.agg_func, binding.col_index,
            binding.col_type, node.window_kind, node.out_span));
      }
      return SeqOpPtr(new OverallAggOp(std::move(child), node.agg_func,
                                       binding.col_index, binding.col_type,
                                       node.required));
  }
  return Status::Internal("unknown window kind");
}

Result<SeqOpPtr> Executor::BuildCompose(const PhysNode& node,
                                        OperatorProfile* prof) const {
  if (node.mode == AccessMode::kProbed) {
    SEQ_ASSIGN_OR_RETURN(SeqOpPtr left, Build(node.children[0], prof));
    SEQ_ASSIGN_OR_RETURN(SeqOpPtr right, Build(node.children[1], prof));
    return SeqOpPtr(new ComposeProbeBothOp(
        std::move(left), std::move(right), node.probe_left_first,
        node.predicate, node.out_schema));
  }
  switch (node.join_strategy) {
    case JoinStrategy::kStreamBoth: {
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr left, Build(node.children[0], prof));
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr right, Build(node.children[1], prof));
      return SeqOpPtr(new ComposeLockstepOp(std::move(left), std::move(right),
                                            node.predicate, node.out_schema));
    }
    case JoinStrategy::kStreamLeftProbeRight: {
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr driver, Build(node.children[0], prof));
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr other, Build(node.children[1], prof));
      return SeqOpPtr(new ComposeStreamProbeOp(
          std::move(driver), std::move(other), /*driver_is_left=*/true,
          node.predicate, node.out_schema));
    }
    case JoinStrategy::kStreamRightProbeLeft: {
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr other, Build(node.children[0], prof));
      SEQ_ASSIGN_OR_RETURN(SeqOpPtr driver, Build(node.children[1], prof));
      return SeqOpPtr(new ComposeStreamProbeOp(
          std::move(driver), std::move(other), /*driver_is_left=*/false,
          node.predicate, node.out_schema));
    }
    case JoinStrategy::kProbeBoth:
      return Status::Internal("probe-both compose in a stream plan");
  }
  return Status::Internal("unknown join strategy");
}

Result<SeqOpPtr> Executor::BuildCollapse(const PhysNode& node,
                                         OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(AggBinding binding, BindAggColumn(node));
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  return SeqOpPtr(new CollapseOp(
      std::move(child), node.agg_func, binding.col_index, binding.col_type,
      node.offset, node.required,
      /*materialized=*/node.mode == AccessMode::kProbed));
}

Result<SeqOpPtr> Executor::BuildExpand(const PhysNode& node,
                                       OperatorProfile* prof) const {
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr child, Build(node.children[0], prof));
  return SeqOpPtr(new ExpandOp(std::move(child), node.offset, node.required));
}

// ---------------------------------------------------------------------------
// Morsel-driven parallelism (docs/execution.md).
//
// A stream-root plan's output span is split into contiguous morsels; each
// morsel is evaluated by an independent clone of the operator tree derived
// from the same PhysicalPlan, clipped to the morsel, with private
// AccessStats. Results and stats merge at the barrier in morsel order, so
// rows, counters and budget trips are identical to a serial run. Probed
// roots need no clones at all — probes are stateless per position — so the
// position list (or span walk) is simply chunked across workers.
// ---------------------------------------------------------------------------

namespace {

// Nonnegative remainder, for boundary-alignment arithmetic over possibly
// negative positions.
int64_t Mod(int64_t a, int64_t m) {
  int64_t r = a % m;
  return r < 0 ? r + m : r;
}

// Floor division for possibly negative numerators (b > 0); mirrors the
// bucket mapping of ExpandOp.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

// Modular inverse of a modulo m (requires gcd(a, m) == 1, m >= 1), by the
// extended Euclidean algorithm.
int64_t ModInverse(int64_t a, int64_t m) {
  if (m == 1) return 0;
  int64_t t = 0, new_t = 1, r = m, new_r = Mod(a, m);
  while (new_r != 0) {
    const int64_t q = r / new_r;
    t -= q * new_t;
    std::swap(t, new_t);
    r -= q * new_r;
    std::swap(r, new_r);
  }
  return Mod(t, m);
}

// Alignment moduli are capped so the congruence arithmetic above cannot
// overflow; a plan stacking enough Expands to exceed this runs serial.
constexpr int64_t kMaxAlignModulus = int64_t{1} << 31;

// What AnalyzeSpine learned about a stream plan's driving spine: whether
// it partitions at all, which arithmetic class morsel boundaries must lie
// in (start ≡ phase mod modulus, so collapse/expand bucket edges coincide
// with morsel edges), and the estimated carry-in replay cost per boundary.
struct SpineInfo {
  bool ok = true;
  std::string reason;
  int64_t modulus = 1;
  int64_t phase = 0;
  double carry_cost = 0.0;
};

SpineInfo SpineFail(std::string reason) {
  SpineInfo s;
  s.ok = false;
  s.reason = std::move(reason);
  return s;
}

// Operator kinds a carry-in clone may be built over: cheap, stateless,
// re-streamable shapes. Anything with its own sequential state (nested
// aggregates, offsets, composes) would need carry-in of its own.
bool CarrySupported(const PhysNodePtr& node) {
  switch (node->op) {
    case OpKind::kBaseRef:
    case OpKind::kConstantRef:
      return true;
    case OpKind::kSelect:
    case OpKind::kProject:
    case OpKind::kPositionalOffset:
      return CarrySupported(node->children[0]);
    default:
      return false;
  }
}

// True when the subtree is evaluated purely by per-position probes with no
// cross-probe state, so independent per-worker instances charge exactly
// what one serial instance would. Materializing operators (probed
// collapse, materialized aggregates, the Cache-B value offset) re-consume
// their whole input per instance and are rejected.
bool ProbedSafe(const PhysNodePtr& node, std::string* why) {
  switch (node->op) {
    case OpKind::kBaseRef:
    case OpKind::kConstantRef:
      return true;
    case OpKind::kSelect:
    case OpKind::kProject:
    case OpKind::kPositionalOffset:
    case OpKind::kExpand:
      return ProbedSafe(node->children[0], why);
    case OpKind::kValueOffset:
      if (node->offset_strategy == OffsetStrategy::kIncrementalCacheB) {
        *why = "stateful value-offset cache (Cache-B) is sequential";
        return false;
      }
      return ProbedSafe(node->children[0], why);
    case OpKind::kWindowAgg:
      if (node->window_kind != WindowKind::kTrailing ||
          (node->mode == AccessMode::kStream &&
           node->agg_strategy == AggStrategy::kCacheA)) {
        *why = "materialized/cached aggregate re-consumes its input per worker";
        return false;
      }
      return ProbedSafe(node->children[0], why);
    case OpKind::kCompose:
      if (node->mode != AccessMode::kProbed) {
        *why = "stream compose inside a probed subtree";
        return false;
      }
      return ProbedSafe(node->children[0], why) &&
             ProbedSafe(node->children[1], why);
    case OpKind::kCollapse:
      *why = "materialized collapse re-consumes its input per worker";
      return false;
  }
  *why = "unknown operator kind";
  return false;
}

// Walks the stream-driven spine of the plan (the chain of operators whose
// state advances with the output position; probed side-branches hang off
// it) and decides whether contiguous output morsels can be evaluated by
// independent clones. See docs/execution.md for the full rules.
SpineInfo AnalyzeSpine(const PhysNodePtr& node) {
  switch (node->op) {
    case OpKind::kBaseRef:
    case OpKind::kConstantRef:
      return SpineInfo{};
    case OpKind::kSelect:
    case OpKind::kProject:
      return AnalyzeSpine(node->children[0]);
    case OpKind::kPositionalOffset: {
      // out(p) = in(p + l): a morsel start b clips the child at b + l, so
      // the child's alignment class shifts by -l in output coordinates.
      SpineInfo c = AnalyzeSpine(node->children[0]);
      if (!c.ok) return c;
      c.phase = Mod(c.phase - node->offset, c.modulus);
      return c;
    }
    case OpKind::kValueOffset: {
      if (node->offset_strategy == OffsetStrategy::kIncrementalCacheB) {
        return SpineFail("stateful value-offset cache (Cache-B) is sequential");
      }
      std::string why;
      if (!ProbedSafe(node->children[0], &why)) return SpineFail(why);
      return SpineInfo{};  // stateless per-position search; any boundary
    }
    case OpKind::kWindowAgg:
      switch (node->window_kind) {
        case WindowKind::kAll:
          return SpineFail("overall aggregate is a blocking full pass");
        case WindowKind::kTrailing: {
          if (!(node->mode == AccessMode::kStream &&
                node->agg_strategy == AggStrategy::kCacheA)) {
            // Naive prober: stateless per position over a probed child.
            std::string why;
            if (!ProbedSafe(node->children[0], &why)) return SpineFail(why);
            return SpineInfo{};
          }
          // Cache-A: sequential window state, rebuilt per morsel by an
          // uncharged carry-in clone over the window-1 preceding
          // positions.
          if (!CarrySupported(node->children[0])) {
            return SpineFail("window carry-in unsupported over " +
                             node->children[0]->Label());
          }
          SpineInfo c = AnalyzeSpine(node->children[0]);
          if (!c.ok) return c;
          const PhysNode& ch = *node->children[0];
          const int64_t len =
              (!ch.required.IsEmpty() && !ch.required.IsUnbounded())
                  ? ch.required.Length()
                  : 1;
          const double per_pos = ch.est_cost / static_cast<double>(len);
          c.carry_cost +=
              per_pos * static_cast<double>(std::max<int64_t>(
                            node->window - 1, 0));
          return c;
        }
        case WindowKind::kRunning: {
          if (!CarrySupported(node->children[0])) {
            return SpineFail("running-aggregate carry-in unsupported over " +
                             node->children[0]->Label());
          }
          SpineInfo c = AnalyzeSpine(node->children[0]);
          if (!c.ok) return c;
          // Carry-in replays the whole prefix: half the input on average
          // per boundary — usually enough to force the serial fallback.
          c.carry_cost += 0.5 * node->children[0]->est_cost;
          return c;
        }
      }
      return SpineFail("unknown window kind");
    case OpKind::kCompose:
      switch (node->join_strategy) {
        case JoinStrategy::kStreamBoth:
          return SpineFail("lock-step compose does not partition");
        case JoinStrategy::kStreamLeftProbeRight: {
          std::string why;
          if (!ProbedSafe(node->children[1], &why)) return SpineFail(why);
          return AnalyzeSpine(node->children[0]);
        }
        case JoinStrategy::kStreamRightProbeLeft: {
          std::string why;
          if (!ProbedSafe(node->children[0], &why)) return SpineFail(why);
          return AnalyzeSpine(node->children[1]);
        }
        case JoinStrategy::kProbeBoth:
          return SpineFail("probe-both compose in a stream plan");
      }
      return SpineFail("unknown join strategy");
    case OpKind::kCollapse: {
      if (node->mode == AccessMode::kProbed) {
        return SpineFail("materialized collapse re-consumes its input");
      }
      const int64_t f = node->offset;
      if (f <= 0) return SpineFail("non-positive collapse factor");
      SpineInfo c = AnalyzeSpine(node->children[0]);
      if (!c.ok) return c;
      // A morsel start b puts the child clip at b*f — always a bucket
      // edge, so collapse itself imposes no constraint; it only transports
      // the child's: f*b ≡ phase (mod modulus).
      if (c.modulus > 1) {
        const int64_t g = std::gcd(f, c.modulus);
        if (c.phase % g != 0) {
          return SpineFail("collapse cannot align morsel boundaries");
        }
        const int64_t m = c.modulus / g;
        c.phase = m == 1 ? 0 : Mod((c.phase / g) % m * ModInverse(f / g, m), m);
        c.modulus = m;
      }
      return c;
    }
    case OpKind::kExpand: {
      const int64_t f = node->offset;
      if (f <= 0) return SpineFail("non-positive expand factor");
      SpineInfo c = AnalyzeSpine(node->children[0]);
      if (!c.ok) return c;
      // Morsel starts must land on bucket edges (multiples of f) AND map
      // to child positions in the child's class: b = f*(phase + k*mod).
      if (c.modulus > kMaxAlignModulus / f) {
        return SpineFail("alignment modulus too large");
      }
      c.phase = Mod(c.phase * f, c.modulus * f);
      c.modulus = c.modulus * f;
      return c;
    }
  }
  return SpineFail("unknown operator kind");
}

// Clips the subtree to the morsel clip [lo, hi] given in the node's OUTPUT
// coordinates (sentinel bounds mean "unclipped on this side"), rewriting
// child clips through each operator's coordinate mapping. Base scans are
// marked to resume page accounting (the page holding the record just
// before the clip counts as already fetched), and sequential aggregates on
// a clipped morsel get an uncharged carry-in subtree as children[1]. Only
// reached for shapes AnalyzeSpine approved.
//
// `with_carry = false` suppresses the carry-in subtrees: checkpointed
// serial chunks restore aggregate state from the saved operator-state
// blob instead of replaying the lead-in, so a carry clone would both
// waste the replay and double-apply the prefix.
PhysNodePtr CloneForMorsel(const PhysNodePtr& node, Position lo, Position hi,
                           bool with_carry = true) {
  auto clone = std::make_shared<PhysNode>(*node);
  clone->required = node->required.Intersect(Span::Of(lo, hi));
  switch (node->op) {
    case OpKind::kBaseRef:
      clone->resume_covered_from = node->required.start;
      break;
    case OpKind::kConstantRef:
      break;
    case OpKind::kSelect:
    case OpKind::kProject:
      clone->children[0] =
          CloneForMorsel(node->children[0], lo, hi, with_carry);
      break;
    case OpKind::kPositionalOffset: {
      // out(p) = in(p + l).
      const Position clo = lo <= kMinPosition ? kMinPosition : lo + node->offset;
      const Position chi = hi >= kMaxPosition ? kMaxPosition : hi + node->offset;
      clone->children[0] =
          CloneForMorsel(node->children[0], clo, chi, with_carry);
      break;
    }
    case OpKind::kValueOffset:
      break;  // naive search: probed child, shared untouched
    case OpKind::kWindowAgg: {
      if (!(node->window_kind == WindowKind::kTrailing &&
            node->mode == AccessMode::kStream &&
            node->agg_strategy == AggStrategy::kCacheA) &&
          node->window_kind != WindowKind::kRunning) {
        break;  // naive prober: probed child, shared untouched
      }
      clone->children[0] =
          CloneForMorsel(node->children[0], lo, hi, with_carry);
      if (lo > kMinPosition && with_carry) {
        Position carry_lo;
        if (node->window_kind == WindowKind::kTrailing) {
          if (node->window <= 1) break;  // window of 1: no prior state
          carry_lo = lo - (node->window - 1);
        } else {
          carry_lo = kMinPosition;  // running: the whole prefix
        }
        clone->morsel_carry = true;
        clone->children.push_back(
            CloneForMorsel(node->children[0], carry_lo, lo - 1));
      }
      break;
    }
    case OpKind::kCompose:
      if (node->join_strategy == JoinStrategy::kStreamLeftProbeRight) {
        clone->children[0] =
            CloneForMorsel(node->children[0], lo, hi, with_carry);
      } else {
        clone->children[1] =
            CloneForMorsel(node->children[1], lo, hi, with_carry);
      }
      break;
    case OpKind::kCollapse: {
      // Output bucket b covers child [b*f, (b+1)*f - 1].
      const int64_t f = node->offset;
      const Position clo = lo <= kMinPosition ? kMinPosition : lo * f;
      const Position chi = hi >= kMaxPosition ? kMaxPosition : hi * f + (f - 1);
      clone->children[0] =
          CloneForMorsel(node->children[0], clo, chi, with_carry);
      break;
    }
    case OpKind::kExpand: {
      // out(p) = in(floor(p / f)); morsel starts are multiples of f.
      const int64_t f = node->offset;
      const Position clo = lo <= kMinPosition ? kMinPosition : FloorDiv(lo, f);
      const Position chi = hi >= kMaxPosition ? kMaxPosition : FloorDiv(hi, f);
      clone->children[0] =
          CloneForMorsel(node->children[0], clo, chi, with_carry);
      break;
    }
  }
  return clone;
}

// Adds a per-morsel profile tree's measured counters into the skeleton
// built from the original plan. The trees are isomorphic — clones change
// spans, never structure, and carry-in subtrees are built unprofiled — so
// a pairwise recursive walk lines up. Per-operator wall_ns becomes summed
// worker time (documented in docs/observability.md).
void MergeProfileTree(OperatorProfile* dst, const OperatorProfile& src) {
  dst->calls += src.calls;
  dst->rows_out += src.rows_out;
  dst->wall_ns += src.wall_ns;
  dst->sim_cost += src.sim_cost;
  dst->cache_hits += src.cache_hits;
  dst->cache_stores += src.cache_stores;
  const size_t n = std::min(dst->children.size(), src.children.size());
  for (size_t i = 0; i < n; ++i) {
    MergeProfileTree(dst->children[i].get(), *src.children[i]);
  }
}

// Whole-query budget state shared by all morsel workers. Workers add page
// and row deltas AFTER each non-empty root batch (mirroring where the
// serial driver checks), then test the running totals in the serial
// CheckGuards order with the identical messages — so whether a budget
// trips, and with what status, matches a serial run. The first failure
// wins; later ones (usually the cancellation cascade through `stop`) are
// dropped, exactly like ExecContext::Raise.
struct SharedGuardState {
  std::atomic<int64_t> rows{0};
  std::atomic<int64_t> pages{0};
  std::atomic<bool> stop{false};
  std::mutex mu;
  Status first_status;

  void Fail(Status s) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (first_status.ok() && !s.ok()) first_status = std::move(s);
    }
    stop.store(true, std::memory_order_release);
  }

  Status TakeStatus() {
    std::lock_guard<std::mutex> lock(mu);
    return first_status;
  }
};


/// The query's wall-clock deadline, computed once before any unit runs.
std::optional<std::chrono::steady_clock::time_point> QueryDeadline(
    const QueryGuards& guards) {
  if (guards.max_wall_ms <= 0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(guards.max_wall_ms);
}

/// Where a driven unit's answer rows go: appended to `rows`, or handed to
/// `sink` when that is set.
struct RowOut {
  std::vector<PosRecord>* rows = nullptr;
  const RowSink* sink = nullptr;

  /// A row in a pipeline slot buffer. Materializing moves the *values*
  /// out — stealing the slot vector itself would drain the pipeline's
  /// reusable buffers and reintroduce a per-row allocation upstream.
  void Slot(Position pos, Record& rec) const {
    if (sink != nullptr) {
      (*sink)(pos, rec);
      return;
    }
    rows->emplace_back();
    rows->back().pos = pos;
    MoveRecordValues(rows->back().rec, rec);
  }

  /// A row the root handed over by value (tuple driving).
  void Owned(PosRecord&& row) const {
    if (sink != nullptr) {
      (*sink)(row.pos, row.rec);
      return;
    }
    rows->push_back(std::move(row));
  }
};

/// The part of the plan's output one root is driven over: the whole plan
/// for a serial run, a morsel, or a checkpoint chunk.
struct DriveUnit {
  AccessMode mode = AccessMode::kStream;
  /// Stream roots emit only the rows inside `emit` (a morsel's clipped
  /// clone may produce rows outside it; a whole plan's root never does —
  /// the optimizer clips every node to the requested range). Probed roots
  /// without `positions` probe every position of it.
  Span emit = Span::Empty();
  /// Probed roots probe exactly these ascending positions. Stream roots
  /// keep only the rows at them, filtered during a tuple-at-a-time scan
  /// (the point filter is positional, not batch-shaped).
  std::span<const Position> positions;
  /// When set, polled before every batch: a morsel worker stops as soon
  /// as a sibling has failed.
  const std::atomic<bool>* stop = nullptr;
};

/// The Start operator (paper §4): drives an opened root over `unit` — a
/// stream access or probes at positions, batch- or tuple-at-a-time as
/// `opts.use_batch` says — hands every answer row to `out`, charges it to
/// records_output, and then calls `account(rows)` after every batch
/// (every tuple or probe on the tuple path). Returns the first non-OK
/// accounting status. A mid-stream error stops the loop and stays in
/// `ctx` for the caller, which closes the root.
template <typename Account>
Status DriveRoot(SeqOp& root, ExecContext& ctx, const ExecOptions& opts,
                 const DriveUnit& unit, const RowOut& out, Account&& account) {
  Status status;
  auto step = [&](int64_t rows) {
    if (ctx.stats != nullptr) ctx.stats->records_output += rows;
    status = account(rows);
    return status.ok();
  };
  auto stopped = [&] {
    return unit.stop != nullptr && unit.stop->load(std::memory_order_relaxed);
  };
  const Span emit = unit.emit;
  const size_t cap = opts.batch_capacity;

  if (unit.mode == AccessMode::kStream) {
    if (emit.IsEmpty()) return status;
    if (opts.use_batch && unit.positions.empty()) {
      RecordBatch batch(cap);
      while (!stopped() && root.NextBatch(&batch) > 0) {
        if (ctx.failed()) break;
        int64_t emitted = 0;
        for (size_t i = 0; i < batch.size(); ++i) {
          if (batch.pos(i) < emit.start || batch.pos(i) > emit.end) continue;
          out.Slot(batch.pos(i), batch.rec(i));
          ++emitted;
        }
        if (!step(emitted)) break;
      }
      return status;
    }
    size_t next_wanted = 0;
    std::optional<PosRecord> r = root.NextAtOrAfter(emit.start);
    while (r.has_value() && r->pos <= emit.end) {
      if (ctx.failed()) break;
      bool wanted = true;
      if (!unit.positions.empty()) {
        while (next_wanted < unit.positions.size() &&
               unit.positions[next_wanted] < r->pos) {
          ++next_wanted;
        }
        wanted = next_wanted < unit.positions.size() &&
                 unit.positions[next_wanted] == r->pos;
      }
      if (wanted) out.Owned(std::move(*r));
      if (!step(wanted ? 1 : 0)) break;
      r = root.Next();
    }
    return status;
  }

  // Probed driving (Fig. 6). Batch driving chunks the positions through
  // ProbeBatch; the probe sets equal the tuple loop's, so AccessStats
  // parity holds here for the same reason it does on the stream side.
  if (opts.use_batch) {
    RecordBatch batch(cap);
    auto probe_chunk = [&](std::span<const Position> chunk) {
      const size_t n = root.ProbeBatch(chunk, &batch);
      if (ctx.failed()) return false;
      for (size_t i = 0; i < n; ++i) out.Slot(batch.pos(i), batch.rec(i));
      return step(static_cast<int64_t>(n));
    };
    if (!unit.positions.empty()) {
      const std::span<const Position> all = unit.positions;
      for (size_t off = 0; off < all.size() && !stopped(); off += cap) {
        if (!probe_chunk(all.subspan(off, std::min(cap, all.size() - off)))) {
          break;
        }
      }
      return status;
    }
    std::vector<Position> chunk;
    chunk.reserve(cap);
    Position p = emit.start;
    while (p <= emit.end && !stopped()) {
      chunk.clear();
      while (chunk.size() < cap && p <= emit.end) chunk.push_back(p++);
      if (!probe_chunk(chunk)) break;
    }
    return status;
  }
  auto probe_one = [&](Position p) {
    std::optional<Record> r = root.Probe(p);
    if (ctx.failed()) return false;
    if (r.has_value()) out.Owned(PosRecord{p, std::move(*r)});
    return step(r.has_value() ? 1 : 0);
  };
  if (!unit.positions.empty()) {
    for (Position p : unit.positions) {
      if (!probe_one(p)) break;
    }
  } else {
    for (Position p = emit.start; p <= emit.end; ++p) {
      if (!probe_one(p)) break;
    }
  }
  return status;
}

}  // namespace

MorselPlan Executor::PlanMorsels(const PhysicalPlan& plan) const {
  MorselPlan mp;
  auto serial = [&mp](std::string why) -> MorselPlan {
    mp.parallel = false;
    mp.workers = 1;
    mp.morsels.clear();
    mp.reason = "serial: " + std::move(why);
    return mp;
  };
  const int workers = options_.parallelism;
  if (workers <= 1) return serial("parallelism=1");
  if (plan.root == nullptr) return serial("no plan root");
  if (!options_.use_batch) {
    return serial("tuple-at-a-time driving is the serial baseline");
  }
  if (options_.fault_injector != nullptr) {
    return serial("fault injector armed: global hit order must match serial");
  }

  // Below this many positions per would-be morsel, thread startup beats
  // the work itself. An explicit morsel_size overrides (tests use it to
  // force parallel driving on small fixtures).
  constexpr int64_t kMinMorselLen = 256;

  if (plan.root_mode == AccessMode::kProbed) {
    std::string why;
    if (!ProbedSafe(plan.root, &why)) return serial(why);
    if (!plan.positions.empty()) {
      const int64_t n = static_cast<int64_t>(plan.positions.size());
      if (options_.morsel_size == 0 && n < workers * kMinMorselLen) {
        return serial("too few probe positions to split");
      }
      mp.parallel = true;
      mp.workers = workers;
      std::ostringstream oss;
      oss << "parallel: " << workers << " workers over " << n
          << " probe positions";
      mp.reason = oss.str();
      return mp;  // morsels stay empty: ExecuteMorsels chunks the list
    }
    if (plan.output_span.IsEmpty()) return serial("empty output span");
    if (plan.output_span.IsUnbounded()) return serial("unbounded probe range");
    const int64_t len = plan.output_span.Length();
    int64_t count;
    if (options_.morsel_size > 0) {
      const int64_t ms = static_cast<int64_t>(options_.morsel_size);
      count = std::min<int64_t>((len + ms - 1) / ms, 1024);
    } else {
      if (len < workers * kMinMorselLen) {
        return serial("output span too short to split");
      }
      count = workers;
    }
    if (count <= 1) return serial("single morsel");
    const int64_t step = (len + count - 1) / count;
    for (Position s = plan.output_span.start; s <= plan.output_span.end;
         s += step) {
      mp.morsels.push_back(
          Span::Of(s, std::min(plan.output_span.end, s + step - 1)));
    }
    mp.parallel = true;
    mp.workers = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(workers), mp.morsels.size()));
    std::ostringstream oss;
    oss << "parallel: " << mp.workers << " workers x " << mp.morsels.size()
        << " probe morsels over " << plan.output_span.ToString();
    mp.reason = oss.str();
    return mp;
  }

  // Stream root.
  if (!plan.positions.empty()) {
    return serial("point-position filter on a stream plan");
  }
  if (plan.output_span.IsEmpty()) return serial("empty output span");
  if (plan.output_span.IsUnbounded()) return serial("unbounded output span");
  const SpineInfo spine = AnalyzeSpine(plan.root);
  if (!spine.ok) return serial(spine.reason);

  const int64_t len = plan.output_span.Length();
  int64_t count;
  if (options_.morsel_size > 0) {
    const int64_t ms = static_cast<int64_t>(options_.morsel_size);
    count = std::min<int64_t>((len + ms - 1) / ms, 1024);
  } else {
    if (len < workers * kMinMorselLen) {
      return serial("output span too short to split");
    }
    count = workers;
  }
  if (count <= 1) return serial("single morsel");

  // Carry-in economics: replaying aggregate lead-ins is uncharged but not
  // free in wall time. Estimated replay must stay under the estimated
  // parallel win, (W-1)/2W of the plan cost; an explicit morsel_size is a
  // caller override and skips the heuristic.
  if (options_.morsel_size == 0 && spine.carry_cost > 0.0) {
    const double carry_total =
        spine.carry_cost * static_cast<double>(count - 1);
    const double parallel_win = plan.est_cost *
                                static_cast<double>(workers - 1) /
                                (2.0 * static_cast<double>(workers));
    if (carry_total > parallel_win) {
      return serial("carry-in replay would cost more than the parallel win");
    }
  }

  // Morsel starts: even splits snapped UP into the boundary class
  // (start ≡ phase mod modulus) so collapse/expand bucket edges coincide
  // with morsel edges.
  const Span span = plan.output_span;
  std::vector<Position> starts;
  starts.push_back(span.start);
  const int64_t step = (len + count - 1) / count;
  for (int64_t k = 1; k < count; ++k) {
    Position b = span.start + k * step;
    if (spine.modulus > 1) b += Mod(spine.phase - b, spine.modulus);
    if (b <= starts.back()) continue;
    if (b > span.end) break;
    starts.push_back(b);
  }
  if (starts.size() <= 1) {
    return serial("boundary alignment left a single morsel");
  }
  mp.morsels.reserve(starts.size());
  for (size_t i = 0; i < starts.size(); ++i) {
    const Position e = (i + 1 < starts.size()) ? starts[i + 1] - 1 : span.end;
    mp.morsels.push_back(Span::Of(starts[i], e));
  }
  mp.parallel = true;
  mp.workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(workers), mp.morsels.size()));
  std::ostringstream oss;
  oss << "parallel: " << mp.workers << " workers x " << mp.morsels.size()
      << " morsels over " << span.ToString();
  if (spine.modulus > 1) oss << " (aligned mod " << spine.modulus << ")";
  mp.reason = oss.str();
  return mp;
}

ExecContext Executor::UnitContext(AccessStats* stats, const Deadline& deadline,
                                  bool split) const {
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.stats = stats;
  ctx.params = params_;
  ctx.faults = options_.fault_injector;
  ctx.guards = options_.guards;
  if (split) {
    ctx.guards.max_rows = 0;
    ctx.guards.max_pages = 0;
  }
  if (deadline.has_value()) ctx.ArmGuardsAt(*deadline);
  return ctx;
}

Result<QueryResult> Executor::ExecuteMorsels(
    const PhysicalPlan& plan, const MorselPlan& mp, AccessStats* stats,
    OperatorProfile* root_profile, const ChunkExtras* extras) const {
  const bool probed = plan.root_mode == AccessMode::kProbed;
  const bool probed_list = probed && !plan.positions.empty();

  // Wall-clock budget measured from BEFORE admission: time spent waiting
  // in the scheduler's queue counts toward max_wall_ms, so a query that
  // queues never gets more total wall time than an uncontended one. All
  // workers later arm the same instant, so the budget bounds the query,
  // not each worker's skew. A checkpointed chunk inherits the deadline
  // computed before chunk 0 — the wall budget spans the whole run, not
  // each chunk.
  const Deadline deadline =
      extras != nullptr ? extras->deadline : QueryDeadline(options_.guards);

  // Admission to the process-wide scheduler: at most max_running parallel
  // queries execute at once; beyond that this thread waits (visible as
  // the `queued` registry state) or is rejected. Serial queries never
  // reach this point.
  QueryTelemetry* telem = options_.telemetry;
  QueryScheduler& sched = QueryScheduler::Global();
  QueryScheduler::AdmitRequest admit_request;
  admit_request.priority = options_.priority;
  admit_request.timeout_ms = options_.admission_timeout_ms;
  admit_request.deadline = deadline;
  admit_request.cancel = options_.guards.cancel;
  int pre_admit_state = static_cast<int>(QueryState::kExecuting);
  if (telem != nullptr) {
    pre_admit_state = telem->state.load(std::memory_order_relaxed);
    telem->state.store(static_cast<int>(QueryState::kQueued),
                       std::memory_order_relaxed);
  }
  Result<QueryScheduler::Admission> admit_result = sched.Admit(admit_request);
  if (telem != nullptr) {
    // Restore the pre-admission state (kExecuting, or kDegraded on the
    // cache-degradation re-run) rather than assuming it.
    telem->state.store(pre_admit_state, std::memory_order_relaxed);
  }
  if (!admit_result.ok()) return admit_result.status();
  QueryScheduler::Admission admission = std::move(admit_result).value();
  if (telem != nullptr && admission.queue_wait_us() > 0) {
    telem->queued_us.store(admission.queue_wait_us(),
                           std::memory_order_relaxed);
  }

  // Work units. Stream morsels get a clipped clone of the plan tree (the
  // first/last morsel keeps the serial plan's lead-in/tail by leaving that
  // side unclipped); probed roots share the original immutable nodes and
  // split the position list / span walk instead.
  struct Unit {
    PhysNodePtr node;
    Span emit = Span::Empty();
    std::span<const Position> positions;  // probed position-list chunk
  };
  std::vector<Unit> units;
  if (probed_list) {
    const size_t n = plan.positions.size();
    size_t chunks = options_.morsel_size > 0
                        ? (n + options_.morsel_size - 1) / options_.morsel_size
                        : static_cast<size_t>(mp.workers);
    chunks = std::min(std::max<size_t>(chunks, 1), std::min<size_t>(n, 1024));
    const size_t step = (n + chunks - 1) / chunks;
    for (size_t off = 0; off < n; off += step) {
      Unit u;
      u.node = plan.root;
      u.positions = std::span<const Position>(plan.positions)
                        .subspan(off, std::min(step, n - off));
      units.push_back(std::move(u));
    }
  } else if (probed) {
    for (const Span& m : mp.morsels) {
      Unit u;
      u.node = plan.root;
      u.emit = m;
      units.push_back(std::move(u));
    }
  } else {
    // A checkpointed chunk clips its outermost units at the chunk
    // boundaries instead of leaving them open: a middle chunk must not
    // re-read the lead-in or run into the tail.
    const Position outer_lo = extras != nullptr ? extras->clip_lo : kMinPosition;
    const Position outer_hi = extras != nullptr ? extras->clip_hi : kMaxPosition;
    for (size_t i = 0; i < mp.morsels.size(); ++i) {
      Unit u;
      u.emit = mp.morsels[i];
      const Position lo = i == 0 ? outer_lo : mp.morsels[i].start;
      const Position hi =
          i + 1 == mp.morsels.size() ? outer_hi : mp.morsels[i].end;
      u.node = CloneForMorsel(plan.root, lo, hi);
      units.push_back(std::move(u));
    }
  }
  const size_t n_units = units.size();

  // Registry morsel counts are owned by the chunk driver when this group
  // runs one chunk of a checkpointed query (morsels_total = chunk count).
  if (telem != nullptr && extras == nullptr) {
    telem->morsels_total.store(static_cast<int>(n_units),
                               std::memory_order_relaxed);
  }
  // Always-on per-morsel metrics: name resolution pays the registry mutex
  // once per query here; workers then Record lock-free.
  MetricCounter& morsel_counter =
      MetricsRegistry::Global().Counter("exec.morsels");
  Histogram& morsel_hist =
      MetricsRegistry::Global().GetHistogram("exec.morsel_us");

  // Profile skeleton from the ORIGINAL plan: labels, estimates and spans
  // are the serial plan's. The builder's operator tree is discarded; the
  // per-unit scratch trees below merge their measured counters into this
  // skeleton at the barrier.
  if (root_profile != nullptr) {
    SEQ_ASSIGN_OR_RETURN(SeqOpPtr skeleton, Build(plan.root, root_profile));
    (void)skeleton;
  }
  std::vector<OperatorProfile> unit_profiles(
      root_profile != nullptr ? n_units : 0);

  std::vector<AccessStats> unit_stats(n_units);
  std::vector<std::vector<PosRecord>> unit_records(n_units);
  {
    const double est = probed_list ? static_cast<double>(plan.positions.size())
                                   : plan.root->EstRows();
    const size_t per_unit = std::min(
        static_cast<size_t>(std::max(est, 0.0)) / n_units + 16,
        size_t{1} << 18);
    for (auto& v : unit_records) v.reserve(per_unit);
  }

  SharedGuardState shared;
  if (extras != nullptr) {
    // Whole-query budgets: rows and pages already spent by earlier chunks
    // count against max_rows/max_pages, so a checkpointed run trips at
    // exactly the same totals as an uninterrupted one.
    shared.rows.store(extras->base_rows, std::memory_order_relaxed);
    shared.pages.store(extras->base_pages, std::memory_order_relaxed);
  }

  auto run_unit = [&](size_t ui) {
    const auto unit_start = std::chrono::steady_clock::now();
    const Unit& unit = units[ui];
    AccessStats& mstats = unit_stats[ui];
    // Rows and pages are whole-query budgets, enforced against the shared
    // totals below; the worker context keeps the shared deadline, the
    // (position-determined) cache budget and, as its cancel flag, the
    // group's stop flag.
    ExecContext ctx = UnitContext(&mstats, deadline, /*split=*/true);
    ctx.guards.cancel = &shared.stop;

    Result<SeqOpPtr> built = Build(
        unit.node, root_profile != nullptr ? &unit_profiles[ui] : nullptr);
    if (!built.ok()) {
      shared.Fail(built.status());
      return;
    }
    SeqOpPtr root = std::move(built).value();
    Status open = root->Open(&ctx);
    if (!open.ok()) {
      shared.Fail(std::move(open));
      return;
    }

    // Post-batch accounting against the shared budgets, in the serial
    // CheckGuards order (cancel, deadline, pages, rows). Page deltas from
    // the final drain (after the last non-empty batch) are intentionally
    // NOT accounted — the serial driver never checks after them either.
    int64_t pages_seen = 0;
    auto account = [&](int64_t emitted) {
      Status g = ctx.CheckGuards(0);  // stop flag + deadline
      if (g.ok()) {
        const int64_t page_now = mstats.stream_pages + mstats.probe_pages;
        const int64_t page_delta = page_now - pages_seen;
        pages_seen = page_now;
        if (telem != nullptr) {
          if (page_delta > 0) {
            telem->pages.fetch_add(page_delta, std::memory_order_relaxed);
          }
          if (emitted > 0) {
            telem->rows.fetch_add(emitted, std::memory_order_relaxed);
          }
        }
        const QueryGuards& budgets = options_.guards;
        const int64_t pages =
            budgets.max_pages > 0
                ? shared.pages.fetch_add(page_delta,
                                         std::memory_order_relaxed) +
                      page_delta
                : 0;
        const int64_t rows =
            budgets.max_rows > 0
                ? shared.rows.fetch_add(emitted, std::memory_order_relaxed) +
                      emitted
                : 0;
        g = budgets.CheckBudgets(pages, rows);
      }
      if (!g.ok()) shared.Fail(g);
      return g;
    };
    const DriveUnit drive{plan.root_mode, unit.emit, unit.positions,
                          &shared.stop};
    DriveRoot(*root, ctx, options_, drive, RowOut{&unit_records[ui]},
              account);
    root->Close();
    Status err = ctx.TakeError();
    if (!err.ok()) shared.Fail(std::move(err));
    if (telem != nullptr && extras == nullptr) {
      telem->morsels_done.fetch_add(1, std::memory_order_relaxed);
    }
    morsel_counter.Add();
    morsel_hist.Record(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - unit_start)
            .count());
  };

  // All morsels run on the process-wide scheduler pool: this query's
  // units form one task group, dispatched FIFO with at most mp.workers
  // (the per-query share cap) scheduler workers on it at once. The
  // coordinating thread waits at the group barrier — it does not execute
  // units — and forwards the caller's cancellation flag to workers (which
  // watch shared.stop) from the scheduler's wait/poll loop.
  {
    auto scheduled_unit = [&](size_t ui) {
      if (telem != nullptr) {
        telem->workers.fetch_add(1, std::memory_order_relaxed);
      }
      run_unit(ui);
      if (telem != nullptr) {
        telem->workers.fetch_sub(1, std::memory_order_relaxed);
      }
    };
    std::function<void()> poll;
    if (options_.guards.cancel != nullptr) {
      const std::atomic<bool>* user_cancel = options_.guards.cancel;
      poll = [&shared, user_cancel] {
        if (user_cancel->load(std::memory_order_relaxed) &&
            !shared.stop.load(std::memory_order_relaxed)) {
          shared.Fail(Status::Cancelled("query cancelled by driver"));
        }
      };
    }
    sched.RunGroup(n_units, mp.workers, options_.priority, scheduled_unit,
                   poll);
  }
  // Free the admission slot before the merge barrier: the next queued
  // query can start while we assemble this one's result.
  admission.Release();

  // Barrier merges, always in unit (= position) order so every total is
  // deterministic, and merged even on failure — the serial path also
  // leaves partial charges in the caller's stats block.
  if (stats != nullptr) {
    for (const AccessStats& ms : unit_stats) stats->Merge(ms);
  }
  if (root_profile != nullptr && !root_profile->children.empty()) {
    OperatorProfile* skel = root_profile->children.back().get();
    for (const OperatorProfile& up : unit_profiles) {
      if (!up.children.empty()) MergeProfileTree(skel, *up.children[0]);
    }
  }
  SEQ_RETURN_IF_ERROR(shared.TakeStatus());

  QueryResult result;
  result.schema = plan.schema;
  size_t total = 0;
  for (const auto& v : unit_records) total += v.size();
  result.records.reserve(total);
  for (auto& v : unit_records) {
    for (PosRecord& r : v) result.records.push_back(std::move(r));
  }
  return result;
}

Result<QueryResult> Executor::Execute(const PhysicalPlan& plan,
                                      AccessStats* stats, const RowSink& sink,
                                      QueryProfile* profile) const {
  if (profile == nullptr) return ExecuteImpl(plan, stats, sink, nullptr);
  if (sink) {
    return Status::InvalidArgument("a profiled run cannot stream to a sink");
  }
  profile->Reset();

  // The Start operator (the driving loop) gets the root profile node; the
  // plan tree hangs under it.
  OperatorProfile& root = *profile->root;
  {
    std::ostringstream oss;
    oss << "Start [" << AccessModeName(plan.root_mode);
    if (plan.root_mode == AccessMode::kStream) {
      oss << " over " << plan.output_span.ToString();
    } else {
      oss << " at " << plan.positions.size() << " positions";
    }
    oss << "]";
    root.label = oss.str();
  }
  root.est_cost = plan.est_cost;
  if (!plan.positions.empty()) {
    root.est_rows = static_cast<double>(plan.positions.size());
  } else if (plan.root != nullptr) {
    root.est_rows = plan.root->EstRows();
  }
  if (!plan.output_span.IsEmpty() && !plan.output_span.IsUnbounded()) {
    root.span_len = plan.output_span.Length();
  }

  // Attribution needs a stats block even when the caller doesn't want
  // one: the wrappers read simulated-cost / cache-counter deltas from it.
  AccessStats local;
  auto start = std::chrono::steady_clock::now();
  Result<QueryResult> result = ExecuteImpl(plan, &local, sink, &root);
  int64_t wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  root.calls = 1;
  root.wall_ns = wall_ns;
  root.sim_cost = local.simulated_cost;
  root.cache_hits = local.cache_hits;
  root.cache_stores = local.cache_stores;
  if (result.ok()) {
    root.rows_out = static_cast<int64_t>(result.value().records.size());
  }
  profile->total_wall_ns = wall_ns;
  profile->stats = local;
  if (stats != nullptr) *stats += local;
  return result;
}

Result<QueryResult> Executor::ExecuteImpl(const PhysicalPlan& plan,
                                          AccessStats* stats,
                                          const RowSink& sink,
                                          OperatorProfile* root_profile)
    const {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("plan has no root");
  }
  // A sink run stays serial: the sink gets every row in position order,
  // on the calling thread.
  if (!sink && options_.parallelism > 1) {
    const MorselPlan morsels = PlanMorsels(plan);
    if (morsels.parallel) {
      return ExecuteMorsels(plan, morsels, stats, root_profile, nullptr);
    }
  }
  ExecContext ctx =
      UnitContext(stats, QueryDeadline(options_.guards), /*split=*/false);
  // The page budget is counted from AccessStats, and live telemetry reads
  // its page charges from there too — so install a local block even when
  // the caller did not ask for stats.
  AccessStats guard_stats;
  if ((ctx.guards.max_pages > 0 || options_.telemetry != nullptr) &&
      stats == nullptr) {
    ctx.stats = &guard_stats;
  }

  QueryResult result;
  result.schema = plan.schema;
  SEQ_ASSIGN_OR_RETURN(SeqOpPtr root, Build(plan.root, root_profile));
  SEQ_RETURN_IF_ERROR(root->Open(&ctx));

  const RowOut out{&result.records, sink ? &sink : nullptr};
  if (!sink && plan.root_mode == AccessMode::kStream) {
    // Pre-size the result from the optimizer's row estimate (capped so a
    // wild overestimate cannot balloon the allocation).
    const double est = plan.root->EstRows();
    if (est > 0) {
      result.records.reserve(
          std::min(static_cast<size_t>(est) + 16, size_t{1} << 20));
    }
  }

  // Running root-row count for the row budget. A mid-stream fault or
  // budget trip discards a materialized partial result — Execute never
  // returns truncated answers — but rows already handed to a sink have
  // been seen and cannot be taken back (docs/robustness.md).
  int64_t emitted = 0;
  TelemetryReporter telem(options_.telemetry, ctx.stats);
  const Status guard_status = DriveRoot(
      *root, ctx, options_,
      DriveUnit{plan.root_mode, plan.output_span, plan.positions},
      out, [&](int64_t rows) {
        emitted += rows;
        telem.Report(rows);
        return ctx.CheckGuards(emitted);
      });
  root->Close();
  SEQ_RETURN_IF_ERROR(ctx.TakeError());
  SEQ_RETURN_IF_ERROR(guard_status);
  return result;
}

// ---------------------------------------------------------------------------
// Checkpointable execution (docs/robustness.md).
//
// A chunkable plan runs as a deterministic grid of clip-span chunks over
// the SAME boundary-alignment rules as morsel planning. Between chunks the
// driver polls the suspend triggers; a firing leaves the complete prefix
// (rows, stats, operator-state blob, watermark) in the SuspendCapture for
// the engine to persist. Resuming re-enters this function with the grid
// parameters from the checkpoint, so an interrupted run replays the exact
// chunk sequence — and therefore the exact floating-point charge order —
// of an uninterrupted checkpointed run.
//
// Serial chunks carry aggregate state across boundaries by SaveState/
// RestoreState injection (carry subtrees suppressed). Parallel chunks
// (stream, batch, no fault injector) rebuild state per sub-morsel with
// uncharged carries — the PR5 parity mechanism — and never save state.
// Probed chunks always run serial: probes are stateless per position, so
// rebuilding the tree per chunk charges nothing extra.
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecuteCheckpointed(const PhysicalPlan& plan,
                                                  AccessStats* stats) const {
  const CheckpointConfig& ck = options_.checkpoint;
  SEQ_CHECK_MSG(ck.capture != nullptr,
                "ExecuteCheckpointed requires checkpoint.capture");
  SuspendCapture* capture = ck.capture;
  *capture = SuspendCapture{};

  if (plan.root == nullptr) {
    return Status::InvalidArgument("plan has no root");
  }

  // Plans whose shape cannot chunk run the normal path; suspend triggers
  // are ignored and the reason is reported through the capture.
  auto fallback = [&](std::string why) -> Result<QueryResult> {
    capture->not_chunkable_reason = std::move(why);
    return ExecuteImpl(plan, stats, {}, nullptr);
  };

  const bool probed = plan.root_mode == AccessMode::kProbed;
  const bool probed_list = probed && !plan.positions.empty();
  const Span span = plan.output_span;

  SpineInfo spine;
  if (probed) {
    std::string why;
    if (!ProbedSafe(plan.root, &why)) return fallback(why);
    if (!probed_list) {
      if (span.IsEmpty()) return fallback("empty output span");
      if (span.IsUnbounded()) return fallback("unbounded output span");
    }
  } else {
    if (!plan.positions.empty()) {
      return fallback("point-position stream plan does not chunk");
    }
    if (span.IsEmpty()) return fallback("empty output span");
    if (span.IsUnbounded()) return fallback("unbounded output span");
    spine = AnalyzeSpine(plan.root);
    if (!spine.ok) return fallback(spine.reason);
  }

  // The chunk grid. A resumed run MUST reuse the original run's grid
  // (stored chunk length, boundaries derived from the ORIGINAL span and
  // snapped into the plan's alignment class): simulated-cost charges
  // accumulate in floating point per batch, so only an identical boundary
  // sequence reproduces an uninterrupted checkpointed run bit-for-bit.
  const int64_t chunk_len =
      ck.resume != nullptr && ck.resume->chunk_len > 0
          ? ck.resume->chunk_len
          : (ck.chunk > 0 ? ck.chunk : DefaultCheckpointChunk());

  std::vector<Position> starts;  // span grids (stream + probed span walk)
  size_t n_chunks;
  if (probed_list) {
    const int64_t n = static_cast<int64_t>(plan.positions.size());
    n_chunks = static_cast<size_t>((n + chunk_len - 1) / chunk_len);
  } else {
    starts.push_back(span.start);
    const int64_t len = span.Length();
    const int64_t grid_points = (len + chunk_len - 1) / chunk_len;
    for (int64_t k = 1; k < grid_points; ++k) {
      Position b = span.start + k * chunk_len;
      if (!probed && spine.modulus > 1) {
        b += Mod(spine.phase - b, spine.modulus);
      }
      if (b <= starts.back()) continue;
      if (b > span.end) break;
      starts.push_back(b);
    }
    n_chunks = starts.size();
  }

  // Seed the prefix from a prior checkpoint. The wall-clock budget is
  // armed fresh per run — a resumed query gets a full max_wall_ms again,
  // documented in docs/robustness.md.
  AccessStats total;
  QueryResult result;
  result.schema = plan.schema;
  std::string blob;
  size_t first_chunk = 0;
  if (ck.resume != nullptr) {
    ResumeState& rs = *ck.resume;
    if (rs.probed != probed) {
      return Status::FailedPrecondition(
          "checkpoint access mode does not match the re-planned query");
    }
    if (probed_list) {
      if (rs.next_index < 0 || rs.next_index % chunk_len != 0 ||
          rs.next_index / chunk_len >= static_cast<int64_t>(n_chunks)) {
        return Status::FailedPrecondition(
            "checkpoint resume index " + std::to_string(rs.next_index) +
            " does not lie on the chunk grid (chunk length " +
            std::to_string(chunk_len) + ")");
      }
      first_chunk = static_cast<size_t>(rs.next_index / chunk_len);
    } else {
      size_t found = n_chunks;
      for (size_t i = 0; i < n_chunks; ++i) {
        if (starts[i] == rs.watermark) {
          found = i;
          break;
        }
      }
      if (found == n_chunks) {
        return Status::FailedPrecondition(
            "checkpoint watermark " + std::to_string(rs.watermark) +
            " does not lie on the chunk grid of " + span.ToString() +
            " (chunk length " + std::to_string(chunk_len) + ")");
      }
      first_chunk = found;
    }
    total = rs.stats;
    result.records = std::move(rs.rows);
    blob = std::move(rs.op_state);
  }

  const Deadline deadline = QueryDeadline(options_.guards);

  const bool parallel_chunks = !probed && options_.parallelism > 1 &&
                               options_.use_batch &&
                               options_.fault_injector == nullptr;
  const int workers = std::max(options_.parallelism, 1);

  QueryTelemetry* telem = options_.telemetry;
  if (telem != nullptr) {
    telem->morsels_total.store(static_cast<int>(n_chunks),
                               std::memory_order_relaxed);
    telem->morsels_done.store(static_cast<int>(first_chunk),
                              std::memory_order_relaxed);
  }

  // One serial chunk: chunk-local rows and charges merge into the running
  // totals only when the chunk completes, so a failed or parked chunk
  // leaves the prefix exactly at the last boundary.
  auto run_chunk_serial = [&](size_t i) -> Status {
    std::vector<PosRecord> rows;
    AccessStats cs;
    // Rows and pages are whole-query budgets, enforced by the accounting
    // step below; the context keeps cancel, the shared deadline and the
    // cache budget.
    ExecContext ctx = UnitContext(&cs, deadline, /*split=*/true);

    const bool inject = !probed && i > 0 && !blob.empty();
    PhysNodePtr node = plan.root;
    DriveUnit unit;
    unit.mode = plan.root_mode;
    if (probed_list) {
      const size_t begin = i * static_cast<size_t>(chunk_len);
      const size_t len = std::min(static_cast<size_t>(chunk_len),
                                  plan.positions.size() - begin);
      unit.positions =
          std::span<const Position>(plan.positions).subspan(begin, len);
    } else {
      unit.emit = Span::Of(starts[i],
                           i + 1 < n_chunks ? starts[i + 1] - 1 : span.end);
    }
    if (!probed) {
      const Position clip_lo = i == 0 ? kMinPosition : unit.emit.start;
      const Position clip_hi = i + 1 == n_chunks ? kMaxPosition : unit.emit.end;
      // An injected chunk suppresses carry-in subtrees (state arrives from
      // the blob); an empty blob past chunk 0 — a checkpoint written by a
      // parallel run, or a stateless tree — rebuilds via carries instead.
      node = CloneForMorsel(plan.root, clip_lo, clip_hi,
                            /*with_carry=*/!inject);
    }
    SEQ_ASSIGN_OR_RETURN(SeqOpPtr root, Build(node, nullptr));
    SEQ_RETURN_IF_ERROR(root->Open(&ctx));
    if (inject) {
      OpStateReader reader(blob);
      if (!root->RestoreState(&reader) || !reader.Exhausted()) {
        root->Close();
        return Status::DataLoss(
            "checkpoint operator state does not match the plan shape");
      }
    }
    TelemetryReporter treport(telem, &cs);
    // Whole-query budgets against the running totals plus this chunk's
    // charges, in the serial CheckGuards order — so a checkpointed run
    // trips at exactly the same point, with the same status, as a plain
    // one.
    const Status guard_status = DriveRoot(
        *root, ctx, options_, unit, RowOut{&rows}, [&](int64_t n) -> Status {
          treport.Report(n);
          SEQ_RETURN_IF_ERROR(ctx.CheckGuards(0));  // cancel + deadline
          return options_.guards.CheckBudgets(
              total.stream_pages + total.probe_pages + cs.stream_pages +
                  cs.probe_pages,
              static_cast<int64_t>(result.records.size() + rows.size()));
        });

    // Save operator state BEFORE Close: the next serial chunk (and any
    // checkpoint written at the next boundary) restores from this blob.
    std::string new_blob;
    if (guard_status.ok() && !ctx.failed() && !probed) {
      OpStateWriter writer;
      root->SaveState(&writer);
      new_blob = writer.blob();
    }
    root->Close();
    SEQ_RETURN_IF_ERROR(ctx.TakeError());
    SEQ_RETURN_IF_ERROR(guard_status);

    total.Merge(cs);
    result.records.reserve(result.records.size() + rows.size());
    for (PosRecord& r : rows) result.records.push_back(std::move(r));
    blob = std::move(new_blob);
    return Status::OK();
  };

  // One parallel chunk: a mini morsel group over [starts[i], chunk end],
  // sub-split in the plan's alignment class and cloned DIRECTLY from the
  // original root — never from another clone, which would stack carry
  // subtrees onto already-carried aggregates. Admission is re-acquired
  // per chunk, so a checkpointed query naturally yields its slot between
  // chunks.
  auto run_chunk_parallel = [&](size_t i) -> Status {
    const Position lo = starts[i];
    const Position hi = i + 1 < n_chunks ? starts[i + 1] - 1 : span.end;
    std::vector<Position> sub;
    sub.push_back(lo);
    const int64_t clen = hi - lo + 1;
    const int64_t step = (clen + workers - 1) / workers;
    for (int64_t k = 1; k < workers; ++k) {
      Position b = lo + k * step;
      if (spine.modulus > 1) b += Mod(spine.phase - b, spine.modulus);
      if (b <= sub.back()) continue;
      if (b > hi) break;
      sub.push_back(b);
    }
    MorselPlan cmp;
    cmp.parallel = true;
    cmp.workers = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(workers), sub.size()));
    cmp.reason = "checkpoint chunk";
    cmp.morsels.reserve(sub.size());
    for (size_t k = 0; k < sub.size(); ++k) {
      const Position e = k + 1 < sub.size() ? sub[k + 1] - 1 : hi;
      cmp.morsels.push_back(Span::Of(sub[k], e));
    }

    ChunkExtras extras;
    extras.clip_lo = i == 0 ? kMinPosition : lo;
    extras.clip_hi = i + 1 == n_chunks ? kMaxPosition : hi;
    extras.base_rows = static_cast<int64_t>(result.records.size());
    extras.base_pages = total.stream_pages + total.probe_pages;
    extras.deadline = deadline;

    AccessStats cs;
    Result<QueryResult> r =
        ExecuteMorsels(plan, cmp, &cs, nullptr, &extras);
    if (!r.ok()) return r.status();
    total.Merge(cs);
    QueryResult& qr = r.value();
    result.records.reserve(result.records.size() + qr.records.size());
    for (PosRecord& pr : qr.records) result.records.push_back(std::move(pr));
    // Carries rebuild state at the next chunk; a blob from an earlier
    // serial run is stale relative to the advancing watermark.
    blob.clear();
    return Status::OK();
  };

  // Suspend triggers are polled at chunk boundaries only, and never
  // before the first chunk of a run — every run makes progress, so a
  // suspend/resume chain always terminates.
  auto want_suspend = [&](size_t i) -> std::optional<SuspendReason> {
    if (i <= first_chunk) return std::nullopt;
    if (ck.request != nullptr &&
        ck.request->load(std::memory_order_acquire)) {
      return SuspendReason::kUser;
    }
    if (ck.preempt != nullptr &&
        ck.preempt->load(std::memory_order_acquire)) {
      return SuspendReason::kScheduler;
    }
    if (ck.suspend_every_chunks > 0 &&
        static_cast<int64_t>(i - first_chunk) % ck.suspend_every_chunks ==
            0) {
      return SuspendReason::kUser;
    }
    return std::nullopt;
  };

  auto fill_capture = [&](size_t i, SuspendReason reason) {
    capture->suspended = true;
    capture->reason = reason;
    capture->probed = probed;
    capture->watermark = probed_list ? 0 : starts[i];
    capture->next_index = probed_list ? static_cast<int64_t>(i) * chunk_len : 0;
    capture->chunks_done = static_cast<int64_t>(i);
    capture->chunk_len = chunk_len;
    capture->op_state = blob;
    capture->rows = std::move(result.records);
    capture->stats = total;
  };

  for (size_t i = first_chunk; i < n_chunks; ++i) {
    if (std::optional<SuspendReason> why = want_suspend(i)) {
      fill_capture(i, *why);
      QueryResult suspended;
      suspended.schema = plan.schema;
      return suspended;
    }
    Status s = parallel_chunks ? run_chunk_parallel(i) : run_chunk_serial(i);
    if (!s.ok()) {
      if (ck.park_on_cache_budget && IsCacheBudgetExceeded(s)) {
        // The tripping chunk's rows and charges were discarded above;
        // park the query at its boundary instead of degrading.
        fill_capture(i, SuspendReason::kCacheBudget);
        QueryResult parked;
        parked.schema = plan.schema;
        return parked;
      }
      return s;
    }
    if (telem != nullptr) {
      telem->morsels_done.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (stats != nullptr) stats->Merge(total);
  return result;
}

std::string QueryResult::ToString(size_t limit) const {
  std::ostringstream oss;
  size_t shown = std::min(limit, records.size());
  for (size_t i = 0; i < shown; ++i) {
    oss << PosRecordToString(records[i], *schema) << "\n";
  }
  if (records.size() > shown) {
    oss << "... (" << records.size() << " records total)\n";
  }
  return oss.str();
}

Result<QueryResult> RunCacheFree(const Catalog& catalog, const Query& query,
                                 OptimizerOptions options,
                                 const ExecOptions& exec, AccessStats* stats,
                                 QueryProfile* profile, MorselPlan* morsels) {
  options.cost_params.disable_window_cache = true;
  options.cost_params.disable_incremental_value_offset = true;
  Optimizer optimizer(catalog, options);
  SEQ_ASSIGN_OR_RETURN(PhysicalPlan plan, optimizer.Optimize(query));
  Executor executor(catalog, options.cost_params, exec);
  if (morsels != nullptr) *morsels = executor.PlanMorsels(plan);
  Result<QueryResult> result = executor.Execute(plan, stats, {}, profile);
  if (profile != nullptr) profile->optimizer = optimizer.trace();
  return result;
}

}  // namespace seq
