#include "exec/stream_session.h"

#include <algorithm>
#include <optional>

#include "exec/checkpoint.h"
#include "logical/scope.h"
#include "obs/metrics.h"
#include "optimizer/plan_template.h"
#include "parser/parser.h"
#include "parser/unparse.h"
#include "storage/checkpoint_file.h"

namespace seq {

namespace {
/// OpState tag framing the session's own durable state in the checkpoint
/// blob (degradation flag + replay horizon; the frontier itself travels in
/// the image's watermark field).
constexpr uint8_t kStreamSessionStateTag = 0x5C;
}  // namespace

StreamSession::StreamSession(const Catalog* catalog, LogicalOpPtr graph,
                             OptimizerOptions options, int64_t max_lookback,
                             ExecOptions exec_options)
    : catalog_(catalog),
      graph_(std::move(graph)),
      options_(std::move(options)),
      exec_options_(exec_options),
      max_lookback_(max_lookback) {
  // Derive the replay window from the query's composed scope over its
  // leaves (Prop. 2.1): the farthest look-back of any bounded scope. The
  // evaluation itself is driven by exact required-span propagation, so
  // this is reported for sizing/monitoring; unbounded-scope operators are
  // capped at max_lookback for reporting purposes.
  int64_t lookback = 0;
  for (const ScopeSpec& scope : graph_->QueryScopeOverLeaves()) {
    if (scope.bounded_below) {
      lookback = std::max(lookback, -std::min<int64_t>(scope.min_offset, 0));
    } else {
      lookback = std::max(lookback, max_lookback);
    }
    if (scope.bounded_above) {
      // A positive scope offset means output can precede the input data
      // (e.g. positional offset +k); widen the first poll accordingly.
      lead_ = std::max(lead_, std::max<int64_t>(scope.max_offset, 0));
    }
  }
  lookback_ = lookback;
}

Status StreamSession::Append(const std::string& sequence, Position pos,
                             Record record) {
  SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                       catalog_->Lookup(sequence));
  if (entry->kind != CatalogEntry::Kind::kBase) {
    return Status::InvalidArgument("'" + sequence +
                                   "' is not a base sequence");
  }
  return entry->store->Append(pos, std::move(record));
}

Result<std::vector<PosRecord>> StreamSession::Poll(AccessStats* stats) {
  // The frontier: output positions are complete once every base input has
  // advanced past them (a record arriving later at an earlier position is
  // rejected by the store's ordering invariant anyway).
  std::vector<const LogicalOp*> leaves;
  graph_->CollectLeaves(&leaves);
  Position frontier = kMaxPosition;
  Position earliest = kMaxPosition;
  bool any_base = false;
  for (const LogicalOp* leaf : leaves) {
    if (leaf->kind() != OpKind::kBaseRef) continue;
    any_base = true;
    SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                         catalog_->Lookup(leaf->seq_name()));
    Span span = entry->store->span();
    if (span.IsEmpty()) return std::vector<PosRecord>{};
    frontier = std::min(frontier, span.end);
    earliest = std::min(earliest, span.start);
  }
  if (!any_base) {
    return Status::InvalidArgument("standing query has no base inputs");
  }
  Position from = (high_water_ == kMinPosition) ? earliest - lead_
                                                : high_water_ + 1;
  if (from > frontier) return std::vector<PosRecord>{};

  Query query;
  query.graph = graph_;
  query.range = Span::Of(from, frontier);
  // Each attempt charges into local stats, so a degraded retry does not
  // leak the aborted attempt's counters into the caller's totals.
  AccessStats attempt_stats;
  AccessStats* attempt = stats != nullptr ? &attempt_stats : nullptr;
  std::optional<Result<QueryResult>> result;
  if (!degraded_) {
    Optimizer optimizer(*catalog_, options_);
    SEQ_ASSIGN_OR_RETURN(PhysicalPlan plan, optimizer.Optimize(query));
    result = Executor(*catalog_, options_.cost_params, exec_options_)
                 .Execute(plan, attempt);
    if (!result->ok() && IsCacheBudgetExceeded(result->status())) {
      // Graceful degradation: re-plan this poll (and all later ones) with
      // operator caches disabled instead of failing the standing query —
      // the cache that blew the budget would blow it again on every later
      // poll. The high-water mark has not advanced, so no answers are lost.
      // Counted once per latch, as Engine::Run counts a degraded run.
      degraded_ = true;
      MetricsRegistry::Global().Add("engine.cache_degradations");
      result.reset();
      attempt_stats.Reset();
    }
  }
  if (!result.has_value()) {
    result = RunCacheFree(*catalog_, query, options_, exec_options_, attempt);
  }
  SEQ_RETURN_IF_ERROR(result->status());
  if (stats != nullptr) *stats += attempt_stats;
  high_water_ = frontier;
  return std::move(result->value().records);
}

Status StreamSession::Suspend(const std::string& checkpoint_path) const {
  CheckpointImage image;
  image.catalog_version = catalog_->version();
  image.options_fingerprint = FingerprintOptimizerOptions(options_);
  Query shape;
  shape.graph = graph_;
  image.plan_signature = ParameterizeQuery(shape).signature;
  SEQ_ASSIGN_OR_RETURN(image.query_text, UnparseQuery(*graph_));
  image.watermark = high_water_;
  OpStateWriter writer;
  writer.Tag(kStreamSessionStateTag);
  writer.U8(degraded_ ? 1 : 0);
  writer.I64(max_lookback_);
  image.op_state = writer.blob();
  return SaveCheckpoint(image, checkpoint_path);
}

Result<StreamSession> StreamSession::Resume(const Catalog* catalog,
                                            const std::string& checkpoint_path,
                                            OptimizerOptions options,
                                            ExecOptions exec_options) {
  SEQ_ASSIGN_OR_RETURN(CheckpointImage image,
                       LoadCheckpoint(checkpoint_path));
  if (image.catalog_version != catalog->version()) {
    return Status::FailedPrecondition(
        "checkpoint '" + checkpoint_path + "' is stale: catalog version " +
        std::to_string(image.catalog_version) + " at suspend, " +
        std::to_string(catalog->version()) + " now");
  }
  const std::string fingerprint = FingerprintOptimizerOptions(options);
  if (image.options_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "checkpoint '" + checkpoint_path +
        "' is stale: optimizer-options fingerprint " +
        image.options_fingerprint + " at suspend, " + fingerprint + " now");
  }
  Result<ParsedProgram> program = ParseSequin(image.query_text);
  if (!program.ok() || program.value().main == nullptr) {
    return Status::DataLoss("checkpoint '" + checkpoint_path +
                            "' carries an unparseable query: " +
                            (program.ok() ? "no main statement"
                                          : program.status().message()));
  }
  Query shape;
  shape.graph = program.value().main;
  if (ParameterizeQuery(shape).signature != image.plan_signature) {
    return Status::FailedPrecondition(
        "checkpoint '" + checkpoint_path +
        "' is stale: plan signature does not match the re-parsed query");
  }
  OpStateReader reader(image.op_state);
  uint8_t degraded = 0;
  int64_t max_lookback = 0;
  if (!reader.Tag(kStreamSessionStateTag) || !reader.U8(&degraded) ||
      !reader.I64(&max_lookback) || !reader.Exhausted()) {
    return Status::DataLoss("checkpoint '" + checkpoint_path +
                            "': corrupt stream-session state");
  }
  StreamSession session(catalog, program.value().main, std::move(options),
                        max_lookback, exec_options);
  session.high_water_ = image.watermark;
  session.degraded_ = degraded != 0;
  return session;
}

}  // namespace seq
