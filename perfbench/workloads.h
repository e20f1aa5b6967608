#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four closed-loop workloads and the program start-up each one times.
// Every query request goes Session::Prepare -> ExecutePrepared ->
// CloseStatement; Session::Execute would keep each `q = ...;` as a session
// view and fail the second request with "already defined".

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "inputs.h"
#include "storage/access_stats.h"
#include "tracing.h"

namespace perfbench {

struct Spec {
  const char* name;
  int clients;      ///< closed-loop client threads
  int parallelism;  ///< per-query morsel share cap
  /// Sizes the measured stream: rate x --seconds operations, a fixed
  /// count, so per-operation counts repeat exactly.
  double ops_per_second;
  size_t warmup_ops;  ///< per client, untimed, before the measured ops
};

/// nullptr for an unknown name.
const Spec* FindSpec(const std::string& name);

/// Measured operations of one run of `spec` (at least 1000, so that the
/// p99 has ten samples beyond it).
size_t MeasuredOps(const Spec& spec, int seconds);

/// Event records each ingest stream needs for a run of `seconds`.
int64_t IngestEventsNeeded(int seconds);

/// The ingest event stream, read from the cached input set.
struct IngestInput {
  seq::SchemaPtr schema;
  std::vector<seq::PosRecord> events[2];
};
seq::Result<IngestInput> LoadIngestInput(const InputPaths& paths);

/// What one client operation produced. Query answers are handed back in
/// `answer`, so digesting and freeing them stays outside the timed call;
/// an ingest operation digests its (small) poll results itself.
struct OpOutcome {
  bool ok = false;
  std::string error;
  std::vector<seq::PosRecord> answer;
  uint64_t digest = 0;
  uint64_t stable_digest = 0;
  uint64_t rows = 0;
  seq::AccessStats stats;
};

/// An answer kept for the check: request `index` of client `client`.
struct AnswerSample {
  int client = 0;
  size_t index = 0;
  const Request* request = nullptr;
  std::vector<seq::PosRecord> rows;
};

/// Which measured requests of one client keep their answers for the check:
/// evenly spaced ones plus the first large served results.
std::vector<size_t> SampleIndices(const std::vector<Request>& measured);

/// One start-up of the program under test, serving client operations.
class Instance {
 public:
  virtual ~Instance() = default;

  /// Runs `req` as client `client`. With `log`, each call into a layer is
  /// timed as a span of request `request_id`.
  virtual OpOutcome Op(int client, const Request& req, uint64_t request_id,
                       SpanLog* log) = 0;

  /// Answer check, outside timed regions: compares each sampled answer
  /// (at most 512 positions of it) with the reference evaluator and, for
  /// served requests, with the same request run on a local session.
  /// Returns the number of mismatching operations; describes each in
  /// `notes`.
  virtual size_t CheckAnswers(const std::vector<AnswerSample>& samples,
                              uint64_t seed,
                              std::vector<std::string>* notes) = 0;
};

/// Timings of one start-up.
struct StartupTimes {
  double total_s = 0.0;
  double load_s = 0.0;  ///< LoadDatabase alone
};

/// Starts `spec`'s program: loads the database, then starts the server
/// (serve) or registers the live sequences and standing queries (ingest).
/// With `log`, LoadDatabase is recorded as a span.
seq::Result<std::unique_ptr<Instance>> StartInstance(
    const Spec& spec, const InputPaths& paths, const IngestInput* ingest,
    StartupTimes* times, SpanLog* log);

/// Per-client request streams of a run: warm-up and measured.
struct Streams {
  std::vector<std::vector<Request>> warmup;
  std::vector<std::vector<Request>> measured;
};

/// Draws the streams for `spec` from `seed`.
Streams MakeStreams(const Spec& spec, uint64_t seed, size_t measured_ops);

/// Order-sensitive digest of answer rows: positions and values. With
/// `exact_doubles` a double contributes its exact bits, for comparisons
/// within one run of one build. Without, doubles contribute only their
/// presence: a change that reorders a floating-point sum, within the
/// tolerance the reference check allows, then keeps the digest, so it can
/// be compared with runs of other builds.
uint64_t DigestRows(const std::vector<seq::PosRecord>& rows, uint64_t digest,
                    bool exact_doubles);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
