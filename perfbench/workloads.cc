#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "core/database_io.h"
#include "core/session.h"
#include "exec/stream_session.h"
#include "net/remote_session.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "tests/reference_eval.h"

namespace perfbench {

using seq::Engine;
using seq::PosRecord;
using seq::Result;
using seq::Span;
using seq::Status;

namespace {

// Rates only size the fixed operation count. At --seconds 10 on a 4-core
// host the measured operations take about 9 s (lookup), 12 s (scan), 17 s
// (serve, twice the others' work because its latency swings most with the
// host) and 6 s (ingest).
constexpr Spec kSpecs[] = {
    {"lookup", 1, 1, 20000.0, 2000},
    {"scan", 1, 2, 400.0, 32},
    {"serve", 2, 1, 16000.0, 500},
    {"ingest", 1, 1, 100.0, 16},
};

/// Sampled answers checked against the reference per client and phase.
constexpr size_t kChecksPerClient = 12;
/// Positions compared per sampled answer.
constexpr seq::Position kCheckWidth = 512;

const char* const kLive[] = {"live0", "live1"};

/// Standing queries of `ingest`: each reads live sequences, one also the
/// stored history. The selections are what make every Poll look up
/// column statistics of a live store that the last Append invalidated.
/// They select on volume, which is uniform, so the share of passing rows
/// does not depend on where a seed's random-walk prices wander.
const char* const kStandingQueries[] = {
    "q = avg(select(live0, volume > 50000), close, over 20);",
    "q = max(select(live1, volume > 50000), high, over 10);",
    "q = compose(live1, s1, left.volume > right.volume);",
};

/// Times one layer call into `log` when tracing; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer,
             uint64_t request, int parent = -1)
      : log_(log),
        index_(log != nullptr ? log->Begin(name, layer, request, parent)
                              : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (log_ != nullptr && index_ >= 0) log_->End(index_);
    log_ = nullptr;
  }
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

uint64_t MixWord(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h ^ (h >> 29);
}

/// Inlines program-local definitions into the main expression, as
/// LocalSession::Prepare does, and applies the request range.
Result<seq::Query> InlineProgram(seq::ParsedProgram& program, Span range) {
  if (program.main == nullptr) {
    return Status::InvalidArgument("request has no main expression");
  }
  seq::ViewMap combined;
  for (const std::string& name : program.order) {
    SEQ_ASSIGN_OR_RETURN(
        seq::LogicalOpPtr inlined,
        seq::InlineViews(program.definitions[name], combined));
    combined[name] = std::move(inlined);
  }
  seq::Query query;
  SEQ_ASSIGN_OR_RETURN(query.graph, seq::InlineViews(program.main, combined));
  query.range = range;
  return query;
}

Result<seq::Query> BuildQuery(const Request& req) {
  SEQ_ASSIGN_OR_RETURN(seq::ParsedProgram program, seq::ParseSequin(req.text));
  return InlineProgram(program, req.range);
}

/// Exact for non-doubles; doubles within 1e-6 relative (the reference
/// sums windows naively, the engine incrementally).
bool SameRows(const std::vector<PosRecord>& got,
              const std::vector<PosRecord>& want, std::string* why) {
  if (got.size() != want.size()) {
    *why = std::to_string(got.size()) + " rows where " +
           std::to_string(want.size()) + " were expected";
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const PosRecord& a = got[i];
    const PosRecord& b = want[i];
    bool same = a.pos == b.pos && a.rec.size() == b.rec.size();
    for (size_t j = 0; same && j < a.rec.size(); ++j) {
      const seq::Value& va = a.rec[j];
      const seq::Value& vb = b.rec[j];
      if (va.type() == seq::TypeId::kDouble ||
          vb.type() == seq::TypeId::kDouble) {
        same = std::abs(va.AsDouble() - vb.AsDouble()) <=
               1e-6 * (1.0 + std::abs(vb.AsDouble()));
      } else {
        same = va.Compare(vb) == 0;
      }
    }
    if (!same) {
      *why = "row " + std::to_string(i) + " at position " +
             std::to_string(a.pos) + " differs";
      return false;
    }
  }
  return true;
}

std::vector<PosRecord> RowsIn(const std::vector<PosRecord>& rows, Span span) {
  std::vector<PosRecord> out;
  for (const PosRecord& r : rows) {
    if (span.Contains(r.pos)) out.push_back(r);
  }
  return out;
}

/// Compares `rows` inside `window` with the reference evaluation of
/// `graph` there.
bool MatchesReference(const seq::Catalog& catalog, const seq::LogicalOp& graph,
                      const std::vector<PosRecord>& rows, Span window,
                      Span horizon, std::string* why) {
  seq::testing::ReferenceEvaluator reference(&catalog, horizon);
  Result<std::vector<PosRecord>> want = reference.Materialize(graph, window);
  if (!want.ok()) {
    *why = "reference failed: " + want.status().ToString();
    return false;
  }
  return SameRows(RowsIn(rows, window), *want, why);
}

/// One query request through the client surface: Prepare,
/// ExecutePrepared, CloseStatement. Traced, each call is a `net` span
/// (only served sessions are traced this way).
OpOutcome SessionOp(seq::Session& session, const Request& req,
                    uint64_t request_id, SpanLog* log) {
  OpOutcome out;
  ScopedSpan root(log, "request", "bench", request_id);
  session.range() = req.range;
  Result<uint64_t> statement = [&] {
    ScopedSpan span(log, "RemoteSession::Prepare", "net", request_id,
                    root.index());
    return session.Prepare(req.text);
  }();
  if (!statement.ok()) {
    out.error = statement.status().ToString();
    return out;
  }
  Result<seq::ExecuteReply> reply = [&] {
    ScopedSpan span(log, "RemoteSession::ExecutePrepared", "net", request_id,
                    root.index());
    return session.ExecutePrepared(*statement);
  }();
  Status closed = [&] {
    ScopedSpan span(log, "RemoteSession::CloseStatement", "net", request_id,
                    root.index());
    return session.CloseStatement(*statement);
  }();
  if (!reply.ok()) {
    out.error = reply.status().ToString();
    return out;
  }
  if (!closed.ok()) {
    out.error = closed.ToString();
    return out;
  }
  out.ok = true;
  out.rows = reply->rows.size();
  out.stats = reply->stats;
  out.answer = std::move(reply->rows);
  return out;
}

/// The traced form of a local request: the layer functions Session::Prepare
/// and ExecutePrepared call, each timed. Engine::Prepare is attributed to
/// `core` when the plan cache answered it and to `optimizer` otherwise.
OpOutcome TracedLocalOp(const Engine& engine, const seq::ExecOptions& exec,
                        const Request& req, uint64_t request_id,
                        SpanLog* log) {
  static seq::MetricCounter& hits =
      seq::MetricsRegistry::Global().Counter("engine.plan_cache.hits");
  OpOutcome out;
  ScopedSpan root(log, "request", "bench", request_id);
  Result<seq::ParsedProgram> program = [&] {
    ScopedSpan span(log, "ParseSequin", "parser", request_id, root.index());
    return seq::ParseSequin(req.text);
  }();
  if (!program.ok()) {
    out.error = program.status().ToString();
    return out;
  }
  Result<seq::Query> query = [&] {
    ScopedSpan span(log, "InlineViews", "core", request_id, root.index());
    return InlineProgram(*program, req.range);
  }();
  if (!query.ok()) {
    out.error = query.status().ToString();
    return out;
  }
  const int64_t hits_before = hits.Value();
  ScopedSpan prepare_span(log, "Engine::Prepare", "optimizer", request_id,
                          root.index());
  Result<Engine::PreparedQuery> prepared = engine.Prepare(*query);
  prepare_span.End();
  if (hits.Value() > hits_before) log->SetLayer(prepare_span.index(), "core");
  if (!prepared.ok()) {
    out.error = prepared.status().ToString();
    return out;
  }
  seq::RunOptions opts;
  opts.exec = exec;
  opts.stats = &out.stats;
  Result<seq::QueryResult> result = [&] {
    ScopedSpan span(log, "PreparedQuery::Run", "exec", request_id,
                    root.index());
    return prepared->Run(opts);
  }();
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.rows = result->records.size();
  out.answer = std::move(result->records);
  return out;
}

/// Lookup, scan and serve: sampled answers are compared with the reference
/// evaluator and, when served, with a local session's answer.
class QueryInstance : public Instance {
 public:
  size_t CheckAnswers(const std::vector<AnswerSample>& samples, uint64_t seed,
                      std::vector<std::string>* notes) override {
    const Span horizon = Span::Of(0, kSeriesEnd + 1);
    seq::Rng rng(MixSeed(seed, 500));
    size_t mismatches = 0;
    for (const AnswerSample& sample : samples) {
      const Request& req = *sample.request;
      auto fail = [&](const std::string& why) {
        ++mismatches;
        notes->push_back("client " + std::to_string(sample.client) + " op " +
                         std::to_string(sample.index) + " (" + req.text +
                         "): " + why);
      };
      std::string why;
      if (seq::LocalSession* local = parity_session()) {
        OpOutcome again = SessionOp(*local, req, 0, nullptr);
        if (!again.ok) {
          fail("local run failed: " + again.error);
          continue;
        }
        if (!SameRows(sample.rows, again.answer, &why)) {
          fail("served answer differs from the local session: " + why);
          continue;
        }
      }
      Result<seq::Query> query = BuildQuery(req);
      if (!query.ok()) {
        fail(query.status().ToString());
        continue;
      }
      const int64_t width = std::min<int64_t>(kCheckWidth, req.range.Length());
      const int64_t start =
          req.range.start + rng.UniformInt(0, req.range.Length() - width);
      if (!MatchesReference(engine().catalog(), *query->graph, sample.rows,
                            Span::Of(start, start + width - 1), horizon,
                            &why)) {
        fail(why);
      }
    }
    return mismatches;
  }

 protected:
  /// The engine serving the requests.
  virtual Engine& engine() = 0;
  /// A local session on the serving engine when requests arrive remotely;
  /// null when they are already local.
  virtual seq::LocalSession* parity_session() { return nullptr; }
};

class LocalInstance final : public QueryInstance {
 public:
  explicit LocalInstance(int parallelism) {
    session_.options().exec.parallelism = parallelism;
    session_.options().exec.use_batch = true;
    session_.set_collect_stats(true);
  }

  Engine& engine() override { return session_.engine(); }

  OpOutcome Op(int, const Request& req, uint64_t request_id,
               SpanLog* log) override {
    if (log == nullptr) return SessionOp(session_, req, request_id, nullptr);
    return TracedLocalOp(session_.engine(), session_.options().exec, req,
                         request_id, log);
  }

 private:
  seq::LocalSession session_;
};

class ServeInstance final : public QueryInstance {
 public:
  ServeInstance() = default;
  ServeInstance(const ServeInstance&) = delete;
  ServeInstance& operator=(const ServeInstance&) = delete;
  ~ServeInstance() override {
    for (auto& client : clients_) client->Close();
    clients_.clear();
    server_.Stop();
  }

  Engine& engine() override { return server_.engine(); }

  Status Start(int clients, int parallelism) {
    SEQ_ASSIGN_OR_RETURN(int port, server_.Start("127.0.0.1", 0));
    for (int c = 0; c < clients; ++c) {
      SEQ_ASSIGN_OR_RETURN(std::unique_ptr<seq::RemoteSession> session,
                           seq::RemoteSession::Connect("127.0.0.1", port));
      session->options().exec.parallelism = parallelism;
      session->options().exec.use_batch = true;
      session->set_collect_stats(true);
      clients_.push_back(std::move(session));
    }
    local_ = std::make_unique<seq::LocalSession>(&server_.engine(),
                                                 &server_.gate());
    local_->options() = clients_[0]->options();
    local_->set_collect_stats(true);
    return Status::OK();
  }

  OpOutcome Op(int client, const Request& req, uint64_t request_id,
               SpanLog* log) override {
    return SessionOp(*clients_[static_cast<size_t>(client)], req, request_id,
                     log);
  }

 protected:
  seq::LocalSession* parity_session() override { return local_.get(); }

 private:
  seq::SeqServer server_;
  std::vector<std::unique_ptr<seq::RemoteSession>> clients_;
  std::unique_ptr<seq::LocalSession> local_;
};

class IngestInstance final : public Instance {
 public:
  explicit IngestInstance(const IngestInput* input) : input_(input) {}

  Engine& engine() { return engine_; }

  /// Registers the empty live sequences and the standing queries.
  Status RegisterStandingQueries(int parallelism) {
    for (const char* name : kLive) {
      SEQ_RETURN_IF_ERROR(engine_.RegisterBase(
          name, std::make_shared<seq::BaseSequenceStore>(input_->schema)));
    }
    seq::ExecOptions exec;
    exec.parallelism = parallelism;
    exec.use_batch = true;
    for (const char* text : kStandingQueries) {
      SEQ_ASSIGN_OR_RETURN(seq::LogicalOpPtr graph,
                           seq::ParseSequinQuery(text));
      queries_.emplace_back(&engine_.catalog(), graph, seq::OptimizerOptions{},
                            1024, exec);
      graphs_.push_back(std::move(graph));
    }
    outputs_.resize(queries_.size());
    return Status::OK();
  }

  OpOutcome Op(int, const Request& req, uint64_t request_id,
               SpanLog* log) override {
    OpOutcome out;
    ScopedSpan root(log, "batch", "bench", request_id);
    const size_t begin = static_cast<size_t>(req.batch) * kIngestBatch;
    // Append writes through to the catalog's store, which every standing
    // query reads, so the first session's Append serves them all.
    for (int l = 0; l < 2; ++l) {
      ScopedSpan span(log, "StreamSession::Append", "exec", request_id,
                      root.index());
      const std::vector<PosRecord>& events = input_->events[l];
      for (size_t i = begin; i < begin + kIngestBatch; ++i) {
        Status s = queries_[0].Append(kLive[l], events[i].pos, events[i].rec);
        if (!s.ok()) {
          out.error = s.ToString();
          return out;
        }
      }
    }
    if (log != nullptr) {
      // Traced only: refresh the live stores' column statistics before
      // the polls, so their cost shows apart from the Poll itself.
      ScopedSpan span(log, "BaseSequenceStore::column_stats", "storage",
                      request_id, root.index());
      for (const char* name : kLive) {
        (*engine_.catalog().Lookup(name))->store->column_stats();
      }
    }
    for (size_t q = 0; q < queries_.size(); ++q) {
      Result<std::vector<PosRecord>> rows = [&] {
        ScopedSpan span(log, "StreamSession::Poll", "exec", request_id,
                        root.index());
        return queries_[q].Poll(&out.stats);
      }();
      if (!rows.ok()) {
        out.error = rows.status().ToString();
        return out;
      }
      out.rows += rows->size();
      out.digest = DigestRows(*rows, out.digest, /*exact_doubles=*/true);
      out.stable_digest =
          DigestRows(*rows, out.stable_digest, /*exact_doubles=*/false);
      std::move(rows->begin(), rows->end(), std::back_inserter(outputs_[q]));
    }
    out.ok = true;
    return out;
  }

  /// The standing queries' answers so far, over a window of each, against
  /// the reference evaluator on the final live stores.
  size_t CheckAnswers(const std::vector<AnswerSample>&, uint64_t seed,
                      std::vector<std::string>* notes) override {
    seq::Position done = seq::kMaxPosition;
    for (const seq::StreamSession& q : queries_) {
      done = std::min(done, q.high_water_mark());
    }
    seq::Rng rng(MixSeed(seed, 600));
    size_t mismatches = 0;
    for (size_t q = 0; q < queries_.size(); ++q) {
      const int64_t start =
          rng.UniformInt(1, std::max<int64_t>(1, done - kCheckWidth + 1));
      const Span window =
          Span::Of(start, std::min(done, start + kCheckWidth - 1));
      std::string why;
      if (!MatchesReference(engine_.catalog(), *graphs_[q], outputs_[q],
                            window, Span::Of(0, done + 1), &why)) {
        ++mismatches;
        notes->push_back(std::string("standing query ") +
                         kStandingQueries[q] + ": " + why);
      }
    }
    return mismatches;
  }

 private:
  const IngestInput* input_;
  Engine engine_;
  std::vector<seq::StreamSession> queries_;
  std::vector<seq::LogicalOpPtr> graphs_;
  std::vector<std::vector<PosRecord>> outputs_;
};

/// Loads the database into `engine`, timed (and traced) as core.load.
Status TimedLoad(const std::string& db, Engine* engine, StartupTimes* times,
                 SpanLog* log) {
  const int64_t start = NowNs();
  {
    ScopedSpan span(log, "LoadDatabase", "core", 0);
    SEQ_RETURN_IF_ERROR(seq::LoadDatabase(db, engine));
  }
  times->load_s = static_cast<double>(NowNs() - start) / 1e9;
  return Status::OK();
}

}  // namespace

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

size_t MeasuredOps(const Spec& spec, int seconds) {
  size_t ops = std::max<size_t>(
      1000, static_cast<size_t>(std::llround(spec.ops_per_second * seconds)));
  const size_t clients = static_cast<size_t>(spec.clients);
  return (ops + clients - 1) / clients * clients;
}

int64_t IngestEventsNeeded(int seconds) {
  const Spec& ingest = *FindSpec("ingest");
  return static_cast<int64_t>(MeasuredOps(ingest, seconds) +
                              ingest.warmup_ops) *
         kIngestBatch;
}

Result<IngestInput> LoadIngestInput(const InputPaths& paths) {
  Engine events;
  SEQ_RETURN_IF_ERROR(seq::LoadDatabase(paths.events, &events));
  IngestInput input;
  for (int l = 0; l < 2; ++l) {
    SEQ_ASSIGN_OR_RETURN(const seq::CatalogEntry* entry,
                         events.catalog().Lookup("ev" + std::to_string(l)));
    input.events[l] = entry->store->records();
    input.schema = entry->store->schema();
  }
  return input;
}

Result<std::unique_ptr<Instance>> StartInstance(const Spec& spec,
                                                const InputPaths& paths,
                                                const IngestInput* ingest,
                                                StartupTimes* times,
                                                SpanLog* log) {
  const int64_t start = NowNs();
  std::unique_ptr<Instance> instance;
  const std::string name = spec.name;
  if (name == "serve") {
    auto serve = std::make_unique<ServeInstance>();
    SEQ_RETURN_IF_ERROR(
        TimedLoad(paths.db, &serve->engine(), times, log));
    SEQ_RETURN_IF_ERROR(serve->Start(spec.clients, spec.parallelism));
    instance = std::move(serve);
  } else if (name == "ingest") {
    auto live = std::make_unique<IngestInstance>(ingest);
    SEQ_RETURN_IF_ERROR(
        TimedLoad(paths.db, &live->engine(), times, log));
    SEQ_RETURN_IF_ERROR(live->RegisterStandingQueries(spec.parallelism));
    instance = std::move(live);
  } else {
    auto local = std::make_unique<LocalInstance>(spec.parallelism);
    SEQ_RETURN_IF_ERROR(
        TimedLoad(paths.db, &local->engine(), times, log));
    instance = std::move(local);
  }
  times->total_s = static_cast<double>(NowNs() - start) / 1e9;
  return instance;
}

Streams MakeStreams(const Spec& spec, uint64_t seed, size_t measured_ops) {
  Streams streams;
  const std::string name = spec.name;
  const size_t per_client = measured_ops / static_cast<size_t>(spec.clients);
  for (int c = 0; c < spec.clients; ++c) {
    // Streams 2c and 2c+1: one client's warm-up and measured requests.
    const uint64_t warm = 2 * static_cast<uint64_t>(c);
    if (name == "lookup" || name == "serve") {
      const double big_share = name == "serve" ? 0.1 : 0.0;
      streams.warmup.push_back(
          LookupStream(seed, warm, spec.warmup_ops, big_share));
      streams.measured.push_back(
          LookupStream(seed, warm + 1, per_client, big_share));
    } else if (name == "scan") {
      streams.warmup.push_back(ScanStream(seed, warm, spec.warmup_ops));
      streams.measured.push_back(ScanStream(seed, warm + 1, per_client));
    } else {
      // Ingest appends batch after batch; warm-up is the first batches.
      std::vector<Request> warmup(spec.warmup_ops);
      std::vector<Request> measured(per_client);
      int64_t batch = 0;
      for (Request& r : warmup) r.batch = batch++;
      for (Request& r : measured) r.batch = batch++;
      streams.warmup.push_back(std::move(warmup));
      streams.measured.push_back(std::move(measured));
    }
  }
  return streams;
}

std::vector<size_t> SampleIndices(const std::vector<Request>& measured) {
  std::vector<size_t> picks;
  for (size_t k = 0; k < kChecksPerClient && k < measured.size(); ++k) {
    picks.push_back(k * measured.size() / kChecksPerClient);
  }
  for (size_t i = 0, big = 0; i < measured.size() && big < 2; ++i) {
    if (measured[i].big) {
      picks.push_back(i);
      ++big;
    }
  }
  std::sort(picks.begin(), picks.end());
  picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
  return picks;
}

uint64_t DigestRows(const std::vector<PosRecord>& rows, uint64_t digest,
                    bool exact_doubles) {
  uint64_t h = MixWord(digest, 0xcbf29ce484222325ULL ^ rows.size());
  for (const PosRecord& r : rows) {
    h = MixWord(h, static_cast<uint64_t>(r.pos));
    for (const seq::Value& v : r.rec) {
      uint64_t bits = 0;
      switch (v.type()) {
        case seq::TypeId::kInt64:
          bits = static_cast<uint64_t>(v.int64());
          break;
        case seq::TypeId::kDouble:
          if (exact_doubles) {
            const double d = v.dbl();
            std::memcpy(&bits, &d, sizeof(bits));
          }
          break;
        case seq::TypeId::kBool:
          bits = v.boolean() ? 1 : 0;
          break;
        case seq::TypeId::kString:
          for (char ch : v.str()) h = MixWord(h, static_cast<uint8_t>(ch));
          bits = v.str().size();
          break;
      }
      h = MixWord(h, bits);
    }
  }
  return h;
}

}  // namespace perfbench
