#include "core/session.h"

#include <cctype>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string_view>

#include "common/string_util.h"
#include "core/database_io.h"
#include "exec/checkpoint.h"
#include "exec/scheduler.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/slow_query_log.h"
#include "parser/parser.h"
#include "workload/csv.h"
#include "workload/generators.h"

namespace seq {

namespace {

// Guarded numeric parsing for command arguments: stoll/stod throw on
// garbage or out-of-range input, which must never take down a session.
std::optional<int64_t> ParseInt64Arg(const std::string& s) {
  try {
    size_t used = 0;
    int64_t v = std::stoll(s, &used);
    if (used != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> ParseDoubleArg(const std::string& s) {
  try {
    size_t used = 0;
    double v = std::stod(s, &used);
    if (used != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// The `.queries` rendering, shared verbatim by local and remote mode.
/// Runs attributed to a session show its id as `s<id>`.
std::string FormatQueries() {
  std::ostringstream oss;
  QueryRegistry& registry = QueryRegistry::Global();
  const std::vector<LiveQueryInfo> live = registry.Live();
  oss << live.size() << " live, " << registry.completed() << " completed of "
      << registry.started() << " started\n";
  for (const LiveQueryInfo& q : live) {
    oss << "  #" << q.id;
    if (q.session_id != 0) oss << " s" << q.session_id;
    oss << " [" << QueryStateName(q.state) << "] " << q.rows << " rows, "
        << q.pages << " pages, " << q.workers << " worker(s)";
    if (q.morsels_total > 0) {
      oss << ", morsels " << q.morsels_done << "/" << q.morsels_total;
    }
    if (q.queued_us > 0) {
      oss << ", queued "
          << FormatDouble(static_cast<double>(q.queued_us) / 1000.0) << "ms";
    }
    oss << ", " << FormatDouble(static_cast<double>(q.elapsed_us) / 1000.0)
        << "ms: " << q.text << "\n";
  }
  const std::vector<CompletedQueryInfo> recent = registry.Recent();
  const size_t shown = std::min<size_t>(recent.size(), 10);
  for (size_t i = 0; i < shown; ++i) {
    const CompletedQueryInfo& q = recent[i];
    oss << "  #" << q.id;
    if (q.session_id != 0) oss << " s" << q.session_id;
    oss << " done [" << q.status << (q.degraded ? ", degraded" : "") << "] "
        << q.rows << " rows, " << q.pages << " pages, "
        << FormatDouble(static_cast<double>(q.wall_us) / 1000.0) << "ms";
    if (q.queued_us > 0) {
      oss << " (queued "
          << FormatDouble(static_cast<double>(q.queued_us) / 1000.0) << "ms)";
    }
    oss << ": " << q.text << "\n";
  }
  if (recent.size() > shown) {
    oss << "  ... (" << recent.size() << " recent total)\n";
  }
  return oss.str();
}

bool IsIdentifier(std::string_view s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

/// Matches the bare-name programs the grammar has no production for —
/// "q;", "explain q;", "explain analyze q;" — so `.run q` resolves an
/// existing view or sequence instead of failing to parse.
bool MatchBareName(const std::string& source, std::string* name,
                   ExplainMode* mode) {
  std::string_view text = StripAsciiWhitespace(source);
  if (text.empty() || text.back() != ';') return false;
  text = StripAsciiWhitespace(text.substr(0, text.size() - 1));
  if (text.find(';') != std::string_view::npos) return false;
  std::vector<std::string_view> words;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) words.push_back(text.substr(start, i - start));
  }
  if (words.empty() || words.size() > 3 || !IsIdentifier(words.back())) {
    return false;
  }
  if (words.size() == 1) {
    *mode = ExplainMode::kNone;
  } else if (words.size() == 2 && words[0] == "explain") {
    *mode = ExplainMode::kExplain;
  } else if (words.size() == 3 && words[0] == "explain" &&
             words[1] == "analyze") {
    *mode = ExplainMode::kExplainAnalyze;
  } else {
    return false;
  }
  *name = std::string(words.back());
  return true;
}

}  // namespace

uint64_t Session::NextSessionId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

LocalSession::LocalSession()
    : owned_(std::make_unique<Engine>()),
      // The private gate is uncontended; taking it keeps one code path.
      own_gate_(std::make_unique<std::shared_mutex>()),
      engine_(owned_.get()),
      gate_(own_gate_.get()) {}

LocalSession::LocalSession(Engine* engine, std::shared_mutex* gate)
    : engine_(engine), gate_(gate) {}

LocalSession::~LocalSession() { Close(); }

void LocalSession::Close() { closed_.store(true, std::memory_order_release); }

Status LocalSession::CheckOpen() const {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Cancelled("session " + std::to_string(id_) + " is closed");
  }
  return Status::OK();
}

ExecOptions LocalSession::RunExec() const {
  ExecOptions exec = options_.exec;
  exec.session_id = id_;
  if (exec.guards.cancel == nullptr) exec.guards.cancel = &closed_;
  return exec;
}

Result<LogicalOpPtr> LocalSession::ResolveName(const std::string& name) const {
  auto it = views_.find(name);
  if (it != views_.end()) return it->second;
  std::shared_lock<std::shared_mutex> lock(*gate_);
  auto engine_view = engine_->views().find(name);
  if (engine_view != engine_->views().end()) return engine_view->second;
  if (engine_->catalog().Contains(name)) return LogicalOp::BaseRef(name);
  return Status::NotFound("no sequence or view named '" + name + "'");
}

Result<ExecuteReply> LocalSession::RunGraph(const LogicalOpPtr& graph,
                                            ExecuteReply reply) {
  RunOptions opts;
  opts.exec = RunExec();
  AccessStats stats;
  if (collect_stats_) opts.stats = &stats;
  if (options_.sink) opts.sink = options_.sink;
  std::shared_lock<std::shared_mutex> lock(*gate_);
  SEQ_ASSIGN_OR_RETURN(QueryResult result,
                       engine_->Run({graph, range_}, opts));
  reply.is_rows = true;
  reply.schema = result.schema;
  reply.rows = std::move(result.records);
  if (collect_stats_) {
    reply.has_stats = true;
    reply.stats = stats;
  }
  return reply;
}

Result<ExecuteReply> LocalSession::RunMain(const LogicalOpPtr& graph,
                                           ExecuteReply reply,
                                           ExplainMode mode) {
  switch (mode) {
    case ExplainMode::kNone:
      return RunGraph(graph, std::move(reply));
    case ExplainMode::kExplain: {
      Query q;
      q.graph = graph;
      q.range = range_;
      std::shared_lock<std::shared_mutex> lock(*gate_);
      SEQ_ASSIGN_OR_RETURN(std::string text, engine_->Explain(q));
      reply.text += text;
      return reply;
    }
    case ExplainMode::kExplainAnalyze: {
      Query q;
      q.graph = graph;
      q.range = range_;
      RunOptions opts;
      opts.exec = RunExec();
      std::shared_lock<std::shared_mutex> lock(*gate_);
      SEQ_ASSIGN_OR_RETURN(std::string text, engine_->ExplainAnalyze(q, opts));
      reply.text += text;
      return reply;
    }
  }
  return Status::Internal("unhandled explain mode");
}

Result<ExecuteReply> LocalSession::Execute(const std::string& source) {
  SEQ_RETURN_IF_ERROR(CheckOpen());
  {
    std::string name;
    ExplainMode mode;
    if (MatchBareName(source, &name, &mode)) {
      SEQ_ASSIGN_OR_RETURN(LogicalOpPtr graph, ResolveName(name));
      return RunMain(graph, ExecuteReply{}, mode);
    }
  }
  SEQ_ASSIGN_OR_RETURN(ParsedProgram program, ParseSequin(source));
  ExecuteReply reply;
  for (const std::string& name : program.order) {
    if (views_.count(name) > 0) {
      return Status::InvalidArgument("view '" + name + "' already defined");
    }
    {
      std::shared_lock<std::shared_mutex> lock(*gate_);
      if (engine_->catalog().Contains(name) ||
          engine_->views().count(name) > 0) {
        return Status::InvalidArgument("view '" + name +
                                       "' shadows an engine sequence or view");
      }
    }
    // Inline earlier session views now, so definitions cannot cycle and
    // stored graphs only reference engine names.
    SEQ_ASSIGN_OR_RETURN(LogicalOpPtr inlined,
                         InlineViews(program.definitions[name], views_));
    views_.emplace(name, std::move(inlined));
    reply.text += "defined " + name + "\n";
  }
  if (program.main == nullptr) return reply;
  SEQ_ASSIGN_OR_RETURN(LogicalOpPtr main, InlineViews(program.main, views_));
  return RunMain(main, std::move(reply), program.explain);
}

Result<uint64_t> LocalSession::Prepare(const std::string& source) {
  SEQ_RETURN_IF_ERROR(CheckOpen());
  {
    std::string name;
    ExplainMode mode;
    if (MatchBareName(source, &name, &mode)) {
      if (mode != ExplainMode::kNone) {
        return Status::InvalidArgument("cannot prepare an EXPLAIN program");
      }
      Query query;
      SEQ_ASSIGN_OR_RETURN(query.graph, ResolveName(name));
      query.range = range_;
      std::shared_lock<std::shared_mutex> lock(*gate_);
      SEQ_ASSIGN_OR_RETURN(Engine::PreparedQuery prepared,
                           engine_->Prepare(query));
      const uint64_t id = next_statement_++;
      statements_.emplace(id, std::move(prepared));
      return id;
    }
  }
  SEQ_ASSIGN_OR_RETURN(ParsedProgram program, ParseSequin(source));
  if (program.explain != ExplainMode::kNone) {
    return Status::InvalidArgument("cannot prepare an EXPLAIN program");
  }
  if (program.main == nullptr) {
    return Status::InvalidArgument("nothing to prepare: no main expression");
  }
  // Program-local definitions inline into the statement without becoming
  // session views — a prepared statement is self-contained.
  ViewMap combined = views_;
  for (const std::string& name : program.order) {
    SEQ_ASSIGN_OR_RETURN(LogicalOpPtr inlined,
                         InlineViews(program.definitions[name], combined));
    combined[name] = std::move(inlined);
  }
  Query query;
  SEQ_ASSIGN_OR_RETURN(query.graph, InlineViews(program.main, combined));
  query.range = range_;
  std::shared_lock<std::shared_mutex> lock(*gate_);
  SEQ_ASSIGN_OR_RETURN(Engine::PreparedQuery prepared,
                       engine_->Prepare(query));
  const uint64_t id = next_statement_++;
  statements_.emplace(id, std::move(prepared));
  return id;
}

Result<ExecuteReply> LocalSession::ExecutePrepared(uint64_t statement_id) {
  SEQ_RETURN_IF_ERROR(CheckOpen());
  auto it = statements_.find(statement_id);
  if (it == statements_.end()) {
    return Status::NotFound("no prepared statement #" +
                            std::to_string(statement_id));
  }
  RunOptions opts;
  opts.exec = RunExec();
  AccessStats stats;
  if (collect_stats_) opts.stats = &stats;
  if (options_.sink) opts.sink = options_.sink;
  std::shared_lock<std::shared_mutex> lock(*gate_);
  SEQ_ASSIGN_OR_RETURN(QueryResult result, it->second.Run(opts));
  ExecuteReply reply;
  reply.is_rows = true;
  reply.schema = result.schema;
  reply.rows = std::move(result.records);
  if (collect_stats_) {
    reply.has_stats = true;
    reply.stats = stats;
  }
  return reply;
}

Status LocalSession::CloseStatement(uint64_t statement_id) {
  SEQ_RETURN_IF_ERROR(CheckOpen());
  if (statements_.erase(statement_id) == 0) {
    return Status::NotFound("no prepared statement #" +
                            std::to_string(statement_id));
  }
  return Status::OK();
}

Status LocalSession::Suspend(uint64_t query_id) {
  SEQ_RETURN_IF_ERROR(CheckOpen());
  if (!Engine::RequestSuspend(query_id)) {
    return Status::NotFound("no live query #" + std::to_string(query_id));
  }
  return Status::OK();
}

Result<ExecuteReply> LocalSession::Resume(const std::string& checkpoint_path) {
  SEQ_RETURN_IF_ERROR(CheckOpen());
  RunOptions opts;
  opts.exec = RunExec();
  AccessStats stats;
  if (collect_stats_) opts.stats = &stats;
  std::shared_lock<std::shared_mutex> lock(*gate_);
  SEQ_ASSIGN_OR_RETURN(QueryResult result,
                       engine_->Resume(checkpoint_path, opts));
  ExecuteReply reply;
  reply.is_rows = true;
  reply.schema = result.schema;
  reply.rows = std::move(result.records);
  if (collect_stats_) {
    reply.has_stats = true;
    reply.stats = stats;
  }
  return reply;
}

Result<std::string> LocalSession::Telemetry(const std::string& kind) {
  SEQ_RETURN_IF_ERROR(CheckOpen());
  if (kind == "metrics") return MetricsRegistry::Global().ToString();
  if (kind == "prom") return RenderPrometheus(CaptureTelemetry());
  if (kind == "json") return RenderJson(CaptureTelemetry()) + "\n";
  if (kind == "queries") return FormatQueries();
  if (kind == "sched") return QueryScheduler::Global().ToString();
  if (kind == "plancache") return PlanCache::Global().ToString();
  if (kind == "slowlog") return SlowQueryLog::Global().ToString();
  return Status::InvalidArgument(
      "unknown telemetry kind '" + kind +
      "' (metrics, prom, json, queries, sched, plancache, slowlog)");
}

Result<std::string> LocalSession::Command(
    const std::vector<std::string>& args) {
  SEQ_RETURN_IF_ERROR(CheckOpen());
  if (args.empty()) return Status::InvalidArgument("empty command");
  const std::string& cmd = args[0];

  if (cmd == "gen" && args.size() >= 5) {
    auto start = ParseInt64Arg(args[2]);
    auto end = ParseInt64Arg(args[3]);
    auto density = ParseDoubleArg(args[4]);
    std::optional<int64_t> seed =
        args.size() >= 6 ? ParseInt64Arg(args[5]) : std::optional<int64_t>(0);
    if (!start || !end || !density || !seed || *seed < 0) {
      return Status::InvalidArgument(
          "gen expects numeric <start> <end> <density> [seed]");
    }
    StockSeriesOptions options;
    options.span = Span::Of(*start, *end);
    options.density = *density;
    if (args.size() >= 6) options.seed = static_cast<uint64_t>(*seed);
    SEQ_ASSIGN_OR_RETURN(BaseSequencePtr store, MakeStockSeries(options));
    const std::string meta = store->DescribeMeta();
    std::unique_lock<std::shared_mutex> lock(*gate_);
    SEQ_RETURN_IF_ERROR(engine_->RegisterBase(args[1], std::move(store)));
    return "generated " + args[1] + ": " + meta + "\n";
  }
  if (cmd == "load" && args.size() >= 3) {
    CsvOptions options;
    if (args.size() >= 4) options.position_column = args[3];
    SEQ_ASSIGN_OR_RETURN(BaseSequencePtr store,
                         LoadCsvSequence(args[2], options));
    const std::string meta = store->DescribeMeta();
    std::unique_lock<std::shared_mutex> lock(*gate_);
    SEQ_RETURN_IF_ERROR(engine_->RegisterBase(args[1], std::move(store)));
    return "loaded " + args[1] + ": " + meta + "\n";
  }
  if (cmd == "list") {
    std::ostringstream oss;
    std::shared_lock<std::shared_mutex> lock(*gate_);
    for (const std::string& name : engine_->catalog().ListSequences()) {
      auto entry = engine_->catalog().Lookup(name);
      oss << "  " << name << "  " << (*entry)->schema->ToString();
      if ((*entry)->kind == CatalogEntry::Kind::kBase) {
        oss << "  " << (*entry)->store->DescribeMeta();
      } else {
        oss << "  (constant)";
      }
      oss << "\n";
    }
    for (const auto& [name, graph] : engine_->views()) {
      oss << "  " << name << "  (view) = " << graph->Describe() << "\n";
    }
    for (const auto& [name, graph] : views_) {
      oss << "  " << name << "  (session view) = " << graph->Describe()
          << "\n";
    }
    return oss.str();
  }
  if (cmd == "schema" && args.size() >= 2) {
    std::ostringstream oss;
    std::shared_lock<std::shared_mutex> lock(*gate_);
    SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                         engine_->catalog().Lookup(args[1]));
    oss << entry->schema->ToString() << "\n";
    if (entry->kind == CatalogEntry::Kind::kBase) {
      oss << entry->store->DescribeMeta() << "\n";
      const auto& stats = entry->store->column_stats();
      for (size_t i = 0; i < stats.size(); ++i) {
        oss << "  " << entry->schema->field(i).name << ": "
            << stats[i].ToString() << "\n";
      }
    }
    return oss.str();
  }
  if (cmd == "materialize" && args.size() >= 3) {
    SEQ_ASSIGN_OR_RETURN(LogicalOpPtr graph, ResolveName(args[2]));
    std::unique_lock<std::shared_mutex> lock(*gate_);
    SEQ_RETURN_IF_ERROR(engine_->Materialize(args[1], graph, range_));
    auto entry = engine_->catalog().Lookup(args[1]);
    return "materialized " + args[1] + ": " + (*entry)->store->DescribeMeta() +
           "\n";
  }
  if (cmd == "save" && args.size() >= 3) {
    std::shared_lock<std::shared_mutex> lock(*gate_);
    auto entry = engine_->catalog().Lookup(args[1]);
    if (!entry.ok() || (*entry)->kind != CatalogEntry::Kind::kBase) {
      return Status::NotFound("no base sequence '" + args[1] + "'");
    }
    std::ofstream out(args[2]);
    if (!out) return Status::InvalidArgument("cannot open " + args[2]);
    out << SequenceToCsv(*(*entry)->store);
    return "wrote " + args[2] + "\n";
  }
  if (cmd == "savedb" && args.size() >= 2) {
    std::shared_lock<std::shared_mutex> lock(*gate_);
    SEQ_RETURN_IF_ERROR(SaveDatabase(*engine_, args[1]));
    return "saved database to " + args[1] + "\n";
  }
  if (cmd == "opendb" && args.size() >= 2) {
    if (owned_ == nullptr) {
      return Status::FailedPrecondition(
          "opendb replaces the engine and is not available on a shared "
          "server engine");
    }
    // Load into a fresh engine so a failed load leaves the session intact.
    auto fresh = std::make_unique<Engine>();
    SEQ_RETURN_IF_ERROR(LoadDatabase(args[1], fresh.get()));
    std::unique_lock<std::shared_mutex> lock(*gate_);
    owned_ = std::move(fresh);
    engine_ = owned_.get();
    return "opened " + args[1] + " (" +
           std::to_string(engine_->catalog().ListSequences().size()) +
           " sequences, " + std::to_string(engine_->views().size()) +
           " views)\n";
  }
  if (cmd == "plancache" && args.size() >= 2) {
    if (args[1] == "on") {
      PlanCache::Global().set_enabled(true);
      return std::string("plan cache on\n");
    }
    if (args[1] == "off") {
      // Disabling also drops every cached template; re-enabling starts cold.
      PlanCache::Global().set_enabled(false);
      return std::string("plan cache off (entries dropped)\n");
    }
    if (args[1] == "clear") {
      PlanCache::Global().Clear();
      return std::string("plan cache cleared\n");
    }
  }
  if (cmd == "slowlog" && args.size() >= 2 && args[1] == "clear") {
    SlowQueryLog::Global().Reset();
    return std::string("slow-query log cleared\n");
  }
  if (cmd == "slowlog" && args.size() >= 3 && args[1] == "threshold") {
    auto ms = ParseDoubleArg(args[2]);
    if (!ms) {
      return Status::InvalidArgument(
          "slowlog threshold expects milliseconds (0 logs all queries, "
          "negative disables)");
    }
    SlowQueryLog::Global().set_threshold_ms(*ms);
    return "slow-query threshold " + FormatDouble(*ms) + "ms\n";
  }
  if (cmd == "sched" && args.size() >= 3 && args[1] == "workers") {
    auto n = ParseInt64Arg(args[2]);
    if (!n || *n < 1) {
      return Status::InvalidArgument(
          "sched workers expects a thread count >= 1");
    }
    QueryScheduler::Global().SetWorkers(static_cast<int>(*n));
    return "scheduler workers " +
           std::to_string(QueryScheduler::Global().workers()) + "\n";
  }
  if (cmd == "sched" && args.size() >= 3 && args[1] == "limit") {
    auto n = ParseInt64Arg(args[2]);
    if (!n || *n < 0) {
      return Status::InvalidArgument(
          "sched limit expects a query count >= 0 (0 = unlimited)");
    }
    QueryScheduler::Global().SetMaxRunning(static_cast<int>(*n));
    return "scheduler limit " +
           (*n == 0 ? std::string("off") : std::to_string(*n)) + "\n";
  }
  return Status::InvalidArgument("unknown or incomplete command: " + cmd);
}

}  // namespace seq
