// End-to-end benchmark program (see README.md in this directory).
//
//   seqbench gen --seed N --seconds S --data DIR
//       writes the seed's input set to DIR unless it is already there;
//   seqbench run --workload W --seed N --seconds S --trace 0|1 --data DIR
//       runs workload W and prints one JSON result as its last line;
//   seqbench startup --workload W --data DIR
//       starts W's program once and prints what the start-up took (a run
//       calls this in child processes).
//
// A run times several program start-ups (setup_s is their median), draws
// the request streams, runs a fixed count of operations with tracing off
// and checks the answers. With --trace 1 it then runs the same streams on
// a fresh start-up with every layer call timed, and reports the per-layer
// metrics instead of the end-to-end ones.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "obs/query_registry.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Program start-ups timed per run, each in a process of its own; setup_s
/// reports their median.
constexpr int kStartups = 5;
/// Requests per client whose spans go into the Chrome trace file (the
/// metrics use every span).
constexpr size_t kTraceFileRequests = 2000;

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string data = ".bench_data";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stoi(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value);
      } else if (flag == "--data") {
        args->data = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return (argc % 2 == 0) && args->seconds >= 1 && args->seconds <= 600 &&
         (args->trace == 0 || args->trace == 1);
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// A fixed CPU loop, timed: run at the start and end of every run and
/// reported beside the metrics, so host drift can be told from a
/// regression. Not a gated metric.
double HostDriftProbeSeconds() {
  static std::atomic<uint64_t> sink{0};
  const int64_t start = NowNs();
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink.fetch_add(x, std::memory_order_relaxed);
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// This process's user and system CPU seconds and minor page faults.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long minor_faults = 0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    return Usage{seconds(ru.ru_utime), seconds(ru.ru_stime), ru.ru_minflt};
  }
};

/// The host's CPU time counters (/proc/stat, all CPUs, in ticks): `steal`
/// is time the hypervisor gave this machine's CPUs to someone else.
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;

  static HostTicks Now() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    HostTicks t;
    double v = 0.0;
    for (int i = 0; i < 8 && stat >> v; ++i) {
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }
};

/// Seconds to read every file of the database directory into memory: the
/// file-reading share of LoadDatabase, apart from building the stores.
double ReadFilesSeconds(const std::string& dir) {
  namespace fs = std::filesystem;
  const int64_t start = NowNs();
  std::vector<char> buf(1 << 20);
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    std::ifstream in(e.path(), std::ios::binary);
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
           in.gcount() > 0) {
    }
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// The "<key>: <n> kB" line of a /proc file, in MB; 0 when absent.
double ProcMb(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

double PeakRssMb() { return ProcMb("/proc/self/status", "VmHWM"); }

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The measured operations of one phase.
struct Phase {
  size_t ops = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::vector<double>> latency_ms;  ///< per client, per op
  std::vector<std::vector<uint64_t>> digests;    ///< per client, per op
  /// As `digests`, with doubles left out (see DigestRows).
  std::vector<std::vector<uint64_t>> stable_digests;
  std::vector<AnswerSample> samples;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  seq::AccessStats stats;
  uint64_t rows = 0;
  CounterCapture before;
  CounterCapture after;
  std::vector<SpanLog> logs;  ///< traced phases only
  int64_t origin_ns = 0;
};

/// Runs `fn(client)` for every client, each on its own thread when there
/// are several, and waits for all of them.
template <typename Fn>
void ForEachClient(size_t clients, Fn fn) {
  if (clients == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

Phase RunPhase(Instance& instance, const Streams& streams, bool traced) {
  const size_t clients = streams.measured.size();
  // Warm-up: the same path as the measured ops, untimed, spans dropped.
  ForEachClient(clients, [&](size_t c) {
    SpanLog scratch(static_cast<int>(c));
    for (const Request& req : streams.warmup[c]) {
      scratch.Clear();
      instance.Op(static_cast<int>(c), req, 0, traced ? &scratch : nullptr);
    }
  });

  // Per-client tallies, merged after the clients finish.
  struct ClientTally {
    std::vector<AnswerSample> samples;
    size_t failed = 0;
    std::vector<std::string> errors;
    seq::AccessStats stats;
    uint64_t rows = 0;
  };
  std::vector<ClientTally> tallies(clients);
  Phase phase;
  phase.latency_ms.resize(clients);
  phase.digests.resize(clients);
  phase.stable_digests.resize(clients);
  for (size_t c = 0; c < clients; ++c) {
    phase.logs.emplace_back(static_cast<int>(c));
    if (traced) phase.logs[c].Reserve(streams.measured[c].size() * 8);
  }

  phase.before = CounterCapture::Now();
  const double cpu_start = CpuSeconds();
  phase.origin_ns = NowNs();
  ForEachClient(clients, [&](size_t c) {
    const std::vector<Request>& reqs = streams.measured[c];
    const std::vector<size_t> keep = SampleIndices(reqs);
    ClientTally& tally = tallies[c];
    std::vector<double>& latency_ms = phase.latency_ms[c];
    std::vector<uint64_t>& digests = phase.digests[c];
    std::vector<uint64_t>& stable_digests = phase.stable_digests[c];
    latency_ms.reserve(reqs.size());
    digests.reserve(reqs.size());
    stable_digests.reserve(reqs.size());
    SpanLog* log = traced ? &phase.logs[c] : nullptr;
    size_t next_keep = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const uint64_t request_id = (static_cast<uint64_t>(c) << 32) | (i + 1);
      const int64_t start = NowNs();
      OpOutcome out =
          instance.Op(static_cast<int>(c), reqs[i], request_id, log);
      const int64_t end = NowNs();
      latency_ms.push_back(static_cast<double>(end - start) / 1e6);
      digests.push_back(DigestRows(out.answer, out.digest, true));
      stable_digests.push_back(
          DigestRows(out.answer, out.stable_digest, false));
      tally.stats += out.stats;
      tally.rows += out.rows;
      if (!out.ok) {
        ++tally.failed;
        if (tally.errors.size() < 5) tally.errors.push_back(out.error);
      }
      if (next_keep < keep.size() && keep[next_keep] == i) {
        ++next_keep;
        if (out.ok) {
          tally.samples.push_back(AnswerSample{
              static_cast<int>(c), i, &reqs[i], std::move(out.answer)});
        }
      }
    }
  });
  phase.wall_s = static_cast<double>(NowNs() - phase.origin_ns) / 1e9;
  phase.cpu_s = CpuSeconds() - cpu_start;
  // The benchmark's own read of the telemetry counters is its obs span.
  const int snapshot_span =
      traced ? phase.logs[0].Begin("MetricsRegistry::Snapshot", "obs", 0) : -1;
  phase.after = CounterCapture::Now();
  if (traced) phase.logs[0].End(snapshot_span);

  for (ClientTally& tally : tallies) {
    phase.failed += tally.failed;
    for (AnswerSample& s : tally.samples) phase.samples.push_back(std::move(s));
    for (std::string& e : tally.errors) phase.errors.push_back(std::move(e));
    phase.stats += tally.stats;
    phase.rows += tally.rows;
  }
  for (const auto& lat : phase.latency_ms) phase.ops += lat.size();
  return phase;
}

/// Latency percentiles and throughput of a phase, taken per round. A round
/// is a contiguous chunk of every client's measured ops, kRoundOps in all,
/// so its p99 has ten samples beyond it. The host's interference comes and
/// goes over seconds and only ever adds time: in one run of serve, round
/// medians ranged from 0.11 to 0.20 ms. So the value reported is that of
/// the quieter rounds: the lower quartile over rounds of each latency
/// percentile, and the upper quartile of throughput. A change to the
/// program moves every round, the quiet ones too.
/// Throughput is clients x ops over the summed latency: the closed-loop
/// rate without the benchmark's own work between operations (digesting
/// and freeing answers).
struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double ops_per_s = 0.0;
};

LatencySummary SummarizeRounds(const Phase& phase) {
  constexpr size_t kRoundOps = 1000;
  const size_t clients = phase.latency_ms.size();
  size_t per_client = SIZE_MAX;
  for (const auto& lat : phase.latency_ms) {
    per_client = std::min(per_client, lat.size());
  }
  const size_t rounds = std::max<size_t>(1, per_client * clients / kRoundOps);
  std::vector<double> p50, p99, rate;
  for (size_t k = 0; k < rounds; ++k) {
    std::vector<double> lat;
    double sum_ms = 0.0;
    for (const auto& client : phase.latency_ms) {
      for (size_t i = k * per_client / rounds;
           i < (k + 1) * per_client / rounds; ++i) {
        lat.push_back(client[i]);
        sum_ms += client[i];
      }
    }
    p50.push_back(Quantile(lat, 0.5));
    p99.push_back(Quantile(lat, 0.99));
    rate.push_back(Ratio(static_cast<double>(clients * lat.size()),
                         sum_ms / 1e3));
  }
  return LatencySummary{Quantile(p50, 0.25), Quantile(p99, 0.25),
                        Quantile(rate, 0.75)};
}

/// Ops whose answer digest differs between two phases over one stream.
size_t DigestMismatches(const Phase& a, const Phase& b) {
  size_t mismatches = 0;
  for (size_t c = 0; c < a.digests.size() && c < b.digests.size(); ++c) {
    for (size_t i = 0; i < a.digests[c].size() && i < b.digests[c].size();
         ++i) {
      if (a.digests[c][i] != b.digests[c][i]) ++mismatches;
    }
  }
  return mismatches;
}

/// Compares the phase's stable answer digests with those an earlier run of
/// the same workload, seed and size recorded. When none was recorded and
/// `record` is set (the run has had no failure so far), records them.
/// Returns the number of ops whose answers changed.
size_t CompareWithEarlierRuns(const Args& args, size_t ops, const Phase& phase,
                              bool record, std::vector<std::string>* notes) {
  namespace fs = std::filesystem;
  const std::string dir = args.data + "/answers";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-ops" +
                           std::to_string(ops) + "-v" +
                           std::to_string(kGeneratorVersion) + ".digests";
  std::vector<uint64_t> now;
  for (const auto& client : phase.stable_digests) {
    now.insert(now.end(), client.begin(), client.end());
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!record) return 0;
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(now.data()),
              static_cast<std::streamsize>(now.size() * sizeof(uint64_t)));
    return 0;
  }
  std::vector<uint64_t> earlier(now.size());
  in.read(reinterpret_cast<char*>(earlier.data()),
          static_cast<std::streamsize>(earlier.size() * sizeof(uint64_t)));
  if (in.gcount() !=
      static_cast<std::streamsize>(earlier.size() * sizeof(uint64_t))) {
    notes->push_back("recorded answer digests in " + path +
                     " have another length");
    return now.size();
  }
  size_t changed = 0;
  for (size_t i = 0; i < now.size(); ++i) {
    if (now[i] != earlier[i]) ++changed;
  }
  if (changed > 0) {
    notes->push_back(std::to_string(changed) +
                     " answers differ from an earlier run (" + path + ")");
  }
  return changed;
}

class JsonObject {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    Raw(name, "{\"value\": " + Number(value) + ", \"unit\": \"" + unit +
                  "\"}");
  }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + json;
  }
  void Str(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) escaped += c;
    }
    Raw(key, "\"" + escaped + "\"");
  }
  void Num(const std::string& key, double value) { Raw(key, Number(value)); }
  std::string Text() const { return "{" + body_ + "}"; }

  static std::string Number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }

 private:
  std::string body_;
};

void AddLayerMetrics(const std::vector<double>& load_s,
                     const std::string& workload,
                     const Phase& plain, const Phase& traced,
                     const Phase* registry_off, JsonObject* m) {
  const std::vector<SpanLog>& logs = traced.logs;
  const double ops = static_cast<double>(traced.ops);
  auto p = [&](const char* name, const char* layer, double q) {
    return Quantile(SpanDurationsUs(logs, name, layer), q);
  };
  auto delta = [&](const char* counter) {
    return static_cast<double>(
        CounterDelta(traced.before, traced.after, counter));
  };
  const seq::AccessStats& st = traced.stats;

  m->Metric("parser.parse_us_p50", p("ParseSequin", "parser", 0.5), "us");
  m->Metric("core.inline_us_p50", p("InlineViews", "core", 0.5), "us");
  m->Metric("core.plan_hit_us_p50", p("Engine::Prepare", "core", 0.5), "us");
  m->Metric("optimizer.plan_miss_us_p50",
            p("Engine::Prepare", "optimizer", 0.5), "us");
  const double hits = delta("engine.plan_cache.hits");
  const double misses = delta("engine.plan_cache.misses");
  m->Metric("core.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  m->Metric("core.plan_cache_evictions_per_op",
            delta("engine.plan_cache.evictions") / ops, "count");
  m->Metric("core.plan_cache_recost_fallbacks_per_op",
            delta("engine.plan_cache.recost_fallbacks") / ops, "count");
  m->Metric("core.load_s", Quantile(load_s, 0.5), "s");

  m->Metric("exec.run_us_p50", p("PreparedQuery::Run", "exec", 0.5), "us");
  m->Metric("exec.run_us_p99", p("PreparedQuery::Run", "exec", 0.99), "us");
  m->Metric("exec.rows_per_op", static_cast<double>(traced.rows) / ops,
            "count");
  m->Metric("exec.cpu_per_wall", Ratio(plain.cpu_s, plain.wall_s), "ratio");
  // Metrics of code that only one workload runs are reported by that
  // workload alone: on the others they could only read 0.
  if (workload == "scan") {
    // Only scan runs queries in parallel, through the scheduler.
    m->Metric("exec.morsels_per_op", delta("exec.morsels") / ops, "count");
    m->Metric("exec.sched_queue_wait_us_p99",
              HistogramDelta(traced.before, traced.after,
                             "sched.queue_wait_us")
                  .Percentile(0.99),
              "us");
  }
  if (workload == "ingest") {
    // The append path.
    m->Metric("exec.append_us_p50", p("StreamSession::Append", "exec", 0.5),
              "us");
    m->Metric("exec.poll_us_p50", p("StreamSession::Poll", "exec", 0.5),
              "us");
    m->Metric("exec.poll_us_p99", p("StreamSession::Poll", "exec", 0.99),
              "us");
    m->Metric("storage.column_stats_us_p50",
              p("BaseSequenceStore::column_stats", "storage", 0.5), "us");
  }
  m->Metric("storage.pages_streamed_per_op",
            static_cast<double>(st.stream_pages) / ops, "count");
  m->Metric("storage.probes_per_op", static_cast<double>(st.probes) / ops,
            "count");
  m->Metric("storage.cache_ops_per_op",
            static_cast<double>(st.cache_stores + st.cache_hits) / ops,
            "count");
  m->Metric("storage.rows_per_page_read",
            Ratio(static_cast<double>(st.stream_records + st.probes),
                  static_cast<double>(st.stream_pages + st.probe_pages)),
            "count");
  m->Metric("expr.predicate_evals_per_op",
            static_cast<double>(st.predicate_evals) / ops, "count");

  std::vector<double> client_us;
  for (const char* call :
       {"RemoteSession::Prepare", "RemoteSession::ExecutePrepared",
        "RemoteSession::CloseStatement"}) {
    std::vector<double> d = SpanDurationsUs(logs, call, "net");
    client_us.insert(client_us.end(), d.begin(), d.end());
  }
  m->Metric("net.client_us_p50", Quantile(client_us, 0.5), "us");
  m->Metric("net.server_request_us_p50",
            HistogramDelta(traced.before, traced.after, "net.request_us")
                .Percentile(0.5),
            "us");
  m->Metric("net.bytes_out_per_op", delta("net.bytes_out") / ops, "bytes");

  m->Metric("obs.registry_overhead_share",
            registry_off != nullptr
                ? Ratio(plain.wall_s - registry_off->wall_s,
                        registry_off->wall_s)
                : 0.0,
            "ratio");
  m->Metric("trace.overhead_share",
            Ratio(traced.wall_s - plain.wall_s, plain.wall_s), "ratio");
}

/// What one start-up took: wall time of the whole start-up and of
/// LoadDatabase, and the process's CPU time and minor faults during it.
struct StartupSample {
  double setup_s = 0.0;
  double load_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
};

/// The `startup` command: starts the workload's program once in this
/// process and prints the StartupSample fields on one line.
int Startup(const Args& args) {
  const Spec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const InputPaths paths = InputsUnder(args.data);
  IngestInput ingest;
  if (std::string(spec->name) == "ingest") {
    seq::Result<IngestInput> loaded = LoadIngestInput(paths);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    ingest = std::move(*loaded);
  }
  StartupTimes times;
  const Usage before = Usage::Now();
  auto started = StartInstance(*spec, paths, &ingest, &times, nullptr);
  const Usage after = Usage::Now();
  if (!started.ok()) {
    std::fprintf(stderr, "start-up failed: %s\n",
                 started.status().ToString().c_str());
    return 2;
  }
  std::printf("%.9f %.9f %.6f %.6f %ld\n", times.total_s, times.load_s,
              after.user_s - before.user_s, after.sys_s - before.sys_s,
              after.minor_faults - before.minor_faults);
  return 0;
}

/// Runs the `startup` command in a child process and waits for it.
std::optional<StartupSample> StartupInChild(const Args& args) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return std::nullopt;
  exe[n] = '\0';
  for (const std::string& word : {std::string(exe), args.data}) {
    if (word.find('\'') != std::string::npos) return std::nullopt;
  }
  std::string command = "'";
  command.append(exe).append("' startup --workload ").append(args.workload);
  command.append(" --data '").append(args.data).append("'");
  FILE* child = popen(command.c_str(), "r");
  if (child == nullptr) return std::nullopt;
  StartupSample s;
  const int fields = std::fscanf(child, "%lf %lf %lf %lf %lf", &s.setup_s,
                                 &s.load_s, &s.user_s, &s.sys_s,
                                 &s.minor_faults);
  const int status = pclose(child);
  if (fields != 5 || status != 0) return std::nullopt;
  return s;
}

int Generate(const Args& args) {
  seq::Status s =
      EnsureInputs(args.data, args.seed, IngestEventsNeeded(args.seconds));
  if (!s.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }
  return 0;
}

int Run(const Args& args) {
  const Spec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (Generate(args) != 0) return 2;
  const InputPaths paths = InputsUnder(args.data);
  const double drift_start_s = HostDriftProbeSeconds();
  const HostTicks ticks_start = HostTicks::Now();
  const size_t ops = MeasuredOps(*spec, args.seconds);
  const Streams streams = MakeStreams(*spec, args.seed, ops);

  IngestInput ingest;
  if (std::string(spec->name) == "ingest") {
    seq::Result<IngestInput> loaded = LoadIngestInput(paths);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    ingest = std::move(*loaded);
  }

  // Each timed start-up runs in a fresh process, as a user's does: it pays
  // the first touch of the heap's pages, and the samples do not share one
  // process's memory placement, which moved start-up time by up to 40%
  // from one process to the next while start-ups within one process
  // agreed to a few percent. They all run before this process loads its
  // own engine: start-ups right after this process freed an engine were
  // the slowest of their run, by up to 1.7 times.
  std::vector<StartupSample> startups;
  std::vector<double> setup_s;
  std::vector<double> load_s;
  for (int k = 0; k < kStartups; ++k) {
    std::optional<StartupSample> sample = StartupInChild(args);
    if (!sample) {
      std::fprintf(stderr, "start-up in a child process failed\n");
      return 2;
    }
    startups.push_back(*sample);
    setup_s.push_back(sample->setup_s);
    load_s.push_back(sample->load_s);
  }

  std::unique_ptr<Instance> instance;
  // Starts the instance the operations run on; a traced start-up also
  // adds its LoadDatabase time to load_s.
  auto start = [&](SpanLog* log) -> bool {
    instance.reset();  // one engine in memory at a time
    StartupTimes times;
    auto started = StartInstance(*spec, paths, &ingest, &times, log);
    if (!started.ok()) {
      std::fprintf(stderr, "start-up failed: %s\n",
                   started.status().ToString().c_str());
      return false;
    }
    instance = std::move(*started);
    if (log != nullptr) load_s.push_back(times.load_s);
    return true;
  };
  if (!start(nullptr)) return 2;
  const double db_read_s = ReadFilesSeconds(paths.db);
  // How much of the loaded engine got transparent huge pages (see run.py).
  const double huge_mb = ProcMb("/proc/self/smaps_rollup", "AnonHugePages");
  std::vector<std::string> notes;
  const Phase plain = RunPhase(*instance, streams, /*traced=*/false);
  size_t failed = plain.failed;
  size_t attempted = plain.ops;
  failed += instance->CheckAnswers(plain.samples, args.seed, &notes);
  failed += CompareWithEarlierRuns(args, ops, plain, failed == 0, &notes);

  JsonObject metrics;
  if (args.trace == 0) {
    metrics.Metric("setup_s", Quantile(setup_s, 0.5), "s");
    const LatencySummary latency = SummarizeRounds(plain);
    metrics.Metric("latency_p50_ms", latency.p50_ms, "ms");
    metrics.Metric("latency_p99_ms", latency.p99_ms, "ms");
    metrics.Metric("ops_per_s", latency.ops_per_s, "1/s");
    metrics.Metric("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Metric("sim_cost_per_op",
                   plain.stats.simulated_cost / static_cast<double>(plain.ops),
                   "cost");
  } else {
    SpanLog setup_log;
    if (!start(&setup_log)) return 2;
    Phase traced = RunPhase(*instance, streams, /*traced=*/true);
    attempted += traced.ops;
    failed += traced.failed;
    failed += instance->CheckAnswers(traced.samples, args.seed, &notes);
    const size_t traced_diff = DigestMismatches(plain, traced);
    if (traced_diff > 0) {
      notes.push_back(std::to_string(traced_diff) +
                      " traced answers differ from untraced ones");
    }
    failed += traced_diff;
    traced.logs.push_back(std::move(setup_log));

    Phase registry_off;
    const bool measure_registry = std::string(spec->name) == "lookup";
    if (measure_registry) {
      if (!start(nullptr)) return 2;
      seq::QueryRegistry::Global().set_enabled(false);
      registry_off = RunPhase(*instance, streams, /*traced=*/false);
      seq::QueryRegistry::Global().set_enabled(true);
      attempted += registry_off.ops;
      failed += registry_off.failed + DigestMismatches(plain, registry_off);
    }
    AddLayerMetrics(load_s, spec->name, plain, traced,
                    measure_registry ? &registry_off : nullptr, &metrics);

    const std::string trace_path = args.data + "/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    if (!WriteChromeTrace(traced.logs, traced.origin_ns, kTraceFileRequests,
                          trace_path)) {
      notes.push_back("could not write " + trace_path);
    }
    std::string layers;
    for (const std::string& l : LayersWithSpans(traced.logs)) {
      layers += (layers.empty() ? "" : " ") + l;
    }
    notes.push_back("trace: " + trace_path + " (layers: " + layers + ")");
  }
  instance.reset();
  const double drift_end_s = HostDriftProbeSeconds();
  const HostTicks ticks_end = HostTicks::Now();

  for (const std::string& e : plain.errors) notes.push_back("error: " + e);
  JsonObject info;
  info.Str("workload", args.workload);
  info.Raw("seed", std::to_string(args.seed));
  info.Raw("measured_ops", std::to_string(ops));
  info.Num("failed_op_share",
           static_cast<double>(failed) / static_cast<double>(attempted));
  std::string samples;
  for (double v : setup_s) {
    samples += (samples.empty() ? "" : ", ") + JsonObject::Number(v);
  }
  info.Raw("setup_s_samples", "[" + samples + "]");
  // Medians over the timed start-ups: CPU time in user and kernel mode,
  // minor faults.
  auto median_of = [&](double StartupSample::*field) {
    std::vector<double> v;
    for (const StartupSample& s : startups) v.push_back(s.*field);
    return Quantile(v, 0.5);
  };
  info.Num("setup_user_s", median_of(&StartupSample::user_s));
  info.Num("setup_sys_s", median_of(&StartupSample::sys_s));
  info.Num("setup_minor_faults", median_of(&StartupSample::minor_faults));
  info.Num("db_file_read_s", db_read_s);
  info.Num("anon_huge_pages_mb", huge_mb);
  info.Num("host_drift_probe_start_s", drift_start_s);
  info.Num("host_drift_probe_end_s", drift_end_s);
  info.Num("host_steal_share", Ratio(ticks_end.steal - ticks_start.steal,
                                     ticks_end.total - ticks_start.total));
  std::string note_list;
  for (const std::string& n : notes) {
    note_list += (note_list.empty() ? "" : "; ") + n;
  }
  info.Str("notes", note_list);
  std::printf("{\"info\": %s}\n", info.Text().c_str());

  JsonObject result;
  result.Raw("correct", failed == 0 ? "true" : "false");
  result.Raw("attempted", std::to_string(attempted));
  result.Raw("failed", std::to_string(failed));
  result.Raw("metrics", metrics.Text());
  std::printf("%s\n", result.Text().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: seqbench gen|run|startup --workload W --seed N "
                 "--seconds S --trace 0|1 --data DIR\n");
    return 2;
  }
  if (args.command == "gen") return perfbench::Generate(args);
  if (args.command == "run") return perfbench::Run(args);
  if (args.command == "startup") return perfbench::Startup(args);
  std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
  return 2;
}
