#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Benchmark inputs, all derived from the --seed argument: the SEQ1
// database every workload loads, the ingest event stream, and the request
// streams the clients send. The database and the event stream are written
// once per seed to the data directory and reused by later runs; request
// streams are cheap and are drawn in memory.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/span.h"

namespace perfbench {

/// Bump when anything below changes the generated data or the request
/// streams, so cached inputs and recorded answer digests are rebuilt.
inline constexpr int kGeneratorVersion = 2;

/// The shared database: kSeries stock series s0..s3 over [1, kSeriesEnd]
/// at density kDensity.
inline constexpr int kSeries = 4;
inline constexpr seq::Position kSeriesEnd = 1'000'000;
inline constexpr double kDensity = 0.9;

/// Records appended to each live sequence per ingest operation.
inline constexpr int kIngestBatch = 16;

struct InputPaths {
  std::string db;      ///< SaveDatabase directory of s0..s3
  std::string events;  ///< SaveDatabase directory of ev0, ev1 (ingest)
  std::string stamp;   ///< generator version, seed and event count
};

InputPaths InputsUnder(const std::string& data_dir);

/// Generates the inputs for `seed` under `data_dir` unless the stamp shows
/// they are already there for this seed, generator version and event
/// count. `events_per_stream` records are generated for each of ev0, ev1.
seq::Status EnsureInputs(const std::string& data_dir, uint64_t seed,
                         int64_t events_per_stream);

/// One client request. Query requests carry a Sequin program and the
/// session range it runs over; ingest requests carry the batch index.
struct Request {
  std::string text;
  seq::Span range = seq::Span::Empty();
  bool big = false;    ///< serve: a result of thousands of streamed rows
  int64_t batch = -1;  ///< ingest: which event batch to append
};

/// `count` requests of the lookup mix: short queries over 256-position
/// windows, drawn Zipf-skewed from a population of shapes several times
/// the plan cache, with random literals. `big_share` of the requests are
/// instead large selections returning thousands of rows (serve). `stream`
/// picks an independent draw from the same shape population.
std::vector<Request> LookupStream(uint64_t seed, uint64_t stream,
                                  size_t count, double big_share);

/// `count` scan requests: crossovers, compose with prev, window max over a
/// selection and collapse, each over a random 12.5k-25k position range.
std::vector<Request> ScanStream(uint64_t seed, uint64_t stream,
                                size_t count);

/// SplitMix64 step: decorrelates derived seeds.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
