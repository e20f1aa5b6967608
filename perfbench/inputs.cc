#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "core/database_io.h"
#include "core/engine.h"
#include "workload/generators.h"

namespace perfbench {

namespace fs = std::filesystem;
using seq::Engine;
using seq::Position;
using seq::Rng;
using seq::Span;
using seq::Status;

namespace {

const char* const kPriceColumns[] = {"open", "close", "high", "low"};

/// Lookup shape population: kLookupShapes is four times the plan cache's
/// 256 entries, so the Zipf head hits and the tail misses and evicts.
constexpr int kLookupShapes = 1024;
constexpr double kZipfExponent = 0.9;
constexpr Position kLookupWindow = 256;
/// Serve's large requests: a small population of 8k-position windows.
constexpr int kBigShapes = 64;
constexpr Position kBigWindow = 8192;

std::string StampText(uint64_t seed, int64_t events) {
  return "v" + std::to_string(kGeneratorVersion) + " seed=" +
         std::to_string(seed) + " events=" + std::to_string(events) + "\n";
}

std::string Format(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

struct LookupShape {
  int tmpl = 0;
  int x = 0;
  int y = 0;
  int param = 0;
  int column = 0;
  Position start = 1;
};

/// Draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(n) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int Draw(Rng* rng) const {
    const double u = rng->UniformDouble(0.0, 1.0);
    return static_cast<int>(
        std::min<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                             cdf_.begin(),
                         cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// Selection literals are on volume, which is uniform and the same
// everywhere in a series: a request's cost then depends on its shape and
// literal, not on where a random-walk price happens to sit relative to the
// whole series' statistics.
Request LookupRequest(const LookupShape& shape, Rng* rng) {
  Request req;
  req.range = Span::Of(shape.start, shape.start + kLookupWindow - 1);
  const int volume = static_cast<int>(rng->UniformInt(1000, 99000));
  switch (shape.tmpl) {
    case 0:
      // Selectivity from 0.99 down to 0.01: rebinding a cached template
      // to a far-off literal trips the plan cache's re-cost guard.
      req.text = Format("q = select(s%d, volume > %d);", shape.x, volume);
      break;
    case 1:
      req.text = Format("q = avg(select(s%d, volume > %d), %s, over %d);",
                        shape.x, volume * 6 / 10,
                        kPriceColumns[shape.column], shape.param);
      break;
    case 2:
      req.text = Format(
          "q = compose(s%d, prev(s%d), left.close > right.close + %.2f);",
          shape.x, shape.y, rng->UniformDouble(-0.5, 0.5));
      break;
    default:
      // At least half the records pass, so the backward search is short.
      req.text = Format("q = voffset(select(s%d, volume > %d), -%d);",
                        shape.x, volume / 2, shape.param);
      break;
  }
  return req;
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

InputPaths InputsUnder(const std::string& data_dir) {
  return InputPaths{data_dir + "/db", data_dir + "/events",
                    data_dir + "/inputs.stamp"};
}

Status EnsureInputs(const std::string& data_dir, uint64_t seed,
                    int64_t events_per_stream) {
  const InputPaths paths = InputsUnder(data_dir);
  const std::string want = StampText(seed, events_per_stream);
  {
    std::ifstream in(paths.stamp);
    std::stringstream have;
    have << in.rdbuf();
    if (in && have.str() == want) return Status::OK();
  }
  std::error_code ec;
  fs::remove(paths.stamp, ec);
  fs::remove_all(paths.db, ec);
  fs::remove_all(paths.events, ec);

  {
    Engine db;
    for (int i = 0; i < kSeries; ++i) {
      seq::StockSeriesOptions options;
      options.span = Span::Of(1, kSeriesEnd);
      options.density = kDensity;
      options.start_price = 500.0 + 100.0 * i;
      options.volatility = 0.3;
      options.seed = MixSeed(seed, 1 + i);
      SEQ_ASSIGN_OR_RETURN(seq::BaseSequencePtr store,
                           seq::MakeStockSeries(options));
      SEQ_RETURN_IF_ERROR(db.RegisterBase("s" + std::to_string(i), store));
    }
    SEQ_RETURN_IF_ERROR(seq::SaveDatabase(db, paths.db));
  }
  {
    Engine events;
    for (int i = 0; i < 2; ++i) {
      seq::StockSeriesOptions options;
      // Density 0.9: enough positions for events_per_stream records.
      options.span = Span::Of(
          1, static_cast<Position>(events_per_stream / kDensity * 1.05) + 64);
      options.density = kDensity;
      options.start_price = 100.0;
      options.volatility = 0.3;
      options.seed = MixSeed(seed, 100 + i);
      SEQ_ASSIGN_OR_RETURN(seq::BaseSequencePtr store,
                           seq::MakeStockSeries(options));
      if (store->num_records() < events_per_stream) {
        return Status::Internal("event generator produced too few records");
      }
      SEQ_RETURN_IF_ERROR(
          events.RegisterBase("ev" + std::to_string(i), store));
    }
    SEQ_RETURN_IF_ERROR(seq::SaveDatabase(events, paths.events));
  }
  std::ofstream out(paths.stamp);
  out << want;
  out.close();
  if (!out) return Status::Internal("cannot write " + paths.stamp);
  return Status::OK();
}

std::vector<Request> LookupStream(uint64_t seed, uint64_t stream,
                                  size_t count, double big_share) {
  // The population depends on the seed only, so every stream of one seed
  // draws from the same shapes (and so shares plan-cache entries).
  Rng shape_rng(MixSeed(seed, 200));
  // Template, series, column and window or offset rotate with the Zipf
  // rank, so every seed puts the same share of requests on each kind of
  // shape; only the second series, the window start and the literals are
  // drawn.
  std::vector<LookupShape> shapes(kLookupShapes);
  for (int rank = 0; rank < kLookupShapes; ++rank) {
    LookupShape& s = shapes[static_cast<size_t>(rank)];
    s.tmpl = rank % 4;
    s.x = (rank / 4) % kSeries;
    s.column = (rank / 16) % 4;
    s.param = s.tmpl == 1 ? 5 * (1 + (rank / 16) % 8) : 1 + (rank / 16) % 3;
    s.y = static_cast<int>(shape_rng.UniformInt(0, kSeries - 1));
    // Away from the series start, where streaming a value offset's whole
    // prefix would be cheap enough to change the plan.
    s.start = shape_rng.UniformInt(100'000, kSeriesEnd - kLookupWindow);
  }
  std::vector<std::pair<int, Position>> big_shapes(kBigShapes);
  for (auto& [x, start] : big_shapes) {
    x = static_cast<int>(shape_rng.UniformInt(0, kSeries - 1));
    start = shape_rng.UniformInt(1, kSeriesEnd - kBigWindow);
  }

  const Zipf zipf(kLookupShapes, kZipfExponent);
  Rng rng(MixSeed(seed, 300 + stream));
  std::vector<Request> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (big_share > 0.0 && rng.Bernoulli(big_share)) {
      const auto& [x, start] =
          big_shapes[static_cast<size_t>(rng.UniformInt(0, kBigShapes - 1))];
      Request req;
      req.big = true;
      req.range = Span::Of(start, start + kBigWindow - 1);
      req.text = Format("q = select(s%d, volume > %d);", x,
                        static_cast<int>(rng.UniformInt(1000, 5000)));
      out.push_back(std::move(req));
      continue;
    }
    out.push_back(LookupRequest(shapes[zipf.Draw(&rng)], &rng));
  }
  return out;
}

std::vector<Request> ScanStream(uint64_t seed, uint64_t stream,
                                size_t count) {
  Rng rng(MixSeed(seed, 400 + stream));
  std::vector<Request> out;
  out.reserve(count);
  // A fixed rotation of templates (collapse, max, crossover, compose-prev
  // at 1:2:3:2) gives every seed the same mix. The costs rise in that
  // order, so the median lands inside the crossover group rather than on
  // a boundary between two groups.
  static const int kRotation[] = {3, 2, 2, 0, 0, 0, 1, 1};
  for (size_t i = 0; i < count; ++i) {
    const int tmpl = kRotation[i % 8];
    const int x = static_cast<int>(rng.UniformInt(0, kSeries - 1));
    const int y = static_cast<int>(rng.UniformInt(0, kSeries - 1));
    const Position length = rng.UniformInt(12'500, 25'000);
    // prev() streams its input from the series start, so compose-prev
    // costs grow with the range start (about 30 ms at 1M against 3 ms in
    // the range itself); its ranges start early to keep that share modest.
    const Position start =
        rng.UniformInt(1024, tmpl == 1 ? 250'000 : kSeriesEnd - length);
    Request req;
    req.range = Span::Of(start, start + length - 1);
    switch (tmpl) {
      case 0: {
        static const int kFast[] = {5, 10, 20};
        static const int kSlow[] = {50, 100, 200};
        req.text = Format(
            "f = avg(s%d, close, over %d, as fast); "
            "l = avg(s%d, close, over %d, as slow); "
            "q = select(compose(f, l), fast > slow);",
            x, kFast[rng.UniformInt(0, 2)], x, kSlow[rng.UniformInt(0, 2)]);
        break;
      }
      case 1:
        req.text = Format(
            "q = compose(s%d, prev(s%d), left.high > right.close + %.2f);", x,
            y, rng.UniformDouble(-1.0, 1.0));
        break;
      case 2: {
        static const int kWindows[] = {16, 64, 256};
        req.text = Format("q = max(select(s%d, volume > %d), high, over %d);",
                          x, static_cast<int>(rng.UniformInt(20000, 80000)),
                          kWindows[rng.UniformInt(0, 2)]);
        break;
      }
      default: {
        // Collapse answers in bucket positions: the range covers the
        // buckets of the drawn input range.
        const int factor = rng.Bernoulli(0.5) ? 10 : 100;
        req.text = Format("q = collapse(s%d, %d, avg, close);", x, factor);
        req.range = Span::Of(start / factor, (start + length - 1) / factor);
        break;
      }
    }
    out.push_back(std::move(req));
  }
  return out;
}

}  // namespace perfbench
