// Start-up cost of a stored sequence, split into its two stages: decoding a
// SEQ1 file into a store (LoadSequence) and computing the per-column
// statistics the optimizer prices plans with (ComputeColumnStats). The
// input is a 1M-record stock series (open, close, high, low: double;
// volume: int64) saved once to a temporary file. A start-up regression in
// either stage shows here without running the end-to-end benchmark.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "storage/file_format.h"

namespace seq {
namespace {

constexpr Position kSpanEnd = 1000000;  // density 1.0: one record a position

/// The saved series, written on first use and removed at exit.
class SavedSeries {
 public:
  static const SavedSeries& Get() {
    static const SavedSeries series;
    return series;
  }

  const std::string& path() const { return path_; }
  const BaseSequenceStore& store() const { return *store_; }

 private:
  SavedSeries()
      : path_((std::filesystem::temp_directory_path() /
               ("seq_bench_load_" + std::to_string(::getpid()) + ".seq1"))
                  .string()) {
    StockSeriesOptions options;
    options.span = Span::Of(1, kSpanEnd);
    options.seed = 23;
    auto store = MakeStockSeries(options);
    SEQ_CHECK(store.ok());
    store_ = *store;
    SEQ_CHECK(SaveSequence(*store_, path_).ok());
  }
  ~SavedSeries() { std::remove(path_.c_str()); }

  std::string path_;
  BaseSequencePtr store_;
};

void BM_LoadSequence(benchmark::State& state) {
  const SavedSeries& series = SavedSeries::Get();
  for (auto _ : state) {
    auto loaded = LoadSequence(series.path());
    SEQ_CHECK(loaded.ok());
    SEQ_CHECK((*loaded)->num_records() == series.store().num_records());
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations() * series.store().num_records());
}
BENCHMARK(BM_LoadSequence)->Unit(benchmark::kMillisecond);

void BM_ComputeColumnStats(benchmark::State& state) {
  const SavedSeries& series = SavedSeries::Get();
  const BaseSequenceStore& store = series.store();
  for (auto _ : state) {
    std::vector<ColumnStats> stats =
        ComputeColumnStats(store.columns());
    SEQ_CHECK(stats.size() == store.schema()->num_fields());
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * store.num_records());
}
BENCHMARK(BM_ComputeColumnStats)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(load);
