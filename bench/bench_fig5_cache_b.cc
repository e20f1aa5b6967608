// E5 — Fig. 5.B / Cache-Strategy-B: the Previous operator over a selected
// sequence. The figure's scenario: "if the close of IBM is usually greater
// than the close of HP, a large number of IBM and HP records may need to
// be accessed to generate each record" — i.e., the naive backward search
// degrades as the upstream selection gets more selective, while the
// incremental algorithm derives out(i) from out(i-1) at O(1).
//
// Expect: incremental accesses flat in selectivity; naive probes growing
// ~1/selectivity.

#include "bench/bench_util.h"

namespace seq {
namespace {

constexpr Position kSpanEnd = 20000;

void RunCacheB(benchmark::State& state, bool disable_incremental) {
  int64_t permille = state.range(0);  // selection selectivity of the input
  OptimizerOptions options;
  options.cost_params.disable_incremental_value_offset = disable_incremental;
  Engine engine(options);
  IntSeriesOptions marks;
  marks.span = Span::Of(1, kSpanEnd);
  marks.density = 1.0;
  marks.min_value = 0;
  marks.max_value = 999;
  marks.seed = 52;
  marks.column = "mark";
  SEQ_CHECK(engine.RegisterBase("marks", *MakeIntSeries(marks)).ok());
  // Previous record satisfying the selection, asked at every position.
  auto query = SeqRef("marks")
                   .Select(Lt(Col("mark"), Lit(permille - 1)))
                   .Prev()
                   .Build();
  AccessStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto result = engine.Run({query, Span::Of(1, kSpanEnd)}, {.stats = &stats});
    SEQ_CHECK(result.ok());
    benchmark::DoNotOptimize(result->records.size());
  }
  state.counters["input_accesses"] =
      static_cast<double>(stats.stream_records + stats.probes);
  state.counters["probes"] = static_cast<double>(stats.probes);
  state.counters["sim_cost"] = stats.simulated_cost;
}

void BM_CacheStrategyB(benchmark::State& state) {
  RunCacheB(state, /*disable_incremental=*/false);
}
BENCHMARK(BM_CacheStrategyB)->Arg(500)->Arg(100)->Arg(20)->Arg(5);

void BM_NaiveBackwardSearch(benchmark::State& state) {
  RunCacheB(state, /*disable_incremental=*/true);
}
BENCHMARK(BM_NaiveBackwardSearch)->Arg(500)->Arg(100)->Arg(20)->Arg(5);

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(fig5_cache_b);
