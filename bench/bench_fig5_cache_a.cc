// E4 — Fig. 5.A / Cache-Strategy-A: a moving Sum over the previous W
// positions of IBM closes, evaluated with the scope-sized operator cache
// vs the naive plan that re-probes the whole window per output position.
//
// Paper claim: with the cache, "the Sum operator at every position needs
// to access the input sequence only at that position" — expect cached
// input accesses to stay flat as W grows while naive probes scale ~W.

#include "bench/bench_util.h"

namespace seq {
namespace {

constexpr Position kSpanEnd = 50000;

void RunCacheA(benchmark::State& state, bool disable_cache) {
  int64_t window = state.range(0);
  OptimizerOptions options;
  options.cost_params.disable_window_cache = disable_cache;
  Engine engine(options);
  StockSeriesOptions ibm;
  ibm.span = Span::Of(1, kSpanEnd);
  ibm.density = 0.95;
  ibm.seed = 51;
  SEQ_CHECK(engine.RegisterBase("ibm", *MakeStockSeries(ibm)).ok());
  auto query = SeqRef("ibm").Agg(AggFunc::kSum, "close", window).Build();
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
  state.counters["cache_stores"] = static_cast<double>(stats.cache_stores);
  state.counters["sim_cost"] = stats.simulated_cost;
}

void BM_CacheStrategyA(benchmark::State& state) {
  RunCacheA(state, /*disable_cache=*/false);
}
BENCHMARK(BM_CacheStrategyA)->Arg(2)->Arg(8)->Arg(16)->Arg(64);

void BM_NaiveWindowProbing(benchmark::State& state) {
  RunCacheA(state, /*disable_cache=*/true);
}
BENCHMARK(BM_NaiveWindowProbing)->Arg(2)->Arg(8)->Arg(16)->Arg(64);

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(fig5_cache_a);
