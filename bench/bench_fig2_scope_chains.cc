// E8 — Fig. 2 / Prop. 2.1: operator scope under composition. Chains of
// scope-bearing operators (offsets and trailing windows) compose into a
// single complex operator whose scope is the Minkowski sum of the parts;
// stream evaluation stays single-scan with caches bounded by the composed
// scope.
//
// Expect: per-record evaluation cost growing ~linearly in chain length
// (one bounded-scope operator each), base records read once regardless of
// chain length, and the composed scope window matching the sum of parts.

#include "bench/bench_util.h"
#include "logical/scope.h"

namespace seq {
namespace {

constexpr Position kSpanEnd = 50000;

/// A chain alternating 3-window sums and -2 positional offsets.
LogicalOpPtr Chain(int length) {
  QueryBuilder builder = SeqRef("s");
  for (int i = 0; i < length; ++i) {
    if (i % 2 == 0) {
      builder = builder.Agg(AggFunc::kSum, i == 0 ? "value" : "sum",
                            /*window=*/3, "sum");
    } else {
      builder = builder.Offset(-2);
    }
  }
  return builder.Build();
}

void BM_OperatorChain(benchmark::State& state) {
  int length = static_cast<int>(state.range(0));
  Engine engine;
  IntSeriesOptions options;
  options.span = Span::Of(1, kSpanEnd);
  options.density = 0.9;
  options.seed = 81;
  SEQ_CHECK(engine.RegisterBase("s", *MakeIntSeries(options)).ok());
  LogicalOpPtr query = Chain(length);

  // The composed scope over the base leaf (Prop. 2.1).
  std::vector<ScopeSpec> scopes = query->QueryScopeOverLeaves();
  SEQ_CHECK(scopes.size() == 1);
  state.SetLabel("scope " + scopes[0].ToString());

  AccessStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto result = engine.Run({query, Span::Of(1, kSpanEnd)}, {.stats = &stats});
    SEQ_CHECK(result.ok());
    benchmark::DoNotOptimize(result->records.size());
  }
  state.counters["base_records_read"] =
      static_cast<double>(stats.stream_records);
  state.counters["agg_steps"] = static_cast<double>(stats.agg_steps);
  state.counters["scope_lookback"] =
      scopes[0].IsFixedSize() ? static_cast<double>(-scopes[0].min_offset)
                              : -1.0;
  state.counters["sim_cost"] = stats.simulated_cost;
}
BENCHMARK(BM_OperatorChain)->DenseRange(1, 13, 2);

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(fig2_scope_chains);
