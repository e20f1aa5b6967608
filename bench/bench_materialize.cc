// E12 — §5.3: "materialization of derived sequences ... is definitely an
// option to consider". A moderately expensive derived sequence (20-day
// moving average over a long price series) serves k downstream queries:
// recomputing the aggregate per query vs. materializing it once and
// querying the materialization.
//
// Expect: recompute cost ~k × (scan + aggregate); materialized cost ~
// one aggregate pass + k cheap scans — the crossover is at small k.

#include "bench/bench_util.h"

namespace seq {
namespace {

constexpr Position kSpanEnd = 100000;
constexpr int kQueries = 8;

void Setup(Engine* engine) {
  StockSeriesOptions s;
  s.span = Span::Of(1, kSpanEnd);
  s.density = 0.95;
  s.seed = 121;
  SEQ_CHECK(engine->RegisterBase("prices", *MakeStockSeries(s)).ok());
}

LogicalOpPtr DerivedGraph() {
  return SeqRef("prices").Agg(AggFunc::kAvg, "close", 20, "ma20").Build();
}

/// A family of downstream queries over the derived sequence.
LogicalOpPtr Downstream(const LogicalOpPtr& source, int k) {
  return LogicalOp::Select(
      source->Clone(),
      Gt(Col("ma20"), Lit(90.0 + static_cast<double>(k))));
}

void BM_RecomputePerQuery(benchmark::State& state) {
  Engine engine;
  Setup(&engine);
  LogicalOpPtr derived = DerivedGraph();
  AccessStats stats;
  for (auto _ : state) {
    stats.Reset();
    for (int k = 0; k < kQueries; ++k) {
      auto result = engine.Run({Downstream(derived, k), Span::Of(1, kSpanEnd)},
                               {.stats = &stats});
      SEQ_CHECK(result.ok());
      benchmark::DoNotOptimize(result->records.size());
    }
  }
  state.counters["sim_cost_total"] = stats.simulated_cost;
  state.counters["records_read"] = static_cast<double>(stats.stream_records);
}
BENCHMARK(BM_RecomputePerQuery);

void BM_MaterializeOnce(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    Setup(&engine);
    state.ResumeTiming();
    AccessStats stats;
    SEQ_CHECK(engine.Materialize("ma", DerivedGraph()).ok());
    for (int k = 0; k < kQueries; ++k) {
      auto result = engine.Run(
          {LogicalOp::Select(LogicalOp::BaseRef("ma"),
                             Gt(Col("ma20"), Lit(90.0 + k))),
           Span::Of(1, kSpanEnd)},
          {.stats = &stats});
      SEQ_CHECK(result.ok());
      benchmark::DoNotOptimize(result->records.size());
    }
    state.counters["sim_cost_total"] = stats.simulated_cost;
    state.counters["records_read"] =
        static_cast<double>(stats.stream_records);
  }
}
BENCHMARK(BM_MaterializeOnce);

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(materialize);
