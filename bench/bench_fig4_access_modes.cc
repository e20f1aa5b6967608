// E3 — Fig. 4: access-mode selection for the positional join. Composing a
// sparse selected sequence (the "#1" sequence of the figure, selectivity
// swept) with the DEC sequence, the optimizer must choose among
// Join-Strategy-A in either direction and Join-Strategy-B.
//
// Paper claim: the right choice depends on "the density of the base
// sequences ... their access costs and the selectivity of the operator
// that generates the #1 sequence" — expect Strategy-A (stream the sparse
// side, probe the other) to win at low selectivity, Strategy-B (lock-step)
// at high selectivity, with a crossover in between; and the optimizer's
// pick to match the cheapest measured strategy.

#include "bench/bench_util.h"

namespace seq {
namespace {

constexpr Position kSpanEnd = 100000;

void RegisterFig4Catalog(Engine* engine) {
  StockSeriesOptions dec;
  dec.span = Span::Of(1, kSpanEnd);
  dec.density = 0.9;
  dec.seed = 31;
  SEQ_CHECK(engine->RegisterBase("dec", *MakeStockSeries(dec)).ok());
  IntSeriesOptions marks;  // uniform [0, 999]: selection on it is exact
  marks.span = Span::Of(1, kSpanEnd);
  marks.density = 1.0;
  marks.min_value = 0;
  marks.max_value = 999;
  marks.seed = 32;
  marks.column = "mark";
  SEQ_CHECK(engine->RegisterBase("marks", *MakeIntSeries(marks)).ok());
}

/// select(marks, mark < threshold) composed with dec; threshold controls
/// the #1 sequence's selectivity: threshold/1000.
LogicalOpPtr Fig4Query(int64_t threshold) {
  return SeqRef("marks")
      .Select(Lt(Col("mark"), Lit(threshold)))
      .ComposeWith(SeqRef("dec"))
      .Project({"mark", "close"})
      .Build();
}

/// args: {selectivity_permille, forced strategy (-1 = optimizer's choice)}
void BM_JoinStrategy(benchmark::State& state) {
  int64_t permille = state.range(0);
  int force = static_cast<int>(state.range(1));
  OptimizerOptions options;
  options.cost_params.force_join_strategy = force;
  Engine engine(options);
  RegisterFig4Catalog(&engine);
  LogicalOpPtr query = Fig4Query(permille - 1);

  // Record which strategy actually runs.
  auto plan = engine.Plan(Query{query, Span::Of(1, kSpanEnd), {}});
  SEQ_CHECK(plan.ok());
  const PhysNode* node = plan->root.get();
  while (node->op != OpKind::kCompose) node = node->children[0].get();
  state.SetLabel(JoinStrategyName(node->join_strategy));

  AccessStats stats;
  for (auto _ : state) {
    stats.Reset();
    auto result = engine.Run({query, Span::Of(1, kSpanEnd)}, {.stats = &stats});
    SEQ_CHECK(result.ok());
    benchmark::DoNotOptimize(result->records.size());
  }
  state.counters["sim_cost"] = stats.simulated_cost;
  state.counters["records_read"] =
      static_cast<double>(stats.stream_records);
  state.counters["probes"] = static_cast<double>(stats.probes);
}

void RegisterSweep() {
  for (int64_t permille : {1, 5, 20, 100, 300, 1000}) {
    for (int64_t force : {-1, 0, 1, 2}) {
      benchmark::RegisterBenchmark("BM_JoinStrategy", BM_JoinStrategy)
          ->Args({permille, force})
          ->ArgNames({"sel_permille", "force"});
    }
  }
}

}  // namespace
}  // namespace seq

int main(int argc, char** argv) {
  seq::RegisterSweep();
  return seq::bench::BenchMain("fig4_access_modes", argc, argv);
}
