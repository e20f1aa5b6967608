// E9 — §3.1 transformations: pushing selections/projections/offsets down
// the graph. A selective filter written *above* a three-way compose should
// be routed onto the referenced inputs by the rewriter, shrinking the join
// work; with rewrites disabled the join composes everything first and
// filters at the top.
//
// Expect: with rewrites, predicate evaluations and join compute drop
// roughly by the selectivity factor; answers identical.

#include "bench/bench_util.h"

namespace seq {
namespace {

constexpr Position kSpanEnd = 100000;

void SetupCatalog(Engine* engine) {
  for (int i = 0; i < 3; ++i) {
    IntSeriesOptions options;
    options.span = Span::Of(1, kSpanEnd);
    options.density = 0.8;
    options.seed = 90 + i;
    options.min_value = 0;
    options.max_value = 999;
    options.column = "c" + std::to_string(i);
    SEQ_CHECK(engine
                  ->RegisterBase("s" + std::to_string(i),
                                 *MakeIntSeries(options))
                  .ok());
  }
}

/// Filter over a 3-way compose; every conjunct is one-sided.
LogicalOpPtr RewriteQuery() {
  return SeqRef("s0")
      .ComposeWith(SeqRef("s1"))
      .ComposeWith(SeqRef("s2"))
      .Select(And(Lt(Col("c0"), Lit(int64_t{99})),
                  And(Lt(Col("c1"), Lit(int64_t{499})),
                      Gt(Col("c2"), Lit(int64_t{199})))))
      .Project({"c0", "c1", "c2"})
      .Build();
}

void RunRewrites(benchmark::State& state, bool rewrites) {
  OptimizerOptions options;
  options.enable_rewrites = rewrites;
  Engine engine(options);
  SetupCatalog(&engine);
  LogicalOpPtr query = RewriteQuery();
  AccessStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    stats.Reset();
    auto result = engine.Run({query, Span::Of(1, kSpanEnd)}, {.stats = &stats});
    SEQ_CHECK(result.ok());
    answers = result->records.size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["predicate_evals"] =
      static_cast<double>(stats.predicate_evals);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["sim_cost"] = stats.simulated_cost;
}

void BM_WithRewrites(benchmark::State& state) {
  RunRewrites(state, true);
}
BENCHMARK(BM_WithRewrites);

void BM_WithoutRewrites(benchmark::State& state) {
  RunRewrites(state, false);
}
BENCHMARK(BM_WithoutRewrites);

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(rewrites);
