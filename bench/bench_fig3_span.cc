// E2 — Table 1 + Fig. 3: bidirectional span propagation. The query asks
// for DEC prices on days where IBM closed above HP; the spans (IBM
// [200,500], DEC [1,350], HP [1,750], scaled) intersect to [200,350], so
// span propagation restricts every base scan to that window.
//
// Paper claim: "the ability to restrict the span of a sequence based on
// the other sequences used in the query holds a tremendous potential for
// query processing efficiency" — expect pages/records read to drop by
// roughly the span ratio, answers unchanged.

#include "bench/bench_util.h"

namespace seq {
namespace {

LogicalOpPtr Fig3Query() {
  return SeqRef("dec")
      .Project({"close"}, {"dec_close"})
      .ComposeWith(SeqRef("ibm").ComposeWith(
          SeqRef("hp"), Gt(Col("close", 0), Col("close", 1))))
      .Project({"dec_close"})
      .Build();
}

void RunFig3(benchmark::State& state, bool span_pushdown) {
  int64_t scale = state.range(0);
  OptimizerOptions options;
  options.enable_span_pushdown = span_pushdown;
  Engine engine(options);
  SEQ_CHECK(RegisterTable1Stocks(&engine.catalog(), scale).ok());
  LogicalOpPtr query = Fig3Query();
  Span range = Span::Of(1, 750 * scale);
  AccessStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    stats.Reset();
    auto result = engine.Run({query, range}, {.stats = &stats});
    SEQ_CHECK(result.ok());
    answers = result->records.size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["pages_read"] = static_cast<double>(stats.stream_pages);
  state.counters["records_read"] =
      static_cast<double>(stats.stream_records);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["sim_cost"] = stats.simulated_cost;
}

void BM_WithSpanPropagation(benchmark::State& state) {
  RunFig3(state, /*span_pushdown=*/true);
}
BENCHMARK(BM_WithSpanPropagation)->Arg(1)->Arg(10)->Arg(100);

void BM_WithoutSpanPropagation(benchmark::State& state) {
  RunFig3(state, /*span_pushdown=*/false);
}
BENCHMARK(BM_WithoutSpanPropagation)->Arg(1)->Arg(10)->Arg(100);

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(fig3_span);
