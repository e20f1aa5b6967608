// E1 — Fig. 1 / Example 1.1: the SEQ stream plan vs the relational
// nested-subquery plan for "volcano eruptions whose most recent earthquake
// was stronger than 7.0".
//
// Paper claim: the sequence query "can be processed with a single scan of
// the two sequences, and using very little memory", while the relational
// plan re-aggregates the whole Earthquake relation per Volcano tuple.
// Expect: SEQ ~O(V + E) records and flat per-record cost; SQL ~O(V x E)
// tuples and quadratic growth.

#include "bench/bench_util.h"
#include "relational/table.h"
#include "relational/volcano_sql.h"

namespace seq {
namespace {

void BM_SeqStreamPlan(benchmark::State& state) {
  Position span = state.range(0);
  Engine engine;
  bench::RegisterWeatherCatalog(&engine, span, /*dq=*/0.02, /*dv=*/0.004,
                                /*seed=*/7);
  LogicalOpPtr query = bench::VolcanoQuery();
  AccessStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    stats.Reset();
    auto result = engine.Run({query, Span::Of(1, span)}, {.stats = &stats});
    SEQ_CHECK(result.ok());
    answers = result->records.size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["records_read"] =
      static_cast<double>(stats.stream_records);
  state.counters["probes"] = static_cast<double>(stats.probes);
  state.counters["cache_records"] = static_cast<double>(stats.cache_stores);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["sim_cost"] = stats.simulated_cost;
}
BENCHMARK(BM_SeqStreamPlan)->Arg(2000)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_RelationalBaseline(benchmark::State& state) {
  Position span = state.range(0);
  Engine engine;
  bench::RegisterWeatherCatalog(&engine, span, /*dq=*/0.02, /*dv=*/0.004,
                                /*seed=*/7);
  auto vstore = engine.catalog().Lookup("volcanos");
  auto qstore = engine.catalog().Lookup("quakes");
  auto vtable = relational::TableFromSequence(*(*vstore)->store);
  auto qtable = relational::TableFromSequence(*(*qstore)->store);
  SEQ_CHECK(vtable.ok() && qtable.ok());
  relational::RelStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    stats = relational::RelStats{};
    auto result =
        relational::VolcanoQuerySql(*vtable, *qtable, 7.0, &stats);
    SEQ_CHECK(result.ok());
    answers = result->size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["tuples_read"] =
      static_cast<double>(stats.tuples_scanned);
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_RelationalBaseline)->Arg(2000)->Arg(10000)->Arg(50000);

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(fig1_motivating);
