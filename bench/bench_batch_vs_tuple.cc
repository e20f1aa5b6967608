// Batch vs tuple execution. The same physical plan is driven through the
// tuple-at-a-time Volcano loop and the batch-at-a-time path (RecordBatch +
// flattened expression eval + allocation-free record movement); both must
// produce identical rows and identical simulated-access counters, so the
// only thing that differs is real wall time. Workloads: the acceptance
// chain scan -> select -> project -> trailing-window sum over >= 100k
// records, and the Fig. 2 scope-chain query.
//
// The headline benchmarks consume the answer through the streaming sink
// (PreparedQuery::Run with RunOptions::sink) — the consumption mode the batch path's
// allocation-free record movement is built for. The *_Materialized
// variants time full QueryResult materialization, where both paths pay
// one record allocation per answer row in the result vector itself.

#include <cstdint>

#include "bench/bench_util.h"

namespace seq {
namespace {

constexpr Position kSpanEnd = 120000;  // ~108k records at density 0.9

void RegisterSeries(Engine* engine) {
  IntSeriesOptions options;
  options.span = Span::Of(1, kSpanEnd);
  options.density = 0.9;
  options.seed = 81;
  SEQ_CHECK(engine->RegisterBase("s", *MakeIntSeries(options)).ok());
}

/// The acceptance-criteria chain: scan -> select -> project -> window agg.
LogicalOpPtr SelectProjectAggChain() {
  return SeqRef("s")
      .Select(Gt(Col("value"), Lit(int64_t{50})))
      .Project({"value"})
      .Agg(AggFunc::kSum, "value", /*window=*/8, "sum")
      .Build();
}

/// The Fig. 2 workload: alternating 3-window sums and -2 offsets.
LogicalOpPtr Fig2Chain(int length) {
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

/// Order-sensitive fold over an answer row — the "consume the result"
/// stand-in for the streaming benchmarks. Covers the value types the
/// workloads emit.
void FoldRow(Position pos, const Record& rec, uint64_t* acc) {
  uint64_t h = *acc * 1099511628211ull + static_cast<uint64_t>(pos);
  for (const Value& v : rec) {
    switch (v.type()) {
      case TypeId::kInt64:
        h = h * 1099511628211ull + static_cast<uint64_t>(v.int64());
        break;
      case TypeId::kDouble: {
        double d = v.AsDouble();
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        h = h * 1099511628211ull + bits;
        break;
      }
      default:
        h = h * 1099511628211ull + 1;
        break;
    }
  }
  *acc = h;
}

uint64_t FoldResult(const QueryResult& result) {
  uint64_t acc = 14695981039346656037ull;
  for (const PosRecord& pr : result.records) FoldRow(pr.pos, pr.rec, &acc);
  return acc;
}

/// One-time cross-check that the two paths agree on rows and counters —
/// materialized AND streamed — before timing them (Release benches run
/// without assertions otherwise).
void CheckParity(Engine* engine, const LogicalOpPtr& query) {
  RunOptions tuple_opts;
  tuple_opts.exec.use_batch = false;
  AccessStats tuple_stats;
  tuple_opts.stats = &tuple_stats;
  auto tuple = engine->Run({query, Span::Of(1, kSpanEnd)}, tuple_opts);
  SEQ_CHECK(tuple.ok());
  RunOptions batch_opts;
  batch_opts.exec.use_batch = true;
  AccessStats batch_stats;
  batch_opts.stats = &batch_stats;
  auto batch = engine->Run({query, Span::Of(1, kSpanEnd)}, batch_opts);
  SEQ_CHECK(batch.ok());
  SEQ_CHECK(tuple->records.size() == batch->records.size());
  for (size_t i = 0; i < tuple->records.size(); ++i) {
    SEQ_CHECK(tuple->records[i].pos == batch->records[i].pos);
    SEQ_CHECK(tuple->records[i].rec == batch->records[i].rec);
  }
  SEQ_CHECK(tuple_stats.stream_records == batch_stats.stream_records);
  SEQ_CHECK(tuple_stats.predicate_evals == batch_stats.predicate_evals);
  SEQ_CHECK(tuple_stats.agg_steps == batch_stats.agg_steps);
  SEQ_CHECK(tuple_stats.records_output == batch_stats.records_output);

  // The streaming sink must visit exactly the materialized rows in order,
  // in both driving modes.
  const uint64_t want = FoldResult(*tuple);
  Query q;
  q.graph = query;
  q.range = Span::Of(1, kSpanEnd);
  auto prepared = engine->Prepare(q);
  SEQ_CHECK(prepared.ok());
  for (bool use_batch : {false, true}) {
    RunOptions opts;
    opts.exec.use_batch = use_batch;
    uint64_t acc = 14695981039346656037ull;
    opts.sink = [&acc](Position p, const Record& rec) {
      FoldRow(p, rec, &acc);
    };
    SEQ_CHECK(prepared->Run(opts).ok());
    SEQ_CHECK(acc == want);
  }
}

enum class Consume { kVisit, kMaterialize };

/// Plans once, then times repeated execution with the requested driving
/// and consumption modes. Stats stay off during timing so only real work
/// is measured.
void RunPlan(benchmark::State& state, const LogicalOpPtr& query,
             bool use_batch, Consume consume) {
  Engine engine;
  RegisterSeries(&engine);
  CheckParity(&engine, query);

  Query q;
  q.graph = query;
  q.range = Span::Of(1, kSpanEnd);
  auto prepared = engine.Prepare(q);
  SEQ_CHECK(prepared.ok());
  RunOptions opts;
  opts.exec.use_batch = use_batch;

  size_t rows = 0;
  if (consume == Consume::kVisit) {
    uint64_t first_acc = 0;
    bool have_first = false;
    uint64_t acc = 0;
    size_t n = 0;
    opts.sink = [&](Position p, const Record& rec) {
      FoldRow(p, rec, &acc);
      ++n;
    };
    for (auto _ : state) {
      acc = 14695981039346656037ull;
      n = 0;
      SEQ_CHECK(prepared->Run(opts).ok());
      rows = n;
      benchmark::DoNotOptimize(acc);
      if (!have_first) {
        first_acc = acc;
        have_first = true;
      }
      SEQ_CHECK(acc == first_acc);
    }
  } else {
    for (auto _ : state) {
      auto result = prepared->Run(opts);
      SEQ_CHECK(result.ok());
      rows = result->records.size();
      benchmark::DoNotOptimize(result->records.data());
    }
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SelectProjectAgg_Tuple(benchmark::State& state) {
  RunPlan(state, SelectProjectAggChain(), /*use_batch=*/false,
          Consume::kVisit);
}
BENCHMARK(BM_SelectProjectAgg_Tuple);

void BM_SelectProjectAgg_Batch(benchmark::State& state) {
  RunPlan(state, SelectProjectAggChain(), /*use_batch=*/true,
          Consume::kVisit);
}
BENCHMARK(BM_SelectProjectAgg_Batch);

void BM_SelectProjectAgg_Tuple_Materialized(benchmark::State& state) {
  RunPlan(state, SelectProjectAggChain(), /*use_batch=*/false,
          Consume::kMaterialize);
}
BENCHMARK(BM_SelectProjectAgg_Tuple_Materialized);

void BM_SelectProjectAgg_Batch_Materialized(benchmark::State& state) {
  RunPlan(state, SelectProjectAggChain(), /*use_batch=*/true,
          Consume::kMaterialize);
}
BENCHMARK(BM_SelectProjectAgg_Batch_Materialized);

void BM_Fig2Chain_Tuple(benchmark::State& state) {
  RunPlan(state, Fig2Chain(static_cast<int>(state.range(0))),
          /*use_batch=*/false, Consume::kVisit);
}
BENCHMARK(BM_Fig2Chain_Tuple)->Arg(5)->Arg(9);

void BM_Fig2Chain_Batch(benchmark::State& state) {
  RunPlan(state, Fig2Chain(static_cast<int>(state.range(0))),
          /*use_batch=*/true, Consume::kVisit);
}
BENCHMARK(BM_Fig2Chain_Batch)->Arg(5)->Arg(9);

}  // namespace
}  // namespace seq

SEQ_BENCH_MAIN(batch_vs_tuple);
