// Parameterized plan cache (docs/execution.md, "plan cache"): hit/miss
// behavior, literal rebinding, the differential guarantee (a cache hit
// returns byte-identical rows and counters to a cold optimize under every
// driving mode), invalidation on catalog mutation and option changes, the
// re-cost guard, graceful degradation interplay, LRU capacity, and thread
// safety under concurrent hits, misses and invalidations.
//
// The cache under test is the process-wide PlanCache::Global(), shared by
// every test in this binary — so all counter assertions work on DELTAS of
// Stats() snapshots, never absolutes.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/query_registry.h"
#include "workload/generators.h"

namespace seq {
namespace {

// The suite asserts cache behavior, which SEQ_PLAN_CACHE=0 turns off for
// the whole process; correctness under "cache disabled" is what the rest
// of the test suite already covers then.
#define SKIP_IF_CACHE_DISABLED()                                       \
  if (!PlanCache::Global().enabled()) {                                \
    GTEST_SKIP() << "plan cache disabled via SEQ_PLAN_CACHE";          \
  }

Engine MakeEngine(uint64_t seed = 3) {
  Engine engine;
  IntSeriesOptions options;
  options.span = Span::Of(0, 999);
  options.density = 0.8;
  options.seed = seed;
  SEQ_CHECK(engine.RegisterBase("s", *MakeIntSeries(options)).ok());
  return engine;
}

Query SelectQuery(int64_t threshold) {
  Query q;
  q.graph = SeqRef("s")
                .Select(Gt(Col("value"), Lit(threshold)))
                .Project({"value"})
                .Build();
  q.range = Span::Of(0, 999);
  return q;
}

Query ChainQuery(int64_t threshold, int window) {
  Query q;
  q.graph = SeqRef("s")
                .Select(Gt(Col("value"), Lit(threshold)))
                .Agg(AggFunc::kSum, "value", window, "w")
                .Build();
  q.range = Span::Of(0, 999);
  return q;
}

void ExpectSameRows(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].pos, b.records[i].pos);
    ASSERT_EQ(a.records[i].rec.size(), b.records[i].rec.size());
    for (size_t j = 0; j < a.records[i].rec.size(); ++j) {
      EXPECT_EQ(a.records[i].rec[j].type(), b.records[i].rec[j].type());
      EXPECT_EQ(a.records[i].rec[j], b.records[i].rec[j]);
    }
  }
}

void ExpectSameStats(const AccessStats& a, const AccessStats& b) {
  EXPECT_EQ(a.stream_records, b.stream_records);
  EXPECT_EQ(a.stream_pages, b.stream_pages);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.probe_pages, b.probe_pages);
  EXPECT_EQ(a.cache_stores, b.cache_stores);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.predicate_evals, b.predicate_evals);
  EXPECT_EQ(a.agg_steps, b.agg_steps);
  EXPECT_EQ(a.records_output, b.records_output);
  EXPECT_DOUBLE_EQ(a.simulated_cost, b.simulated_cost);
}

// --- hits, misses, rebinding -------------------------------------------------

TEST(PlanCacheTest, RepeatShapeHitsAndReturnsIdenticalRows) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  const PlanCacheStats before = PlanCache::Global().Stats();

  auto cold = engine.Run(SelectQuery(500));
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = engine.Run(SelectQuery(500));
  ASSERT_TRUE(warm.ok());
  ExpectSameRows(*cold, *warm);

  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_GE(after.hits - before.hits, 1u);
  EXPECT_GE(after.inserts - before.inserts, 1u);
}

TEST(PlanCacheTest, HitRebindsNewLiterals) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  // Warm the shape with one literal, then hit it with another: the bound
  // plan must answer for the NEW literal, not the cached one.
  ASSERT_TRUE(engine.Run(SelectQuery(900)).ok());

  const PlanCacheStats before = PlanCache::Global().Stats();
  auto hit = engine.Run(SelectQuery(100));
  ASSERT_TRUE(hit.ok());
  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_GE(after.hits - before.hits, 1u);

  RunOptions uncached;
  uncached.exec.use_plan_cache = false;
  auto reference = engine.Run(SelectQuery(100), uncached);
  ASSERT_TRUE(reference.ok());
  ExpectSameRows(*reference, *hit);
  EXPECT_GT(hit->records.size(), 0u);
}

TEST(PlanCacheTest, AliasedLiteralsStayIndependentParameters) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  // Two literals with EQUAL values when the template is built; rebinding
  // with different values must land each in its own slot.
  auto make = [](int64_t lo, int64_t hi) {
    Query q;
    q.graph = SeqRef("s")
                  .Select(Gt(Col("value"), Lit(lo)))
                  .Select(Lt(Col("value"), Lit(hi)))
                  .Build();
    q.range = Span::Of(0, 999);
    return q;
  };
  ASSERT_TRUE(engine.Run(make(400, 400)).ok());  // aliased template
  auto warm = engine.Run(make(200, 600));
  ASSERT_TRUE(warm.ok());

  RunOptions uncached;
  uncached.exec.use_plan_cache = false;
  auto reference = engine.Run(make(200, 600), uncached);
  ASSERT_TRUE(reference.ok());
  ExpectSameRows(*reference, *warm);
  EXPECT_GT(warm->records.size(), 0u);
}

TEST(PlanCacheTest, StructuralIntegersAreNotParameters) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  // Window sizes shape the plan; two windows must never share a template.
  auto w8 = engine.Run(ChainQuery(500, 8));
  auto w8_again = engine.Run(ChainQuery(500, 8));
  auto w3 = engine.Run(ChainQuery(500, 3));
  ASSERT_TRUE(w8.ok());
  ASSERT_TRUE(w8_again.ok());
  ASSERT_TRUE(w3.ok());
  ExpectSameRows(*w8, *w8_again);

  RunOptions uncached;
  uncached.exec.use_plan_cache = false;
  auto w3_ref = engine.Run(ChainQuery(500, 3), uncached);
  ASSERT_TRUE(w3_ref.ok());
  ExpectSameRows(*w3_ref, *w3);
}

TEST(PlanCacheTest, PointPositionsVerifiedOnHit) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  auto graph = SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{10}))).Build();
  RunOptions opts;
  auto first = engine.Run({.graph = graph, .positions = {5, 10, 20, 40}}, opts);
  auto again = engine.Run({.graph = graph, .positions = {5, 10, 20, 40}}, opts);
  auto other = engine.Run({.graph = graph, .positions = {7, 11, 21}}, opts);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(other.ok());
  ExpectSameRows(*first, *again);

  RunOptions uncached;
  uncached.exec.use_plan_cache = false;
  auto other_ref =
      engine.Run({.graph = graph, .positions = {7, 11, 21}}, uncached);
  ASSERT_TRUE(other_ref.ok());
  ExpectSameRows(*other_ref, *other);
}

TEST(PlanCacheTest, OptOutRunsNeverTouchTheCache) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  const PlanCacheStats before = PlanCache::Global().Stats();
  RunOptions opts;
  opts.exec.use_plan_cache = false;
  ASSERT_TRUE(engine.Run(SelectQuery(123), opts).ok());
  ASSERT_TRUE(engine.Run(SelectQuery(123), opts).ok());
  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);
}

// --- the differential guarantee ---------------------------------------------

TEST(PlanCacheTest, DifferentialParityAcrossDrivers) {
  SKIP_IF_CACHE_DISABLED();
  // A cache hit must be indistinguishable from a cold optimize: identical
  // rows AND identical simulated access counters, under batch and tuple
  // driving, serial and 4-worker morsel execution, range (stream) and
  // point (probed) requests.
  Engine engine = MakeEngine(11);
  for (bool use_batch : {true, false}) {
    for (int workers : {1, 4}) {
      for (bool probed : {false, true}) {
        Query q;
        if (probed) {
          q.graph =
              SeqRef("s").Select(Gt(Col("value"), Lit(int64_t{700}))).Build();
          q.positions = {3, 9, 27, 81, 243, 729};
        } else {
          q = ChainQuery(700, 5);
        }

        RunOptions warmup;
        warmup.exec.use_batch = use_batch;
        warmup.exec.parallelism = workers;
        // Template from a DIFFERENT literal, so the hit really rebinds.
        Query seed_q = q;
        seed_q.graph = probed ? SeqRef("s")
                                    .Select(Gt(Col("value"), Lit(int64_t{1})))
                                    .Build()
                              : ChainQuery(1, 5).graph;
        ASSERT_TRUE(engine.Run(seed_q, warmup).ok());

        RunOptions cached = warmup;
        AccessStats cached_stats;
        cached.stats = &cached_stats;
        auto hit = engine.Run(q, cached);
        ASSERT_TRUE(hit.ok()) << hit.status();

        RunOptions uncached = warmup;
        uncached.exec.use_plan_cache = false;
        AccessStats uncached_stats;
        uncached.stats = &uncached_stats;
        auto ref = engine.Run(q, uncached);
        ASSERT_TRUE(ref.ok()) << ref.status();

        SCOPED_TRACE("batch=" + std::to_string(use_batch) +
                     " workers=" + std::to_string(workers) +
                     " probed=" + std::to_string(probed));
        ExpectSameRows(*ref, *hit);
        ExpectSameStats(uncached_stats, cached_stats);
      }
    }
  }
}

// --- invalidation ------------------------------------------------------------

TEST(PlanCacheTest, CatalogMutationInvalidatesAndReplans) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.Run(SelectQuery(500)).ok());

  const PlanCacheStats before = PlanCache::Global().Stats();
  // Registering a base bumps the catalog version (new keys) and retires
  // the engine's entries eagerly.
  IntSeriesOptions options;
  options.span = Span::Of(0, 99);
  options.seed = 77;
  ASSERT_TRUE(engine.RegisterBase("t", *MakeIntSeries(options)).ok());
  const PlanCacheStats mid = PlanCache::Global().Stats();
  EXPECT_GE(mid.invalidations - before.invalidations, 1u);

  // The same shape misses (fresh optimize against the new catalog) and
  // still answers correctly.
  auto rerun = engine.Run(SelectQuery(500));
  ASSERT_TRUE(rerun.ok());
  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_GE(after.misses - mid.misses, 1u);
  EXPECT_GE(after.inserts - mid.inserts, 1u);

  RunOptions uncached;
  uncached.exec.use_plan_cache = false;
  auto ref = engine.Run(SelectQuery(500), uncached);
  ASSERT_TRUE(ref.ok());
  ExpectSameRows(*ref, *rerun);
}

TEST(PlanCacheTest, StatisticsMutationChangesKeys) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.Run(SelectQuery(500)).ok());
  const PlanCacheStats before = PlanCache::Global().Stats();
  // SetNullCorrelation changes planning inputs; the version bump must
  // force a re-optimize instead of serving the stale template.
  engine.catalog().SetNullCorrelation("s", "s", 0.5);
  auto rerun = engine.Run(SelectQuery(500));
  ASSERT_TRUE(rerun.ok());
  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_GE(after.misses - before.misses, 1u);
}

TEST(PlanCacheTest, OptimizerOptionVariantsGetDistinctKeys) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.Run(SelectQuery(500)).ok());
  const PlanCacheStats before = PlanCache::Global().Stats();
  // Same engine, same query shape, different planning options: must MISS
  // (the rewrites-off plan can differ), never reuse the rewrites-on plan.
  engine.options().enable_rewrites = false;
  auto off = engine.Run(SelectQuery(500));
  ASSERT_TRUE(off.ok());
  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_GE(after.misses - before.misses, 1u);
  engine.options().enable_rewrites = true;

  RunOptions uncached;
  uncached.exec.use_plan_cache = false;
  auto ref = engine.Run(SelectQuery(500), uncached);
  ASSERT_TRUE(ref.ok());
  ExpectSameRows(*ref, *off);
}

TEST(PlanCacheTest, EngineDestructionRetiresItsEntries) {
  SKIP_IF_CACHE_DISABLED();
  const PlanCacheStats before = PlanCache::Global().Stats();
  {
    Engine engine = MakeEngine();
    ASSERT_TRUE(engine.Run(SelectQuery(42)).ok());
  }
  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_GE(after.invalidations - before.invalidations, 1u);
}

// --- re-cost guard -----------------------------------------------------------

TEST(PlanCacheTest, RecostGuardFallsBackOnSelectivityShift) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  // Template built for a needle predicate (tiny estimated selectivity);
  // rebinding a match-everything literal shifts the estimate far past the
  // 4x threshold, so the hit must fall back to a full optimize.
  ASSERT_TRUE(engine.Run(SelectQuery(995)).ok());
  const PlanCacheStats before = PlanCache::Global().Stats();
  auto broad = engine.Run(SelectQuery(-1));
  ASSERT_TRUE(broad.ok());
  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_GE(after.recost_fallbacks - before.recost_fallbacks, 1u);

  RunOptions uncached;
  uncached.exec.use_plan_cache = false;
  auto ref = engine.Run(SelectQuery(-1), uncached);
  ASSERT_TRUE(ref.ok());
  ExpectSameRows(*ref, *broad);
  EXPECT_GT(broad->records.size(), 0u);

  // The fallback refreshed the template for the broad regime: an equal
  // rebinding now hits without tripping the guard again.
  const PlanCacheStats mid = PlanCache::Global().Stats();
  ASSERT_TRUE(engine.Run(SelectQuery(-2)).ok());
  const PlanCacheStats last = PlanCache::Global().Stats();
  EXPECT_GE(last.hits - mid.hits, 1u);
  EXPECT_EQ(last.recost_fallbacks, mid.recost_fallbacks);
}

// --- graceful degradation interplay ------------------------------------------

TEST(PlanCacheTest, CachedHitStillDegradesOnCacheBudget) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  const Query q = ChainQuery(200, 32);

  // Warm the template without any budget.
  ASSERT_TRUE(engine.Run(q).ok());

  // A hit whose execution trips the operator-cache budget must still take
  // the graceful cache-free re-plan and produce the right rows/stats.
  RunOptions tight;
  tight.exec.guards.max_cache_bytes = 1;
  AccessStats degraded_stats;
  tight.stats = &degraded_stats;
  auto degraded = engine.Run(q, tight);
  ASSERT_TRUE(degraded.ok()) << degraded.status();

  RunOptions tight_uncached = tight;
  tight_uncached.exec.use_plan_cache = false;
  AccessStats ref_stats;
  tight_uncached.stats = &ref_stats;
  auto ref = engine.Run(q, tight_uncached);
  ASSERT_TRUE(ref.ok());
  ExpectSameRows(*ref, *degraded);
  ExpectSameStats(ref_stats, degraded_stats);

  // The degraded (cache-free) plan must NOT have replaced the template: a
  // later unconstrained run hits and uses the full-speed plan.
  const PlanCacheStats before = PlanCache::Global().Stats();
  AccessStats normal_stats;
  RunOptions normal;
  normal.stats = &normal_stats;
  auto unconstrained = engine.Run(q, normal);
  ASSERT_TRUE(unconstrained.ok());
  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_GE(after.hits - before.hits, 1u);
  EXPECT_GT(normal_stats.cache_stores, 0)
      << "hit after a degraded run must use the original caching plan";
}

// --- Prepare -----------------------------------------------------------------

TEST(PlanCacheTest, PrepareHitsTheCache) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.Run(SelectQuery(300)).ok());
  const PlanCacheStats before = PlanCache::Global().Stats();
  auto prepared = engine.Prepare(SelectQuery(300));
  ASSERT_TRUE(prepared.ok());
  const PlanCacheStats after = PlanCache::Global().Stats();
  EXPECT_GE(after.hits - before.hits, 1u);

  auto run = prepared->Run(RunOptions{});
  ASSERT_TRUE(run.ok());
  RunOptions uncached;
  uncached.exec.use_plan_cache = false;
  auto ref = engine.Run(SelectQuery(300), uncached);
  ASSERT_TRUE(ref.ok());
  ExpectSameRows(*ref, *run);
}

// --- observability -----------------------------------------------------------

TEST(PlanCacheTest, RegistryRecordsPlanCachedFlag) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  QueryRegistry& registry = QueryRegistry::Global();
  ASSERT_TRUE(registry.enabled());
  ASSERT_TRUE(engine.Run(SelectQuery(777)).ok());
  ASSERT_TRUE(engine.Run(SelectQuery(778)).ok());
  const auto recent = registry.Recent();
  ASSERT_GE(recent.size(), 2u);
  EXPECT_TRUE(recent[0].plan_cached);   // the warm run (most recent first)
  EXPECT_FALSE(recent[1].plan_cached);  // the cold run
}

TEST(PlanCacheTest, ProfiledRunsBypassReadsButKeepTraces) {
  SKIP_IF_CACHE_DISABLED();
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.Run(SelectQuery(555)).ok());
  // EXPLAIN ANALYZE on a cached shape must still show a real optimizer
  // trace (profiled runs re-optimize) and say so in a note.
  auto analyze = engine.ExplainAnalyze(SelectQuery(555));
  ASSERT_TRUE(analyze.ok()) << analyze.status();
  EXPECT_NE(analyze->find("plan cache"), std::string::npos);
}

// --- capacity / LRU ----------------------------------------------------------

TEST(PlanCacheTest, LruEvictsByEntryCap) {
  // A private instance (8 shards, 8 entries total -> 1 per shard) so the
  // test controls capacity without touching the global cache.
  PlanCache cache(/*max_entries=*/8, /*max_bytes=*/1 << 20);
  for (int i = 0; i < 64; ++i) {
    auto entry = std::make_shared<PlanCacheEntry>();
    entry->engine_id = 1;
    entry->bytes = 100;
    cache.Insert("key" + std::to_string(i), std::move(entry));
  }
  const PlanCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_GE(stats.evictions, 56u);
}

TEST(PlanCacheTest, LruEvictsByByteCap) {
  PlanCache cache(/*max_entries=*/1024, /*max_bytes=*/8 * 1000);
  for (int i = 0; i < 64; ++i) {
    auto entry = std::make_shared<PlanCacheEntry>();
    entry->engine_id = 1;
    entry->bytes = 600;  // per-shard byte cap is 1000 -> at most 1 each
    cache.Insert("key" + std::to_string(i), std::move(entry));
  }
  const PlanCacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes, 8u * 1000u);
  EXPECT_GE(stats.evictions, 1u);
}

TEST(PlanCacheTest, DisableClearsAndStopsServing) {
  PlanCache cache(/*max_entries=*/16, /*max_bytes=*/1 << 20);
  auto entry = std::make_shared<PlanCacheEntry>();
  entry->engine_id = 1;
  entry->bytes = 10;
  cache.Insert("k", std::move(entry));
  EXPECT_NE(cache.Lookup("k"), nullptr);
  cache.set_enabled(false);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  cache.set_enabled(true);
  EXPECT_EQ(cache.Lookup("k"), nullptr) << "re-enabling must start cold";
}

// --- concurrency -------------------------------------------------------------

TEST(PlanCacheTest, ConcurrentHitsMissesAndInvalidations) {
  SKIP_IF_CACHE_DISABLED();
  // 8 threads hammer one shared engine with a rotating set of shapes and
  // literals (mixed hits, misses and rebinds) while 2 more threads churn
  // engines of their own (their destructors run concurrent invalidation)
  // and toggle/clear the global cache. Run under TSan in CI.
  Engine engine = MakeEngine(29);
  constexpr int kQueryThreads = 8;
  constexpr int kRunsPerThread = 40;

  std::vector<std::thread> threads;
  threads.reserve(kQueryThreads + 2);
  std::atomic<int> failures{0};
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&engine, &failures, t] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        const int64_t literal = 100 + 50 * ((t + i) % 7);
        Result<QueryResult> got =
            (i % 3 == 0) ? engine.Run(ChainQuery(literal, 4 + t % 3))
                         : engine.Run(SelectQuery(literal));
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        RunOptions uncached;
        uncached.exec.use_plan_cache = false;
        Result<QueryResult> want =
            (i % 3 == 0)
                ? engine.Run(ChainQuery(literal, 4 + t % 3), uncached)
                : engine.Run(SelectQuery(literal), uncached);
        if (!want.ok() || want->records.size() != got->records.size()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&failures] {
    for (int i = 0; i < 20; ++i) {
      Engine churn = MakeEngine(100 + i);
      if (!churn.Run(SelectQuery(500)).ok()) failures.fetch_add(1);
      // ~churn invalidates its entries concurrently with the readers.
    }
  });
  threads.emplace_back([] {
    for (int i = 0; i < 20; ++i) {
      PlanCache::Global().Clear();
      PlanCache::Global().set_enabled(false);
      PlanCache::Global().set_enabled(true);
      std::this_thread::yield();
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace seq
