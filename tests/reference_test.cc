// Oracle tests: the optimizing engine's answers must equal the naive
// reference evaluator's position-by-position computation of the paper's
// model semantics, for randomized graphs, for targeted operator cases and
// for composite-event patterns written in Sequin.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "exec/stream_session.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace seq {
namespace {

using seq::testing::ExpectSameRecords;
using seq::testing::FillSmallCatalog;
using seq::testing::RandomGraph;
using seq::testing::RandomGraphOptions;
using seq::testing::ReferenceEvaluator;

constexpr Span kSpan = Span::Of(0, 399);
// Horizon with slack so offsets shifted outside the span stay exact.
constexpr Span kHorizon = Span::Of(-60, 459);

class OracleTest : public ::testing::TestWithParam<uint64_t> {};

/// The range a StreamSession's first Poll covers over a static catalog:
/// from the earliest base input (widened by the query's positive scope
/// offsets, whose output precedes its input) to the end of the shortest
/// base input. Empty when the graph reads no base sequence.
Span FirstPollRange(const Catalog& catalog, const LogicalOp& graph) {
  std::vector<const LogicalOp*> leaves;
  graph.CollectLeaves(&leaves);
  Position earliest = kMaxPosition;
  Position frontier = kMaxPosition;
  for (const LogicalOp* leaf : leaves) {
    if (leaf->kind() != OpKind::kBaseRef) continue;
    const Span span = catalog.Lookup(leaf->seq_name()).value()->store->span();
    earliest = std::min(earliest, span.start);
    frontier = std::min(frontier, span.end);
  }
  if (earliest == kMaxPosition) return Span::Empty();
  int64_t lead = 0;
  for (const ScopeSpec& scope : graph.QueryScopeOverLeaves()) {
    if (scope.bounded_above) lead = std::max<int64_t>(lead, scope.max_offset);
  }
  return Span::Of(earliest - lead, frontier);
}

// Every random graph against the reference, through each way the engine
// plans a query: Run (cache miss), Prepare → PreparedQuery::Run, a
// plan-cache hit, the shared cache-free re-plan (a 1-byte operator-cache
// budget degrades every plan that caches), and a StreamSession degraded
// under the same budget — and through each way the executor drives one:
// a sink run, tuple driving, forced morsels and 16-position checkpoint
// chunks.
TEST_P(OracleTest, EngineMatchesReferenceOnRandomGraphs) {
  uint64_t seed = GetParam();
  Engine engine;
  FillSmallCatalog(&engine.catalog(), seed);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);
  Rng rng(seed * 7919);
  RandomGraphOptions opts;
  opts.allow_overall_agg = false;
  const MetricCounter& cache_hits =
      MetricsRegistry::Global().Counter("engine.plan_cache.hits");
  RunOptions tiny_budget;
  tiny_budget.exec.guards.max_cache_bytes = 1;

  for (int trial = 0; trial < 6; ++trial) {
    LogicalOpPtr graph =
        RandomGraph(engine.catalog(), &rng, 1 + trial % 3, opts);
    const std::string where = "seed " + std::to_string(seed) + " trial " +
                              std::to_string(trial) + "\n" +
                              graph->ToTreeString();
    Span range = Span::Of(kSpan.start - 20, kSpan.end + 20);
    auto engine_result = engine.Run({graph, range});
    if (!engine_result.ok()) continue;  // degenerate random graph
    auto oracle = reference.Materialize(*graph, range);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ExpectSameRecords(engine_result->records, *oracle, where);

    std::vector<PosRecord> sunk;
    RunOptions sink;
    sink.sink = [&sunk](Position p, const Record& rec) {
      sunk.push_back(PosRecord{p, rec});
    };
    auto sink_run = engine.Run({graph, range}, sink);
    ASSERT_TRUE(sink_run.ok()) << sink_run.status() << "\n" << where;
    ExpectSameRecords(sunk, *oracle, "sink " + where);

    RunOptions tuple;
    tuple.exec.use_batch = false;
    RunOptions morsels;
    morsels.exec.parallelism = 4;
    morsels.exec.morsel_size = 16;
    RunOptions chunked;
    chunked.exec.checkpoint.enabled = true;
    chunked.exec.checkpoint.chunk = 16;
    for (const auto& [name, driver] :
         {std::pair{"tuple ", tuple}, std::pair{"morsels ", morsels},
          std::pair{"checkpoint chunks ", chunked}}) {
      auto run = engine.Run({graph, range}, driver);
      ASSERT_TRUE(run.ok()) << name << run.status() << "\n" << where;
      ExpectSameRecords(run->records, *oracle, name + where);
    }

    auto prepared = engine.Prepare({graph, range});
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    auto prepared_result = prepared->Run();
    ASSERT_TRUE(prepared_result.ok()) << prepared_result.status();
    ExpectSameRecords(prepared_result->records, *oracle, "prepared " + where);

    const int64_t hits_before = cache_hits.Value();
    auto hit = engine.Run({graph, range});
    ASSERT_TRUE(hit.ok()) << hit.status();
    if (PlanCache::Global().enabled()) {
      EXPECT_GT(cache_hits.Value(), hits_before) << where;
    }
    ExpectSameRecords(hit->records, *oracle, "cache hit " + where);

    auto degraded = engine.Run({graph, range}, tiny_budget);
    ASSERT_TRUE(degraded.ok()) << degraded.status() << "\n" << where;
    ExpectSameRecords(degraded->records, *oracle, "cache-free " + where);

    const Span polled = FirstPollRange(engine.catalog(), *graph);
    if (polled.IsEmpty()) continue;  // no base input to stream
    StreamSession stream(&engine.catalog(), graph, engine.options(), 1024,
                         tiny_budget.exec);
    auto rows = stream.Poll();
    ASSERT_TRUE(rows.ok()) << rows.status() << "\n" << where;
    EXPECT_EQ(stream.high_water_mark(), polled.end) << where;
    auto stream_oracle = reference.Materialize(*graph, polled);
    ASSERT_TRUE(stream_oracle.ok()) << stream_oracle.status();
    ExpectSameRecords(*rows, *stream_oracle, "stream " + where);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleTest,
                         ::testing::Range<uint64_t>(1, 21));

// Targeted single-operator oracle checks over every aggregate function and
// several window sizes — cheap, exhaustive within the grid.
class AggOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(AggOracleTest, WindowAggMatchesReference) {
  auto [func_idx, window] = GetParam();
  AggFunc func = static_cast<AggFunc>(func_idx);
  Engine engine;
  FillSmallCatalog(&engine.catalog(), 1234);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);

  auto graph =
      SeqRef("s1").Agg(func, "v", window).Build();  // s1: density 0.5
  auto engine_result = engine.Run({graph, kSpan});
  ASSERT_TRUE(engine_result.ok()) << engine_result.status();
  auto oracle = reference.Materialize(*graph, kSpan);
  ASSERT_TRUE(oracle.ok());
  ExpectSameRecords(engine_result->records, *oracle,
                    std::string(AggFuncName(func)) + " window " +
                        std::to_string(window));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AggOracleTest,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values<int64_t>(1, 2, 5, 17)));

class OffsetOracleTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(OffsetOracleTest, ValueOffsetMatchesReference) {
  int64_t l = GetParam();
  Engine engine;
  FillSmallCatalog(&engine.catalog(), 777);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);
  auto graph = SeqRef("s2").ValueOffset(l).Build();  // s2: density 0.1
  auto engine_result = engine.Run({graph, kSpan});
  ASSERT_TRUE(engine_result.ok()) << engine_result.status();
  auto oracle = reference.Materialize(*graph, kSpan);
  ASSERT_TRUE(oracle.ok());
  ExpectSameRecords(engine_result->records, *oracle,
                    "value offset " + std::to_string(l));
}

INSTANTIATE_TEST_SUITE_P(Offsets, OffsetOracleTest,
                         ::testing::Values(-3, -2, -1, 1, 2, 3));

TEST(CollapseOracleTest, MatchesReference) {
  Engine engine;
  FillSmallCatalog(&engine.catalog(), 31);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);
  for (int64_t factor : {2, 7, 30}) {
    auto graph = SeqRef("s0").Collapse(factor, AggFunc::kSum, "v").Build();
    auto engine_result = engine.Run({graph});
    ASSERT_TRUE(engine_result.ok());
    Span collapsed = Span::Of(0, kSpan.end / factor);
    auto oracle = reference.Materialize(*graph, collapsed);
    ASSERT_TRUE(oracle.ok());
    ExpectSameRecords(engine_result->records, *oracle,
                      "collapse " + std::to_string(factor));
  }
}

TEST(ComposeOracleTest, JoinPredicateMatchesReference) {
  Engine engine;
  FillSmallCatalog(&engine.catalog(), 55);
  ReferenceEvaluator reference(&engine.catalog(), kHorizon);
  auto graph = SeqRef("s0")
                   .ComposeWith(SeqRef("s1"), Gt(Col("v", 0), Col("v", 1)))
                   .Build();
  auto engine_result = engine.Run({graph, kSpan});
  ASSERT_TRUE(engine_result.ok());
  auto oracle = reference.Materialize(*graph, kSpan);
  ASSERT_TRUE(oracle.ok());
  ExpectSameRecords(engine_result->records, *oracle, "compose-pred");
}

// ---------------------------------------------------------------------------
// Composite-event patterns as Sequin views. Step k matches at position i
// iff its kind occurs at i and step k-1 matched at some j with
// i - gap_k <= j < i. Each step composes a selection with the previous
// step's matches counted over a trailing window of gap_k and shifted back
// one position; WindowAgg emits only where its window is non-empty, so the
// positional join is the existence test. The random-graph oracle does not
// generate this nesting.
// ---------------------------------------------------------------------------

using Events = std::vector<std::pair<Position, std::string>>;
/// (kind, gap) per step; the first step's gap is unused.
using Steps = std::vector<std::pair<std::string, int64_t>>;

std::string PatternSequin(const Steps& steps) {
  std::string text =
      "m0 = select(events, kind == \"" + steps[0].first + "\");\n";
  for (size_t k = 1; k < steps.size(); ++k) {
    text += "m" + std::to_string(k) +
            " = project(compose(select(events, kind == \"" + steps[k].first +
            "\"), offset(count(m" + std::to_string(k - 1) + ", kind, over " +
            std::to_string(steps[k].second) + "), -1)), kind);\n";
  }
  return text;
}

// Brute-force oracle: dynamic-programming match over the raw event list.
std::vector<Position> BruteForceMatches(const Events& events,
                                        const Steps& steps) {
  // match[k] = positions where step k matched.
  std::vector<std::vector<Position>> match(steps.size());
  for (const auto& [pos, kind] : events) {
    if (kind == steps[0].first) match[0].push_back(pos);
  }
  for (size_t k = 1; k < steps.size(); ++k) {
    for (const auto& [pos, kind] : events) {
      if (kind != steps[k].first) continue;
      for (Position j : match[k - 1]) {
        if (j < pos && j >= pos - steps[k].second) {
          match[k].push_back(pos);
          break;
        }
      }
    }
  }
  return match.back();
}

BaseSequencePtr EventStore() {
  return std::make_shared<BaseSequenceStore>(
      Schema::Make({Field{"kind", TypeId::kString}}), 8);
}

std::vector<Position> PositionsOf(const std::vector<PosRecord>& rows) {
  std::vector<Position> out;
  for (const PosRecord& pr : rows) out.push_back(pr.pos);
  return out;
}

/// Runs the pattern over the whole history (engine against the brute-force
/// matcher and the reference), then feeds the same events to one
/// StreamSession in batches of `batch`: after each Poll, the rows emitted
/// so far must be exactly the matches among the events appended so far.
void ExpectPatternMatches(const Events& events, const Steps& steps,
                          size_t batch, const std::string& label) {
  Engine engine;
  BaseSequencePtr store = EventStore();
  for (const auto& [pos, kind] : events) {
    ASSERT_TRUE(store->Append(pos, Record{Value::String(kind)}).ok());
  }
  ASSERT_TRUE(engine.RegisterBase("events", store).ok());
  auto graph = ParseSequinQuery(PatternSequin(steps));
  ASSERT_TRUE(graph.ok()) << graph.status();

  const Position last = events.back().first;
  const Span range = Span::Of(0, last + 20);
  auto history = engine.Run({*graph, range});
  ASSERT_TRUE(history.ok()) << history.status();
  EXPECT_EQ(PositionsOf(history->records), BruteForceMatches(events, steps))
      << label;
  ReferenceEvaluator reference(&engine.catalog(), Span::Of(-20, last + 20));
  auto oracle = reference.Materialize(**graph, range);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ExpectSameRecords(history->records, *oracle, label);

  Engine live;
  ASSERT_TRUE(live.RegisterBase("events", EventStore()).ok());
  StreamSession session(&live.catalog(), (*graph)->Clone());
  std::vector<PosRecord> emitted;
  for (size_t begin = 0; begin < events.size(); begin += batch) {
    const size_t end = std::min(events.size(), begin + batch);
    for (size_t e = begin; e < end; ++e) {
      ASSERT_TRUE(session
                      .Append("events", events[e].first,
                              Record{Value::String(events[e].second)})
                      .ok());
    }
    auto fresh = session.Poll();
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    emitted.insert(emitted.end(), fresh->begin(), fresh->end());
    const Events appended(events.begin(), events.begin() + end);
    ASSERT_EQ(PositionsOf(emitted), BruteForceMatches(appended, steps))
        << label << " after " << end << " events";
  }
  ExpectSameRecords(emitted, *oracle, "stream " + label);
}

TEST(PatternTest, TwoStepWithinGap) {
  // a@1, b@3 (gap 2 after a), b@10 (too far), a@12, b@13.
  const Events events = {{1, "a"}, {3, "b"}, {10, "b"}, {12, "a"}, {13, "b"}};
  const Steps steps = {{"a", 0}, {"b", 3}};
  EXPECT_EQ(BruteForceMatches(events, steps), (std::vector<Position>{3, 13}));
  ExpectPatternMatches(events, steps, 2, "a then b within 3");
}

TEST(PatternTest, GapIsStrictlyAfter) {
  // a and b at the same position do NOT chain (a step requires j < i).
  const Events events = {{5, "a"}, {6, "b"}};
  const Steps same = {{"a", 0}, {"a", 5}};
  EXPECT_TRUE(BruteForceMatches(events, same).empty());
  ExpectPatternMatches(events, same, 1, "a then a within 5");
  const Steps next = {{"a", 0}, {"b", 1}};
  EXPECT_EQ(BruteForceMatches(events, next), (std::vector<Position>{6}));
  ExpectPatternMatches(events, next, 1, "a then b within 1");
}

TEST(PatternTest, ThreeStepFraudShape) {
  // Two failed logins within 10 of each other, then a transfer within 100.
  const Events events = {{1, "login_fail"},
                         {5, "login_fail"},    // chains with @1
                         {50, "transfer"},     // within 100 of @5
                         {300, "login_fail"},
                         {400, "transfer"}};   // no 2nd fail near 300
  const Steps steps = {
      {"login_fail", 0}, {"login_fail", 10}, {"transfer", 100}};
  EXPECT_EQ(BruteForceMatches(events, steps), (std::vector<Position>{50}));
  ExpectPatternMatches(events, steps, 2, "fraud shape");
}

class PatternOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PatternOracleTest, SequinPatternMatchesBruteForce) {
  Rng rng(GetParam());
  const char* kinds[] = {"a", "b", "c"};
  Events events;
  Position p = 0;
  for (int i = 0; i < 120; ++i) {
    p += rng.UniformInt(1, 6);
    events.emplace_back(p, kinds[rng.UniformInt(0, 2)]);
  }
  for (int trial = 0; trial < 4; ++trial) {
    const int64_t g1 = rng.UniformInt(1, 12);
    const int64_t g2 = rng.UniformInt(1, 12);
    const size_t batch = static_cast<size_t>(rng.UniformInt(1, 40));
    ExpectPatternMatches(events, {{"a", 0}, {"b", g1}, {"c", g2}}, batch,
                         "g1=" + std::to_string(g1) +
                             " g2=" + std::to_string(g2) +
                             " batch=" + std::to_string(batch));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternOracleTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace seq
