// Tests for the Session facade (core/session.h): the one client surface
// shared by seqsh local mode, seqsh --connect and every seqserved
// connection. Covers the owned-engine and shared-engine modes, the
// bare-name shortcuts, session-scoped views, the prepared-statement
// lifecycle, Close() semantics and query-registry attribution.

#include "core/session.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/plan_cache.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "parser/parser.h"
#include "workload/generators.h"

namespace seq {
namespace {

// The same series `gen ibm 1 400 1.0 7` builds, registered directly into
// a reference engine so session answers can be checked against plain
// Engine::Run.
Result<BaseSequencePtr> ReferenceSeries() {
  StockSeriesOptions options;
  options.span = Span::Of(1, 400);
  options.density = 1.0;
  options.seed = 7;
  return MakeStockSeries(options);
}

std::unique_ptr<Engine> ReferenceEngine() {
  auto engine = std::make_unique<Engine>();
  auto series = ReferenceSeries();
  EXPECT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_TRUE(engine->RegisterBase("ibm", *series).ok());
  return engine;
}

// Exact row equality, including bit-exact doubles — the wire protocol
// ships doubles as bit patterns, so nothing may perturb them anywhere in
// the session path either.
void ExpectRowsEqual(const std::vector<PosRecord>& want,
                     const std::vector<PosRecord>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].pos, got[i].pos) << "row " << i;
    ASSERT_EQ(want[i].rec.size(), got[i].rec.size()) << "row " << i;
    for (size_t j = 0; j < want[i].rec.size(); ++j) {
      const Value& a = want[i].rec[j];
      const Value& b = got[i].rec[j];
      ASSERT_EQ(a.type(), b.type()) << "row " << i << " col " << j;
      switch (a.type()) {
        case TypeId::kInt64:
          EXPECT_EQ(a.int64(), b.int64()) << "row " << i << " col " << j;
          break;
        case TypeId::kDouble:
          EXPECT_EQ(a.dbl(), b.dbl()) << "row " << i << " col " << j;
          break;
        case TypeId::kBool:
          EXPECT_EQ(a.boolean(), b.boolean()) << "row " << i << " col " << j;
          break;
        case TypeId::kString:
          EXPECT_EQ(a.str(), b.str()) << "row " << i << " col " << j;
          break;
      }
    }
  }
}

std::vector<PosRecord> RunReference(const std::string& source) {
  auto engine = ReferenceEngine();
  auto program = ParseSequin(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto result = engine->Run({program->main});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result->records);
}

constexpr const char* kQuery = "q = select(ibm, close > 100.0);";

TEST(SessionTest, OwnedEngineDefineAndRun) {
  LocalSession session;
  auto gen = session.Command({"gen", "ibm", "1", "400", "1.0", "7"});
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_NE(gen->find("generated ibm"), std::string::npos);

  auto reply = session.Execute(kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  // A definition both registers the session view and (as program main)
  // evaluates it.
  EXPECT_NE(reply->text.find("defined q"), std::string::npos);
  ASSERT_TRUE(reply->is_rows);
  ASSERT_NE(reply->schema, nullptr);
  ExpectRowsEqual(RunReference(kQuery), reply->rows);
}

TEST(SessionTest, BareNameAndExplainShortcuts) {
  LocalSession session;
  ASSERT_TRUE(session.Command({"gen", "ibm", "1", "400", "1.0", "7"}).ok());
  ASSERT_TRUE(session.Execute(kQuery).ok());

  // "q;" has no grammar production; the session resolves it as a view ref.
  auto rerun = session.Execute("q;");
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  ASSERT_TRUE(rerun->is_rows);
  ExpectRowsEqual(RunReference(kQuery), rerun->rows);

  // Base sequences resolve the same way.
  auto base = session.Execute("ibm;");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->rows.size(), 400u);

  auto explain = session.Execute("explain q;");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_FALSE(explain->is_rows);
  EXPECT_FALSE(explain->text.empty());

  auto analyze = session.Execute("explain analyze q;");
  ASSERT_TRUE(analyze.ok()) << analyze.status().ToString();
  EXPECT_FALSE(analyze->is_rows);
  EXPECT_FALSE(analyze->text.empty());

  auto missing = session.Execute("nosuch;");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SessionTest, RedefinitionAndShadowingRejected) {
  LocalSession session;
  ASSERT_TRUE(session.Command({"gen", "ibm", "1", "400", "1.0", "7"}).ok());
  ASSERT_TRUE(session.Execute(kQuery).ok());

  auto redefine = session.Execute(kQuery);
  ASSERT_FALSE(redefine.ok());
  EXPECT_EQ(redefine.status().code(), StatusCode::kInvalidArgument);

  auto shadow = session.Execute("ibm = select(ibm, close > 0.0);");
  ASSERT_FALSE(shadow.ok());
  EXPECT_EQ(shadow.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, DuplicateProjectNamesRejected) {
  LocalSession session;
  ASSERT_TRUE(session.Command({"gen", "ibm", "1", "400", "1.0", "7"}).ok());
  for (const char* text : {"d1 = project(ibm, open as x, close as x);",
                           "d2 = project(ibm, open as close, close);"}) {
    auto reply = session.Execute(text);
    ASSERT_FALSE(reply.ok()) << text;
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(reply.status().message().find("duplicate field name"),
              std::string::npos)
        << reply.status().ToString();
  }
  auto after = session.Execute(kQuery);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectRowsEqual(RunReference(kQuery), after->rows);
}

TEST(SessionTest, SessionViewsAreScopedPerSession) {
  Engine engine;
  std::shared_mutex gate;
  auto series = ReferenceSeries();
  ASSERT_TRUE(series.ok());
  ASSERT_TRUE(engine.RegisterBase("ibm", *series).ok());

  LocalSession a(&engine, &gate);
  LocalSession b(&engine, &gate);

  // Both sessions define the same name with different bodies: no clash.
  auto ra = a.Execute("v = select(ibm, close > 100.0);");
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto rb = b.Execute("v = select(ibm, close <= 100.0);");
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_NE(ra->rows.size(), rb->rows.size());
  EXPECT_EQ(ra->rows.size() + rb->rows.size(), 400u);

  // The definitions never leak into the shared engine.
  EXPECT_TRUE(engine.views().empty());
  LocalSession c(&engine, &gate);
  auto rc = c.Execute("v;");
  ASSERT_FALSE(rc.ok());
  EXPECT_EQ(rc.status().code(), StatusCode::kNotFound);
}

TEST(SessionTest, PreparedStatementLifecycle) {
  LocalSession session;
  ASSERT_TRUE(session.Command({"gen", "ibm", "1", "400", "1.0", "7"}).ok());

  auto id = session.Prepare(kQuery);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  const std::vector<PosRecord> want = RunReference(kQuery);
  for (int i = 0; i < 3; ++i) {
    auto reply = session.ExecutePrepared(*id);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->is_rows);
    ExpectRowsEqual(want, reply->rows);
  }

  EXPECT_TRUE(session.CloseStatement(*id).ok());
  auto gone = session.ExecutePrepared(*id);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.CloseStatement(*id).code(), StatusCode::kNotFound);

  // Bare names prepare too; EXPLAIN programs do not.
  auto bare = session.Prepare("ibm;");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  auto all = session.ExecutePrepared(*bare);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 400u);
  auto explain = session.Prepare("explain ibm;");
  ASSERT_FALSE(explain.ok());
  EXPECT_EQ(explain.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, RangeAndStatsApplyToEveryQuery) {
  LocalSession session;
  ASSERT_TRUE(session.Command({"gen", "ibm", "1", "400", "1.0", "7"}).ok());
  session.range() = Span::Of(100, 200);
  session.set_collect_stats(true);

  auto reply = session.Execute("ibm;");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->rows.size(), 101u);
  for (const PosRecord& row : reply->rows) {
    EXPECT_GE(row.pos, 100);
    EXPECT_LE(row.pos, 200);
  }
  ASSERT_TRUE(reply->has_stats);
  EXPECT_EQ(reply->stats.records_output,
            static_cast<int64_t>(reply->rows.size()));

  // The range also binds into prepared statements.
  auto id = session.Prepare("ibm;");
  ASSERT_TRUE(id.ok());
  auto prepared = session.ExecutePrepared(*id);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->rows.size(), 101u);
}

TEST(SessionTest, SinkStreamsInsteadOfMaterializing) {
  LocalSession session;
  ASSERT_TRUE(session.Command({"gen", "ibm", "1", "400", "1.0", "7"}).ok());

  std::vector<PosRecord> streamed;
  session.options().sink = [&streamed](Position pos, const Record& rec) {
    streamed.push_back({pos, rec});
  };
  auto reply = session.Execute(kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->is_rows);
  EXPECT_TRUE(reply->rows.empty());
  ExpectRowsEqual(RunReference(kQuery), streamed);
}

TEST(SessionTest, CloseCancelsFurtherCalls) {
  LocalSession session;
  ASSERT_TRUE(session.Command({"gen", "ibm", "1", "400", "1.0", "7"}).ok());
  session.Close();
  session.Close();  // idempotent

  EXPECT_EQ(session.Execute("ibm;").status().code(), StatusCode::kCancelled);
  EXPECT_EQ(session.Prepare("ibm;").status().code(), StatusCode::kCancelled);
  EXPECT_EQ(session.ExecutePrepared(1).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(session.CloseStatement(1).code(), StatusCode::kCancelled);
  EXPECT_EQ(session.Telemetry("metrics").status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(session.Command({"list"}).status().code(), StatusCode::kCancelled);
}

TEST(SessionTest, TelemetryKinds) {
  LocalSession session;
  for (const char* kind : {"metrics", "prom", "json", "queries", "sched",
                           "plancache", "slowlog"}) {
    auto text = session.Telemetry(kind);
    ASSERT_TRUE(text.ok()) << kind << ": " << text.status().ToString();
    EXPECT_FALSE(text->empty()) << kind;
  }
  auto bogus = session.Telemetry("bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, UnknownCommandsRejected) {
  LocalSession session;
  EXPECT_EQ(session.Command({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Command({"frobnicate"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Command({"gen", "x", "bad", "args", "here"})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The plan cache has one switch. Starting from a disabled cache (as
// SEQ_PLAN_CACHE=0 starts it), `plancache on` must make a repeated query
// hit the cache — no per-request default may keep bypassing it.
TEST(SessionTest, PlanCacheOnEnablesCachingForEveryQuery) {
  struct RestoreCacheFlag {
    bool was = PlanCache::Global().enabled();
    ~RestoreCacheFlag() { PlanCache::Global().set_enabled(was); }
  } restore;
  PlanCache::Global().set_enabled(false);

  LocalSession session;
  ASSERT_TRUE(session.Command({"gen", "ibm", "1", "400", "1.0", "7"}).ok());
  auto on = session.Command({"plancache", "on"});
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(*on, "plan cache on\n");

  const MetricCounter& hits =
      MetricsRegistry::Global().Counter("engine.plan_cache.hits");
  ASSERT_TRUE(session.Execute(kQuery).ok());
  const int64_t hits_before = hits.Value();
  auto rerun = session.Execute("q;");
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_GT(hits.Value(), hits_before);
  ExpectRowsEqual(RunReference(kQuery), rerun->rows);
}

TEST(SessionTest, QueriesAreAttributedToTheSession) {
  LocalSession session;
  ASSERT_TRUE(session.Command({"gen", "ibm", "1", "400", "1.0", "7"}).ok());
  ASSERT_TRUE(session.Execute(kQuery).ok());

  bool found = false;
  for (const CompletedQueryInfo& q : QueryRegistry::Global().Recent()) {
    if (q.session_id == session.id()) {
      EXPECT_EQ(q.status, "OK");
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "no completed query attributed to session "
                     << session.id();

  // The `.queries` rendering shows the session tag.
  auto text = session.Telemetry("queries");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("s" + std::to_string(session.id())),
            std::string::npos);
}

}  // namespace
}  // namespace seq
