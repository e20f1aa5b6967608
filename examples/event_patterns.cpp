// Composite-event pattern detection ([GJS92], the paper's "trigger
// mechanisms" domain) compiled into the sequence algebra, run two ways:
// retrospectively over a history, and live over arriving events through a
// StreamSession.
//
// The pattern: two failed logins within 10 ticks of each other, followed
// by a large transfer within 100 ticks — a classic fraud signature.

#include <iostream>

#include "common/rng.h"
#include "core/engine.h"
#include "exec/stream_session.h"
#include "parser/unparse.h"
#include "pattern/pattern.h"

using namespace seq;

namespace {

SchemaPtr EventSchema() {
  return Schema::Make(
      {Field{"kind", TypeId::kString}, Field{"amount", TypeId::kDouble}});
}

ExprPtr Kind(const char* k) { return Eq(Col("kind"), Lit(k)); }

Status AppendEvent(BaseSequenceStore* store, Position t, const char* kind,
                   double amount) {
  return store->Append(
      t, Record{Value::String(kind), Value::Double(amount)});
}

}  // namespace

int main() {
  Engine engine;
  auto store = std::make_shared<BaseSequenceStore>(EventSchema(), 32);

  // Synthetic activity: mostly benign, with two injected fraud episodes.
  Rng rng(99);
  Position t = 0;
  auto emit = [&](const char* kind, double amount) {
    t += rng.UniformInt(1, 4);
    (void)AppendEvent(store.get(), t, kind, amount);
  };
  for (int i = 0; i < 400; ++i) {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        emit("login_fail", 0);
        break;
      case 1:
        emit("transfer", rng.UniformDouble(10, 900));
        break;
      default:
        emit("login_ok", 0);
        break;
    }
    if (i == 150 || i == 300) {  // injected fraud episode
      emit("login_fail", 0);
      emit("login_fail", 0);
      emit("transfer", 5000 + rng.UniformDouble(0, 100));
    }
  }
  Position history_end = t;
  if (Status s = engine.RegisterBase("events", store); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  // The pattern, compiled into the paper's operators.
  Pattern pattern = Pattern::Start(Kind("login_fail"))
                        .Then(Kind("login_fail"), 10)
                        .Then(And(Kind("transfer"),
                                  Gt(Col("amount"), Lit(1000.0))),
                              100);
  auto graph = pattern.Compile(engine.catalog(), "events");
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  std::cout << "compiled pattern (Sequin form):\n  "
            << *UnparseQuery(**graph, "fraud") << "\n\n";

  // 1. Retrospective run over the whole history.
  AccessStats stats;
  auto matches =
      engine.Run({*graph, Span::Of(1, history_end)}, {.stats = &stats});
  if (!matches.ok()) {
    std::cerr << matches.status() << "\n";
    return 1;
  }
  std::cout << "historical matches (" << matches->records.size() << "):\n"
            << matches->ToString(5);
  std::cout << "single scan: " << stats.stream_records
            << " records read, 0 probes ("
            << (stats.probes == 0 ? "yes" : "NO") << ")\n\n";

  // 2. Live detection: the same compiled graph as a standing query.
  Engine live_engine;
  auto live_store = std::make_shared<BaseSequenceStore>(EventSchema(), 32);
  (void)live_engine.RegisterBase("events", live_store);
  auto live_graph = pattern.Compile(live_engine.catalog(), "events");
  StreamSession session(&live_engine.catalog(), *live_graph);

  Position lt = 0;
  int alerts = 0;
  for (int batch = 0; batch < 10; ++batch) {
    for (int i = 0; i < 30; ++i) {
      lt += rng.UniformInt(1, 4);
      const char* kind =
          rng.Bernoulli(0.15) ? "login_fail" : "login_ok";
      (void)session.Append("events", lt, Record{Value::String(kind),
                                                Value::Double(0)});
    }
    if (batch == 4) {  // inject a live fraud episode
      (void)session.Append("events", ++lt,
                           Record{Value::String("login_fail"),
                                  Value::Double(0)});
      (void)session.Append("events", ++lt,
                           Record{Value::String("login_fail"),
                                  Value::Double(0)});
      (void)session.Append("events", ++lt,
                           Record{Value::String("transfer"),
                                  Value::Double(9999)});
    }
    auto fresh = session.Poll();
    if (!fresh.ok()) {
      std::cerr << fresh.status() << "\n";
      return 1;
    }
    for (const PosRecord& alert : *fresh) {
      ++alerts;
      std::cout << "LIVE ALERT t=" << alert.pos << " amount "
                << alert.rec[1].ToString() << "\n";
    }
  }
  std::cout << alerts << " live alerts over " << lt << " ticks\n";
  return (matches->records.size() >= 2 && alerts >= 1) ? 0 : 1;
}
