// The paper's motivating example (Example 1.1): "For which volcano
// eruptions was the strength of the most recent earthquake greater than
// 7.0 on the Richter scale?" — run through the SEQ engine's single-scan
// stream plan and through the relational nested-subquery baseline, with
// access counts side by side.

#include <iostream>

#include "core/engine.h"
#include "relational/table.h"
#include "relational/volcano_sql.h"
#include "workload/generators.h"

using namespace seq;

int main() {
  // Synthetic weather-monitoring history: earthquakes and volcano
  // eruptions sequenced by the time they are recorded.
  EventSeriesOptions eq;
  eq.span = Span::Of(1, 50000);
  eq.density = 0.02;  // ~1000 earthquakes
  eq.seed = 42;
  auto quakes = MakeEarthquakes(eq);
  EventSeriesOptions vo;
  vo.span = Span::Of(1, 50000);
  vo.density = 0.004;  // ~200 eruptions
  vo.seed = 43;
  auto volcanos = MakeVolcanos(vo);
  if (!quakes.ok() || !volcanos.ok()) return 1;

  Engine engine;
  (void)engine.RegisterBase("quakes", *quakes);
  (void)engine.RegisterBase("volcanos", *volcanos);

  // The sequence query: compose each eruption with the most recent
  // earthquake (Previous), keep the strong ones (Fig. 1).
  auto query = SeqRef("volcanos")
                   .ComposeWith(SeqRef("quakes").Prev())
                   .Select(Gt(Col("strength"), Lit(7.0)))
                   .Project({"name", "strength"})
                   .Build();

  AccessStats stats;
  auto result = engine.Run({query, Span::Of(1, 50000)}, {.stats = &stats});
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::cout << "SEQ stream plan — eruptions preceded by a >7.0 quake ("
            << result->records.size() << " answers):\n"
            << result->ToString(5) << "\n";
  std::cout << "sequence engine accesses: " << stats.ToString() << "\n\n";

  // The relational baseline: the nested-subquery plan the paper says a
  // conventional optimizer would produce.
  auto vtable = relational::TableFromSequence(**volcanos);
  auto qtable = relational::TableFromSequence(**quakes);
  relational::RelStats rel_stats;
  auto sql = relational::VolcanoQuerySql(*vtable, *qtable, 7.0, &rel_stats);
  if (!sql.ok()) {
    std::cerr << sql.status() << "\n";
    return 1;
  }
  std::cout << "relational baseline — " << sql->size() << " answers, "
            << rel_stats.tuples_scanned << " tuples scanned (vs "
            << stats.stream_records << " records streamed)\n";
  std::cout << "speedup in data accesses: "
            << static_cast<double>(rel_stats.tuples_scanned) /
                   static_cast<double>(stats.stream_records)
            << "x\n";

  // Sanity: both plans agree.
  bool same = sql->size() == result->records.size();
  for (size_t i = 0; same && i < sql->size(); ++i) {
    same = (*sql)[i] == result->records[i].rec[0].str();
  }
  std::cout << (same ? "answers identical\n" : "ANSWER MISMATCH!\n");
  return same ? 0 : 1;
}
