// Stock-market analysis over the paper's Table 1 catalog (IBM, DEC, HP
// daily sequences with different spans and densities): moving averages, a
// golden-cross detector, weekly collapse, and the Fig. 3 span optimization
// in action.

#include <iostream>

#include "core/engine.h"
#include "workload/generators.h"

using namespace seq;

int main() {
  Engine engine;
  if (Status s = RegisterTable1Stocks(&engine.catalog()); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  for (const std::string& name : engine.catalog().ListSequences()) {
    auto entry = engine.catalog().Lookup(name);
    std::cout << name << ": " << (*entry)->store->DescribeMeta() << "\n";
  }
  std::cout << "\n";

  // 1. Moving averages: 5-day vs 20-day on IBM closes.
  auto fast = SeqRef("ibm").Agg(AggFunc::kAvg, "close", 5, "fast");
  auto slow = SeqRef("ibm").Agg(AggFunc::kAvg, "close", 20, "slow");
  auto crossover =
      fast.ComposeWith(slow, Gt(Col("fast", 0), Col("slow", 1))).Build();
  auto golden = engine.Run({crossover});
  if (!golden.ok()) {
    std::cerr << golden.status() << "\n";
    return 1;
  }
  std::cout << "days where the 5-day average is above the 20-day ("
            << golden->records.size() << "):\n"
            << golden->ToString(3) << "\n";

  // 2. Weekly view (§5.1 ordering domains): collapse daily HP closes into
  // weekly averages.
  auto weekly = SeqRef("hp").Collapse(7, AggFunc::kAvg, "close", "week_avg")
                    .Build();
  auto weeks = engine.Run({weekly});
  std::cout << "weekly HP averages (" << weeks->records.size()
            << " weeks):\n"
            << weeks->ToString(3) << "\n";

  // 3. The Fig. 3 query: DEC prices on days where IBM closed above HP —
  // with and without span propagation. The spans are IBM [200,500],
  // DEC [1,350], HP [1,750]; their intersection [200,350] is all the
  // optimizer ever needs to scan.
  auto fig3 = SeqRef("dec")
                  .Project({"close"}, {"dec_close"})
                  .ComposeWith(SeqRef("ibm").ComposeWith(
                                   SeqRef("hp"),
                                   Gt(Col("close", 0), Col("close", 1))))
                  .Project({"dec_close"})
                  .Build();

  AccessStats with_spans;
  auto r1 = engine.Run({fig3}, {.stats = &with_spans});
  if (!r1.ok()) {
    std::cerr << r1.status() << "\n";
    return 1;
  }

  OptimizerOptions no_pushdown;
  no_pushdown.enable_span_pushdown = false;
  Engine engine2(no_pushdown);
  (void)RegisterTable1Stocks(&engine2.catalog());
  AccessStats without_spans;
  auto r2 = engine2.Run({fig3, Span::Of(1, 750)}, {.stats = &without_spans});

  std::cout << "Fig. 3 span optimization (" << r1->records.size()
            << " answers either way):\n";
  std::cout << "  with span propagation:    " << with_spans.stream_records
            << " records, " << with_spans.stream_pages << " pages\n";
  std::cout << "  without span propagation: " << without_spans.stream_records
            << " records, " << without_spans.stream_pages << " pages\n";
  return 0;
}
