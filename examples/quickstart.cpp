// Quickstart: build a sequence, query it with the fluent builder and with
// the Sequin text language, and look at the optimizer's plan.

#include <iostream>

#include "core/engine.h"
#include "parser/parser.h"

using namespace seq;

int main() {
  // 1. A base sequence: daily temperature readings, some days missing.
  SchemaPtr schema = Schema::Make({Field{"temp", TypeId::kDouble}});
  auto store = std::make_shared<BaseSequenceStore>(schema, /*per_page=*/16);
  const std::pair<Position, double> readings[] = {
      {1, 11.5}, {2, 13.0}, {3, 12.2}, {5, 17.8}, {6, 19.5},
      {7, 16.1}, {9, 21.0}, {10, 20.4}, {12, 14.9}, {13, 13.3},
  };
  for (auto [day, temp] : readings) {
    Status s = store->Append(day, Record{Value::Double(temp)});
    if (!s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }

  Engine engine;
  if (Status s = engine.RegisterBase("temps", store); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  // 2. A declarative query via the fluent builder: 3-day moving average of
  // the warm days.
  auto query = SeqRef("temps")
                   .Select(Gt(Col("temp"), Lit(12.0)))
                   .Agg(AggFunc::kAvg, "temp", 3, "avg3")
                   .Build();

  auto result = engine.Run({query});
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  std::cout << "3-day moving average of warm days:\n"
            << result->ToString() << "\n";

  // 3. The same query in the Sequin mini-language.
  auto parsed = ParseSequinQuery(
      "warm = select(temps, temp > 12.0);\n"
      "avg3 = avg(warm, temp, over 3, as avg3);\n");
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return 1;
  }
  auto result2 = engine.Run({*parsed});
  std::cout << "Same, parsed from text (" << result2->records.size()
            << " records — identical)\n\n";

  // 4. What did the optimizer decide?
  Query q;
  q.graph = query;
  auto explained = engine.Explain(q);
  std::cout << *explained << "\n";

  // 5. Point queries (the Fig. 6 template): records at a few positions.
  auto points = engine.Run({.graph = query, .positions = {3, 6, 9}});
  std::cout << "Point queries at days 3, 6, 9:\n" << points->ToString();
  return 0;
}
