#include "grouping/sequence_group.h"

#include <algorithm>

#include "exec/window_state.h"

namespace seq {

Result<SequenceGroup> SequenceGroup::Create(const Engine* engine,
                                            std::vector<std::string> members) {
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine");
  }
  if (members.empty()) {
    return Status::InvalidArgument("a sequence group needs members");
  }
  SchemaPtr schema;
  for (const std::string& member : members) {
    SEQ_ASSIGN_OR_RETURN(const CatalogEntry* entry,
                         engine->catalog().Lookup(member));
    if (schema == nullptr) {
      schema = entry->schema;
    } else if (!schema->Equals(*entry->schema)) {
      return Status::TypeError(
          "group members must share a schema; '" + member + "' has " +
          entry->schema->ToString() + ", expected " + schema->ToString());
    }
  }
  return SequenceGroup(engine, std::move(members), std::move(schema));
}

Result<std::map<std::string, QueryResult>> SequenceGroup::Map(
    const GraphTemplate& graph_for, std::optional<Span> range,
    AccessStats* stats) const {
  std::map<std::string, QueryResult> out;
  for (const std::string& member : members_) {
    LogicalOpPtr graph = graph_for(member);
    if (graph == nullptr) {
      return Status::InvalidArgument("grouped query produced no graph for '" +
                                     member + "'");
    }
    SEQ_ASSIGN_OR_RETURN(QueryResult result,
                         engine_->Run({graph, range}, {.stats = stats}));
    out.emplace(member, std::move(result));
  }
  return out;
}

Result<SequenceGroup> SequenceGroup::Filter(const GraphTemplate& condition_for,
                                            std::optional<Span> range,
                                            AccessStats* stats) const {
  SEQ_ASSIGN_OR_RETURN(auto results, Map(condition_for, range, stats));
  std::vector<std::string> kept;
  for (const std::string& member : members_) {
    if (!results.at(member).records.empty()) kept.push_back(member);
  }
  if (kept.empty()) {
    return Status::NotFound("no group member satisfies the condition");
  }
  return SequenceGroup(engine_, std::move(kept), schema_);
}

Result<QueryResult> SequenceGroup::PositionalAgg(AggFunc func,
                                                 const std::string& column,
                                                 std::optional<Span> range,
                                                 AccessStats* stats) const {
  SEQ_ASSIGN_OR_RETURN(size_t col_idx, schema_->FieldIndex(column));
  TypeId col_type = schema_->field(col_idx).type;
  TypeId out_type = col_type;
  switch (func) {
    case AggFunc::kCount:
      out_type = TypeId::kInt64;
      break;
    case AggFunc::kAvg:
      if (!IsNumeric(col_type)) {
        return Status::TypeError("avg requires a numeric column");
      }
      out_type = TypeId::kDouble;
      break;
    case AggFunc::kSum:
      if (!IsNumeric(col_type)) {
        return Status::TypeError("sum requires a numeric column");
      }
      out_type = col_type;
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      out_type = col_type;
      break;
  }

  // One scan per member, then a position-wise k-way merge.
  std::vector<std::vector<PosRecord>> streams;
  streams.reserve(members_.size());
  for (const std::string& member : members_) {
    SEQ_ASSIGN_OR_RETURN(
        QueryResult member_result,
        engine_->Run({LogicalOp::BaseRef(member), range}, {.stats = stats}));
    streams.push_back(std::move(member_result.records));
  }

  QueryResult out;
  out.schema = Schema::Make({Field{
      std::string(AggFuncName(func)) + "_" + column, out_type}});
  std::vector<size_t> cursors(streams.size(), 0);
  while (true) {
    Position next = kMaxPosition;
    for (size_t m = 0; m < streams.size(); ++m) {
      if (cursors[m] < streams[m].size()) {
        next = std::min(next, streams[m][cursors[m]].pos);
      }
    }
    if (next == kMaxPosition) break;
    WindowState state(func, col_type);
    for (size_t m = 0; m < streams.size(); ++m) {
      if (cursors[m] < streams[m].size() &&
          streams[m][cursors[m]].pos == next) {
        state.Add(next, streams[m][cursors[m]].rec[col_idx], nullptr);
        ++cursors[m];
      }
    }
    out.records.push_back(PosRecord{next, Record{state.Current()}});
  }
  return out;
}

}  // namespace seq
