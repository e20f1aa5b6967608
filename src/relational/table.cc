#include "relational/table.h"

namespace seq::relational {

Status Table::Append(Record row) {
  if (!RecordMatchesSchema(row, *schema_)) {
    return Status::TypeError("row does not match table schema " +
                             schema_->ToString());
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Result<Table> TableFromSequence(const BaseSequenceStore& store,
                                const std::string& time_column) {
  std::vector<Field> fields;
  fields.push_back(Field{time_column, TypeId::kInt64});
  for (const Field& f : store.schema()->fields()) fields.push_back(f);
  Table table(Schema::Make(std::move(fields)));
  BaseSequenceStore::StreamCursor cursor =
      store.OpenStream(store.span(), nullptr);
  while (std::optional<PosRecord> pr = cursor.Next()) {
    Record row;
    row.reserve(pr->rec.size() + 1);
    row.push_back(Value::Int64(pr->pos));
    row.insert(row.end(), pr->rec.begin(), pr->rec.end());
    SEQ_RETURN_IF_ERROR(table.Append(std::move(row)));
  }
  return table;
}

}  // namespace seq::relational
