#include "types/schema.h"

#include <unordered_set>

#include "common/logging.h"

namespace seq {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

SchemaPtr Schema::Make(std::vector<Field> fields) {
  const Status names = CheckDistinctNames(fields);
  SEQ_CHECK_MSG(names.ok(), names.message() << " in schema");
  return std::make_shared<Schema>(std::move(fields));
}

Status Schema::CheckDistinctNames(const std::vector<Field>& fields) {
  std::unordered_set<std::string> seen;
  for (const Field& f : fields) {
    if (!seen.insert(f.name).second) {
      return Status::InvalidArgument("duplicate field name '" + f.name + "'");
    }
  }
  return Status::OK();
}

std::optional<size_t> Schema::FindField(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return std::nullopt;
}

Result<size_t> Schema::FieldIndex(const std::string& name) const {
  std::optional<size_t> idx = FindField(name);
  if (!idx.has_value()) {
    return Status::NotFound("no field named '" + name + "' in schema " +
                            ToString());
  }
  return *idx;
}

Result<SchemaPtr> Schema::Project(
    const std::vector<size_t>& indices,
    const std::vector<std::string>& new_names) const {
  std::vector<Field> out;
  out.reserve(indices.size());
  for (size_t k = 0; k < indices.size(); ++k) {
    SEQ_CHECK(indices[k] < fields_.size());
    Field f = fields_[indices[k]];
    if (k < new_names.size() && !new_names[k].empty()) f.name = new_names[k];
    out.push_back(std::move(f));
  }
  SEQ_RETURN_IF_ERROR(CheckDistinctNames(out));
  return Schema::Make(std::move(out));
}

std::vector<Schema::ConcatField> Schema::ConcatFields(
    const Schema& left, const Schema& right,
    const std::string& right_suffix) {
  std::vector<ConcatField> out;
  out.reserve(left.fields_.size() + right.fields_.size());
  std::unordered_set<std::string> names;
  for (size_t i = 0; i < left.fields_.size(); ++i) {
    names.insert(left.fields_[i].name);
    out.push_back(ConcatField{0, i, left.fields_[i].name});
  }
  for (size_t i = 0; i < right.fields_.size(); ++i) {
    std::string name = right.fields_[i].name;
    if (!names.insert(name).second) {
      std::string base = name + right_suffix;
      std::string candidate = base;
      int n = 2;
      while (!names.insert(candidate).second) {
        candidate = base + std::to_string(n++);
      }
      name = candidate;
    }
    out.push_back(ConcatField{1, i, std::move(name)});
  }
  return out;
}

SchemaPtr Schema::Concat(const Schema& left, const Schema& right,
                         const std::string& right_suffix) {
  std::vector<ConcatField> origins = ConcatFields(left, right, right_suffix);
  std::vector<Field> out;
  out.reserve(origins.size());
  for (const ConcatField& cf : origins) {
    const Field& src =
        (cf.side == 0) ? left.fields_[cf.index] : right.fields_[cf.index];
    out.push_back(Field{cf.out_name, src.type});
  }
  return Schema::Make(std::move(out));
}

std::string Schema::ToString() const {
  std::string out = "<";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ":";
    out += TypeName(fields_[i].type);
  }
  out += ">";
  return out;
}

}  // namespace seq
