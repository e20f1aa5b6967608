#ifndef SEQ_TYPES_SCHEMA_H_
#define SEQ_TYPES_SCHEMA_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace seq {

/// A named, typed attribute of a record schema.
struct Field {
  std::string name;
  TypeId type;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

class Schema;
using SchemaPtr = std::shared_ptr<const Schema>;

/// A record schema R = <A1:T1, ..., An:Tn> (paper §2). Immutable once
/// built; shared by pointer between the catalog, logical graph, and plans.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  /// Builds a shared schema from fields; duplicate field names are a
  /// programming error (checked).
  static SchemaPtr Make(std::vector<Field> fields);

  /// OK when no two fields share a name, else InvalidArgument naming the
  /// first repeat. Fields from outside input (Sequin renames, CSV headers,
  /// SEQ1 files, wire frames) pass this before reaching Make.
  static Status CheckDistinctNames(const std::vector<Field>& fields);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field named `name`, or nullopt.
  std::optional<size_t> FindField(const std::string& name) const;

  /// Index of the field named `name` or a NotFound status.
  Result<size_t> FieldIndex(const std::string& name) const;

  /// Schema with only the fields at `indices`, in that order, optionally
  /// renamed (empty string keeps the original name). Renames that repeat a
  /// name fail with InvalidArgument.
  Result<SchemaPtr> Project(
      const std::vector<size_t>& indices,
      const std::vector<std::string>& new_names = {}) const;

  /// Concatenation for compose (positional join) outputs. Name clashes on
  /// the right side are resolved by appending `right_suffix` (and then
  /// digits until unique); pass distinct prefixes from the logical layer
  /// for readable plans.
  static SchemaPtr Concat(const Schema& left, const Schema& right,
                          const std::string& right_suffix = "_r");

  /// Origin of each concatenated field: which input (0=left, 1=right),
  /// which field index there, and the (possibly de-clashed) output name.
  /// Parallel to Concat's output field order.
  struct ConcatField {
    int side;
    size_t index;
    std::string out_name;
  };
  static std::vector<ConcatField> ConcatFields(
      const Schema& left, const Schema& right,
      const std::string& right_suffix = "_r");

  bool Equals(const Schema& other) const { return fields_ == other.fields_; }

  /// "<name:type, ...>"
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

}  // namespace seq

#endif  // SEQ_TYPES_SCHEMA_H_
