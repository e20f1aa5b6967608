#ifndef SEQ_STORAGE_COLUMN_H_
#define SEQ_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "types/value.h"

namespace seq {

/// One field of a stored sequence as a typed array (paper §2: fields are
/// "indivisible atomic types of fixed size"): int64 and double values in
/// their own arrays, bools as one byte each, strings as std::string. The
/// alternative index equals the field's TypeId.
using Column = std::variant<std::vector<int64_t>, std::vector<double>,
                            std::vector<uint8_t>, std::vector<std::string>>;

/// An empty column holding values of `type`.
inline Column MakeColumn(TypeId type) {
  switch (type) {
    case TypeId::kInt64:
      return std::vector<int64_t>{};
    case TypeId::kDouble:
      return std::vector<double>{};
    case TypeId::kBool:
      return std::vector<uint8_t>{};
    case TypeId::kString:
      return std::vector<std::string>{};
  }
  SEQ_CHECK_MSG(false, "unknown column type");
}

/// The stored value `v` as a Value of its column's type.
inline Value ToValue(int64_t v) { return Value::Int64(v); }
inline Value ToValue(double v) { return Value::Double(v); }
inline Value ToValue(uint8_t v) { return Value::Bool(v != 0); }
inline Value ToValue(const std::string& v) { return Value::String(v); }

}  // namespace seq

#endif  // SEQ_STORAGE_COLUMN_H_
