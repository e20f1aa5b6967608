#include "workload/csv.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace seq {
namespace {

std::vector<std::string> SplitLine(const std::string& line, char delimiter) {
  std::vector<std::string> out;
  std::string field;
  for (char c : line) {
    if (c == delimiter) {
      out.push_back(std::string(StripAsciiWhitespace(field)));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  out.push_back(std::string(StripAsciiWhitespace(field)));
  return out;
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseBool(const std::string& s, bool* out) {
  if (s == "true") {
    *out = true;
    return true;
  }
  if (s == "false") {
    *out = false;
    return true;
  }
  return false;
}

/// The narrowest type every value of the column fits.
TypeId InferType(const std::vector<std::vector<std::string>>& rows,
                 size_t col) {
  bool all_int = true, all_double = true, all_bool = true;
  for (const auto& row : rows) {
    const std::string& s = row[col];
    int64_t i;
    double d;
    bool b;
    if (!ParseInt(s, &i)) all_int = false;
    if (!ParseDouble(s, &d)) all_double = false;
    if (!ParseBool(s, &b)) all_bool = false;
  }
  if (all_int) return TypeId::kInt64;
  if (all_double) return TypeId::kDouble;
  if (all_bool) return TypeId::kBool;
  return TypeId::kString;
}

}  // namespace

Result<BaseSequencePtr> ParseCsvSequence(const std::string& content,
                                         const CsvOptions& options) {
  std::istringstream in(content);
  std::string line;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> rows;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (StripAsciiWhitespace(line).empty()) continue;
    std::vector<std::string> fields = SplitLine(line, options.delimiter);
    if (names.empty()) {
      if (options.header) {
        names = std::move(fields);
        continue;
      }
      names.reserve(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        names.push_back("c" + std::to_string(i));
      }
    }
    if (fields.size() != names.size()) {
      return Status::InvalidArgument(
          "CSV line " + std::to_string(line_no) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(names.size()));
    }
    rows.push_back(std::move(fields));
  }
  if (names.empty()) {
    return Status::InvalidArgument("empty CSV input");
  }

  // Locate the position column.
  size_t pos_col = 0;
  if (!options.position_column.empty()) {
    auto it = std::find(names.begin(), names.end(), options.position_column);
    if (it == names.end()) {
      return Status::NotFound("no CSV column named '" +
                              options.position_column + "'");
    }
    pos_col = static_cast<size_t>(it - names.begin());
  }

  // Infer record field types (position column excluded).
  std::vector<Field> schema_fields;
  std::vector<size_t> record_cols;
  for (size_t c = 0; c < names.size(); ++c) {
    if (c == pos_col) continue;
    schema_fields.push_back(Field{names[c], InferType(rows, c)});
    record_cols.push_back(c);
  }
  if (schema_fields.empty()) {
    return Status::InvalidArgument("CSV has only the position column");
  }
  SchemaPtr schema = Schema::Make(std::move(schema_fields));

  // Parse positions, sort rows by position.
  std::vector<std::pair<int64_t, size_t>> order;
  order.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    int64_t pos;
    if (!ParseInt(rows[r][pos_col], &pos)) {
      return Status::InvalidArgument("position value '" + rows[r][pos_col] +
                                     "' is not an integer");
    }
    order.emplace_back(pos, r);
  }
  std::sort(order.begin(), order.end());

  auto store = std::make_shared<BaseSequenceStore>(
      schema, options.records_per_page, options.costs);
  for (const auto& [pos, r] : order) {
    Record rec;
    rec.reserve(record_cols.size());
    for (size_t k = 0; k < record_cols.size(); ++k) {
      const std::string& s = rows[r][record_cols[k]];
      switch (schema->field(k).type) {
        case TypeId::kInt64: {
          int64_t v = 0;
          ParseInt(s, &v);
          rec.push_back(Value::Int64(v));
          break;
        }
        case TypeId::kDouble: {
          double v = 0;
          ParseDouble(s, &v);
          rec.push_back(Value::Double(v));
          break;
        }
        case TypeId::kBool: {
          bool v = false;
          ParseBool(s, &v);
          rec.push_back(Value::Bool(v));
          break;
        }
        case TypeId::kString:
          rec.push_back(Value::String(s));
          break;
      }
    }
    SEQ_RETURN_IF_ERROR(store->Append(pos, std::move(rec)));
  }
  return store;
}

Result<BaseSequencePtr> LoadCsvSequence(const std::string& path,
                                        const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCsvSequence(buffer.str(), options);
}

std::string SequenceToCsv(const BaseSequenceStore& store, char delimiter) {
  std::ostringstream out;
  out << "pos";
  for (const Field& f : store.schema()->fields()) {
    out << delimiter << f.name;
  }
  out << "\n";
  BaseSequenceStore::StreamCursor cursor =
      store.OpenStream(store.span(), nullptr);
  while (std::optional<PosRecord> pr = cursor.Next()) {
    out << pr->pos;
    for (const Value& v : pr->rec) {
      out << delimiter;
      if (v.type() == TypeId::kString) {
        out << v.str();  // no quoting: simple values only
      } else {
        out << v.ToString();
      }
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace seq
