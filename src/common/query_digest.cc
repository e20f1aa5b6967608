#include "common/query_digest.h"

#include <cctype>

#include "common/string_util.h"

namespace seq {

std::string NormalizeQueryText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  auto emit = [&out](std::string_view token) {
    if (!out.empty()) out.push_back(' ');
    out.append(token);
  };
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (std::isspace(c)) {
      ++i;
      continue;
    }
    // Quoted string literal (either quote style; backslash escapes kept
    // opaque) -> one parameter marker.
    if (c == '"' || c == '\'') {
      const char quote = text[i];
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      if (i < n) ++i;  // closing quote
      emit("?");
      continue;
    }
    // Numeric literal (digit-led, or dot-led like ".5"), including
    // decimals and exponents -> one parameter marker. A leading sign is
    // left to tokenize as an operator, which is consistent on both sides
    // of a comparison.
    if (std::isdigit(c) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      ++i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(text[i])) ||
                       text[i] == '.')) {
        ++i;
      }
      if (i < n && (text[i] == 'e' || text[i] == 'E')) {
        size_t j = i + 1;
        if (j < n && (text[j] == '+' || text[j] == '-')) ++j;
        if (j < n && std::isdigit(static_cast<unsigned char>(text[j]))) {
          ++j;
          while (j < n && std::isdigit(static_cast<unsigned char>(text[j]))) {
            ++j;
          }
          i = j;
        }
      }
      emit("?");
      continue;
    }
    // Identifier / keyword: case-folded.
    if (std::isalpha(c) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                       text[j] == '_')) {
        ++j;
      }
      emit(AsciiToLower(text.substr(i, j - i)));
      i = j;
      continue;
    }
    // Any other character is its own token.
    emit(text.substr(i, 1));
    ++i;
  }
  return out;
}

uint64_t Fnv1a64(std::string_view data, uint64_t seed) {
  uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace seq
