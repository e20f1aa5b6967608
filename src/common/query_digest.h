#ifndef SEQ_COMMON_QUERY_DIGEST_H_
#define SEQ_COMMON_QUERY_DIGEST_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace seq {

/// Normalizes query text to its shape digest: literals are parameterized
/// (numbers and quoted strings become `?`), ASCII case is folded, and
/// tokens are re-joined with single spaces so whitespace and layout do
/// not matter. Two queries that differ only in bound literals — the
/// repeat-shape hot path the parameterized plan cache keys on — get the
/// same digest:
///
///   NormalizeQueryText("select(IBM, close > 100.0)") ==
///   NormalizeQueryText("SELECT( ibm,close>7 )")        // "select ( ibm , close > ? )"
///
/// This is the ONE shape-digest implementation in the tree: the query
/// registry, the slow-query log (obs/slow_query_log) and the plan cache's
/// display text all call it, so a shape always has the same digest.
std::string NormalizeQueryText(std::string_view text);

/// 64-bit FNV-1a over `data`, for compact cache-key fingerprints.
uint64_t Fnv1a64(std::string_view data, uint64_t seed = 1469598103934665603ULL);

}  // namespace seq

#endif  // SEQ_COMMON_QUERY_DIGEST_H_
