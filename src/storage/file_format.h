#ifndef SEQ_STORAGE_FILE_FORMAT_H_
#define SEQ_STORAGE_FILE_FORMAT_H_

#include <string>

#include "common/result.h"
#include "storage/base_sequence.h"

namespace seq {

/// Binary persistence of base sequences: a little-endian single-file
/// format carrying the schema, the declared span, the access-cost
/// parameters, the page layout and all records.
///
///   magic "SEQ1"
///   u32 records_per_page | f64 page_cost | f64 probe_cost | u8 clustered
///   i64 span_start | i64 span_end
///   u32 num_fields { u32 name_len, bytes, u8 type }*
///   u64 num_records { i64 pos, values per schema }*
/// Values: int64 → i64, double → f64, bool → u8, string → u32 len + bytes.
///
/// Readers validate the magic, type tags, string lengths and record count
/// and fail with InvalidArgument or DataLoss on malformed or truncated input
/// rather than crashing. A load reads the file through a fixed-size buffer
/// and decodes each value straight onto its column of the store, so its
/// memory beyond the loaded store does not grow with the file. A save
/// writes the same row layout, so load then save reproduces the file.

Status SaveSequence(const BaseSequenceStore& store, const std::string& path);

Result<BaseSequencePtr> LoadSequence(const std::string& path);

}  // namespace seq

#endif  // SEQ_STORAGE_FILE_FORMAT_H_
