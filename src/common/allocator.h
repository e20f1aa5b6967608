#ifndef SEQ_COMMON_ALLOCATOR_H_
#define SEQ_COMMON_ALLOCATOR_H_

namespace seq {

/// Fixes the C library allocator's mmap and trim thresholds for the whole
/// process; the first call does the work, later calls do nothing.
///
/// glibc adapts both thresholds while a program runs. They start at
/// 128 KiB and 256 KiB, and the mmap threshold rises to the size of the
/// largest mmap-backed block freed so far, the trim threshold to twice
/// that. Whether a block is mmap-backed depends on the free space its arena
/// happens to hold, so two runs of one program can settle on different
/// thresholds. With the low ones, a thread whose request result takes a
/// few MiB hands that memory back to the kernel when it frees the result,
/// and faults it in again, page by page, for the next one. Fixed
/// thresholds make every run behave alike: blocks under 4 MiB come from
/// the arenas and are reused, and an arena keeps up to 32 MiB free at its
/// top.
///
/// Leaves the thresholds alone when the environment sets either one
/// (GLIBC_TUNABLES or MALLOC_MMAP_THRESHOLD_ / MALLOC_TRIM_THRESHOLD_), and
/// on C libraries other than glibc.
void ConfigureAllocator();

}  // namespace seq

#endif  // SEQ_COMMON_ALLOCATOR_H_
