#include "common/allocator.h"

#include <cstdlib>
#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace seq {

#if defined(__GLIBC__)
namespace {

constexpr int kMmapThresholdBytes = 4 << 20;
constexpr int kTrimThresholdBytes = 32 << 20;

bool EnvironmentSetsThresholds() {
  const char* tunables = std::getenv("GLIBC_TUNABLES");
  if (tunables != nullptr &&
      (std::strstr(tunables, "glibc.malloc.mmap_threshold") != nullptr ||
       std::strstr(tunables, "glibc.malloc.trim_threshold") != nullptr)) {
    return true;
  }
  return std::getenv("MALLOC_MMAP_THRESHOLD_") != nullptr ||
         std::getenv("MALLOC_TRIM_THRESHOLD_") != nullptr;
}

}  // namespace

void ConfigureAllocator() {
  static const bool configured = [] {
    if (EnvironmentSetsThresholds()) return false;
    mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
    mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes);
    return true;
  }();
  (void)configured;
}

#else

void ConfigureAllocator() {}

#endif

}  // namespace seq
