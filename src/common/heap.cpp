#include "common/heap.hpp"

#include <cstdio>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <unistd.h>
#endif

#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fsda::common {
namespace {

/// Resident set size in MB (2^20 bytes, as `ru_maxrss / 1024`), or 0 where
/// /proc/self/statm cannot be read.
double resident_mb() noexcept {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int read = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

}  // namespace

void release_free_heap() noexcept {
  static obs::Gauge& rss = obs::MetricsRegistry::global().gauge(
      "process.rss_mb",
      "resident set in MB after the last heap release at a phase boundary");
  {
    FSDA_EVENT_SCOPE(obs::EventCategory::System, "heap.release");
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
  }
  rss.set(resident_mb());
}

}  // namespace fsda::common
