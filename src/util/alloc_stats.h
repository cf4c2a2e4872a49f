// Process-wide heap-allocation accounting.
//
// Linking this TU (any caller of alloc_snapshot()) replaces the global
// operator new/delete family with counting wrappers over malloc/free:
// two relaxed atomic increments per allocation, nothing else. That
// makes "how many heap allocations did this run cost" a first-class,
// deterministic (in serial runs) metric: bench_ext_scale_10k meters its
// run loop with it, and bench/perf's traced runs report it per event.
//
// Counters are global: deltas taken around a serial experiment are
// exact; around parallel sweeps they include whatever ran concurrently
// and are only indicative. Sanitizer builds keep working — ASan/TSan
// intercept the malloc/free these wrappers call.
#pragma once

#include <cstdint>

namespace hydra::util {

struct AllocSnapshot {
  std::uint64_t allocations = 0;  // operator new calls since process start
  std::uint64_t bytes = 0;        // bytes requested by those calls
};

// Current totals; subtract two snapshots to meter a region.
AllocSnapshot alloc_snapshot() noexcept;

// High-water-mark resident set size (VmHWM) in KiB; 0 where /proc is
// unavailable. A whole-process figure, not a per-region delta.
std::uint64_t peak_rss_kb() noexcept;

}  // namespace hydra::util
