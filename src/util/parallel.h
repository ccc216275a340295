// The host's usable thread count.  Query execution is serial; the bulk
// loader's workers (loader/bulk_load.cc) are the only threads the
// library starts, and they size themselves from HardwareThreads() when
// asked for 0.  The benches record it as the host's core count.

#ifndef TRIAL_UTIL_PARALLEL_H_
#define TRIAL_UTIL_PARALLEL_H_

#include <cstddef>

namespace trial {

/// std::thread::hardware_concurrency with a sane floor (some containers
/// report 0) and a ceiling that keeps per-worker state bounded.
size_t HardwareThreads();

}  // namespace trial

#endif  // TRIAL_UTIL_PARALLEL_H_
