// A parallel_for primitive for embarrassingly parallel work (independent
// simulations, benchmark sweeps). Each call spawns its own workers and
// joins them before returning; nothing outlives the call.
//
// Design rules that keep parallel runs bit-identical to serial runs:
//  * callers decompose work into independent items indexed 0..n-1 and
//    write each item's result into a preallocated slot for that index;
//  * any randomness is seeded per item (see derive_seed in util/rng.h),
//    never drawn from a stream shared across items;
//  * reductions over the slots happen after parallel_for returns, in
//    index order, on the calling thread.
// Under those rules the number of worker threads cannot influence any
// result, only the wall-clock time.
#pragma once

#include <cstddef>
#include <functional>

namespace mcharge {

/// Worker count used when a caller passes jobs = 0: the hardware
/// concurrency, with a floor of 1 (hardware_concurrency may report 0).
std::size_t default_jobs();

/// Runs fn(i) for every i in [0, n) exactly once (jobs = 0 means
/// default_jobs(); jobs is clamped to n). With jobs <= 1 the loop runs
/// inline on the calling thread — no threads, no synchronization — which
/// is the reference serial behavior. Otherwise exactly `jobs` worker
/// threads run the items while the caller only waits for them.
///
/// Items are claimed dynamically (an atomic counter), so the mapping of
/// items to threads is nondeterministic; see the header comment for the
/// rules that make results deterministic anyway. If any fn(i) throws, no
/// new items are started and the first exception (by completion time) is
/// rethrown on the calling thread after all workers stop.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t jobs = 0);

}  // namespace mcharge
