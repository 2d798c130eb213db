#include "util/parallel.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mcharge {

std::size_t default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t jobs) {
  if (n == 0) return;
  if (jobs == 0) jobs = default_jobs();
  if (jobs > n) jobs = n;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto claim_loop = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  {
    std::vector<std::jthread> workers;
    workers.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) workers.emplace_back(claim_loop);
  }  // the jthreads join here
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mcharge
