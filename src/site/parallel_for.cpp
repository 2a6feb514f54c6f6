#include "site/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace feam::site {

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto run = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(i);
  } else {
    obs::Histogram& queue_wait = obs::histogram("pool.queue_wait_ns");
    obs::Histogram& task_run = obs::histogram("pool.task_run_ns");
    const std::uint64_t start_ns = obs::now_ns();
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        const std::uint64_t claimed_ns = obs::now_ns();
        queue_wait.record(claimed_ns - start_ns);
        run(i);
        task_run.record(obs::now_ns() - claimed_ns);
      }
    };
    // jthreads join on destruction, so the workers already started finish
    // every index even when starting another one throws.
    const std::size_t threads = std::min(static_cast<std::size_t>(jobs), n);
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(work);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace feam::site
