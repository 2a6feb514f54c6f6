// parallel_for: every index runs exactly once at any job count, inline
// runs stay on the caller, the first exception surfaces after the rest
// ran, and the pool histograms see one sample per claimed index.
#include "site/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace feam::site {
namespace {

std::vector<int> run_counts(int jobs, std::size_t n) {
  std::vector<std::atomic<int>> counts(n);
  parallel_for(jobs, n, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> out;
  for (const auto& c : counts) out.push_back(c.load());
  return out;
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  const std::vector<int> once(200, 1);
  EXPECT_EQ(run_counts(1, 200), once);
  EXPECT_EQ(run_counts(4, 200), once);
  // More jobs than indices, and no indices at all.
  EXPECT_EQ(run_counts(16, 3), std::vector<int>(3, 1));
  EXPECT_TRUE(run_counts(4, 0).empty());
}

TEST(ParallelFor, AtMostOneJobRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int jobs : {1, 0, -3}) {
    std::vector<std::size_t> seen;
    bool off_thread = false;
    parallel_for(jobs, 5, [&](std::size_t i) {
      off_thread |= std::this_thread::get_id() != caller;
      seen.push_back(i);
    });
    EXPECT_FALSE(off_thread) << "jobs " << jobs;
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}))
        << "jobs " << jobs;
  }
  // One index needs no worker either.
  bool off_thread = true;
  parallel_for(4, 1, [&](std::size_t) {
    off_thread = std::this_thread::get_id() != caller;
  });
  EXPECT_FALSE(off_thread);
}

TEST(ParallelFor, ReturnsOnlyAfterEveryIndexFinished) {
  std::atomic<int> done{0};
  parallel_for(2, 8, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 8);
}

TEST(ParallelFor, RethrowsTheFirstExceptionAfterEveryIndexRan) {
  for (const int jobs : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(jobs, 50,
                              [&](std::size_t i) {
                                ran.fetch_add(1, std::memory_order_relaxed);
                                if (i % 10 == 3) {
                                  throw std::runtime_error("index failed");
                                }
                              }),
                 std::runtime_error)
        << "jobs " << jobs;
    EXPECT_EQ(ran.load(), 50) << "jobs " << jobs;
  }
}

TEST(ParallelFor, RecordsOneTaskRunSamplePerIndexWhenPooled) {
  obs::Histogram& task_run = obs::histogram("pool.task_run_ns");
  obs::Histogram& queue_wait = obs::histogram("pool.queue_wait_ns");
  const auto run_before = task_run.snapshot();
  const auto wait_before = queue_wait.snapshot();
  parallel_for(4, 30, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  const auto run_after = task_run.snapshot();
  EXPECT_EQ(run_after.count, run_before.count + 30);
  EXPECT_EQ(queue_wait.snapshot().count, wait_before.count + 30);
  // 30 indices each sleeping ~1ms: the summed run time must reflect it.
  EXPECT_GE(run_after.sum - run_before.sum, 30u * 500'000u);

  // Inline runs record nothing.
  parallel_for(1, 30, [](std::size_t) {});
  EXPECT_EQ(task_run.snapshot().count, run_after.count);
}

TEST(ParallelFor, QueueWaitRunsFromTheCallToTheClaim) {
  // Two workers, three indices: the two blockers hold both workers, so the
  // third index is claimed only after one of them finishes.
  obs::Histogram& queue_wait = obs::histogram("pool.queue_wait_ns");
  const auto before = queue_wait.snapshot();
  parallel_for(2, 3, [](std::size_t i) {
    if (i < 2) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  EXPECT_GE(queue_wait.snapshot().max, 10'000'000u);  // >= 10ms of 20ms
  EXPECT_EQ(queue_wait.snapshot().count, before.count + 3);
}

}  // namespace
}  // namespace feam::site
