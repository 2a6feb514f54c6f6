// The fan-out of the parallel migration engine: run fn(i) for every
// index in [0, n) on at most `jobs` worker threads, then return.
//
// Each (binary, target site) pair is judged on its own, so one shape of
// concurrency covers every caller — Experiment::run over its migration
// list, survey_sites over its sites. Workers claim indices from one
// atomic counter; callers write each result into slot i, so completion
// order never shows and the output is identical at every job count.
// Mutual exclusion on shared sites is the callers' business, through the
// subtree leases and shell sessions of site/lease.hpp.
//
// With jobs <= 1 or n <= 1 every index runs inline on the calling thread,
// in index order, and nothing is recorded. Otherwise min(jobs, n) threads
// start; each claimed index records its wait from the call's start to its
// claim into "pool.queue_wait_ns" and its run time into
// "pool.task_run_ns" (nanoseconds on the obs clock). At any job count an
// index that throws does not stop the others: the first exception is
// rethrown once every index has run.
#pragma once

#include <cstddef>
#include <functional>

namespace feam::site {

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace feam::site
