// Shared pieces of the FEAM benchmark driver: command-line arguments,
// workload shapes, the verdict digest, timing/resource probes and the
// metric list printed as the result line.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "eval/experiment.hpp"
#include "fleet/spec.hpp"
#include "obs/metrics.hpp"
#include "report/run_record.hpp"
#include "site/site.hpp"

namespace feambench {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  // Self-test shape: a 10x4 fleet and a two-benchmark paper subset.
  bool tiny = false;
};

// Pooled workloads run with this many workers from one process.
inline constexpr int kJobs = 4;

feam::fleet::FleetSpec fleet_spec(const Args& args);
feam::eval::ExperimentOptions experiment_options(const Args& args, int jobs,
                                                 bool use_caches);

// FNV-1a over "binary\tsite\tready\n" lines in the workload's canonical
// pair order, plus the counts the result line reports.
struct Verdicts {
  std::uint64_t digest = 1469598103934665603ULL;
  std::size_t pairs = 0;
  std::size_t ready = 0;
  std::size_t failed = 0;  // pairs that got no prediction

  void add(std::string_view binary, std::string_view site, bool is_ready,
           bool has_prediction);
  std::string hex() const;
  bool operator==(const Verdicts& other) const = default;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double now_s();
double median(std::vector<double> values);

// Process-wide CPU and page-fault counters (getrusage, all threads).
struct Usage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double minor_faults = 0.0;
  static Usage now();
  Usage operator-(const Usage& earlier) const;
  double cpu_ms() const { return user_ms + sys_ms; }
};

// Allocations flushed so far by every popped span, on every thread (zero
// unless the allocation tracker is armed).
struct Allocs {
  double bytes = 0.0;
  double count = 0.0;
  static Allocs now();
  Allocs operator-(const Allocs& earlier) const {
    return {bytes - earlier.bytes, count - earlier.count};
  }
  Allocs& operator+=(const Allocs& more) {
    bytes += more.bytes;
    count += more.count;
    return *this;
  }
};

double peak_rss_mb();
double gauge_peak_mb(std::string_view cache);

// The module that selects `stack` at its site ("openmpi/1.4.3-intel").
std::string module_name_of(const feam::site::MpiStackInstall& stack);

// A run's timed repetitions each take the next input derived from --seed
// (input 0, 1, 2, ...), so that no single fleet or fault pattern decides a
// figure; at least this many run, however short --seconds is.
inline constexpr int kInputs = 4;

// The arguments for input k: input 0 is --seed itself.
Args input_args(const Args& args, int k);

// Result of one workload run: the verdicts of each input it ran
// (identical across every repetition of that input), the pair counts of
// every repetition, and the metrics to print.
struct Outcome {
  std::vector<Verdicts> verdicts;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
  bool consistent = true;  // every repetition gave the same verdicts
  std::string note;        // why a check failed, for stderr
};

Outcome run_untraced(const Args& args);
Outcome run_traced(const Args& args);

// One repetition of a workload: set-up, then the timed phase. Shared by
// the untraced loop, the traced run's baseline and (for the paper
// workloads) the traced pass itself.
struct Pass {
  Verdicts verdicts;
  double setup_s = 0.0;
  double wall_s = 0.0;
  Usage usage;  // over the timed phase
  // Per-pair and per-source-phase latency. pair-cold times each call
  // itself (exact samples, ms); the pooled workloads cannot see single
  // pairs from outside, so they read the library's always-on
  // phase.target_ns / phase.source_ns histograms over the timed phase.
  std::vector<double> pair_ms;
  std::vector<double> source_ms;
  feam::obs::HistogramSnapshot pair_ns;
  feam::obs::HistogramSnapshot source_ns;
  // pair-cold: allocations during the survey calls.
  Allocs survey_allocs;
  // Kept only when the pass is asked to keep its state: the run records
  // (the traced run replays serialization and aggregation over them) and,
  // for the paper workloads, the experiment with its sites and caches.
  std::vector<feam::report::RunRecord> records;
  std::unique_ptr<feam::eval::Experiment> experiment;
};

// Per-pair latency percentile of one pass, in ms.
double pair_percentile_ms(const Pass& pass, double q);

Pass fleet_pass(const Args& args, bool keep);
Pass paper_pass(const Args& args, bool keep);
Pass pair_cold_pass(const Args& args, bool keep);
Pass run_pass(const Args& args, bool keep);

bool is_fleet(const Args& args);

}  // namespace feambench
