// The four benchmark workloads and their untraced runs.
//
//   fleet-steady  100 sites x 80 workloads, drift 0, caches on, jobs 4:
//                 the read-mostly fleet survey (memo hits dominate).
//   fleet-churn   the same fleet with drift 1.0: every barrier rewrites
//                 site state, so discovery, Vfs writes and invalidation run.
//   paper-matrix  the five Table II sites, the full Experiment::run
//                 (predictions, resolution copies, mpiexec ground truth),
//                 caches on, jobs 4: lease contention, the source-phase
//                 memo and the launcher.
//   pair-cold     the same testbed with caches off, sequential: one source
//                 phase per test binary, then a one-site survey to every
//                 other site. Bypasses every cache and the pool.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "eval/fleet.hpp"
#include "eval/run_records.hpp"
#include "feam/survey.hpp"
#include "fleet/generate.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"
#include "site/ids.hpp"
#include "site/lease.hpp"
#include "toolchain/testbed.hpp"

namespace feambench {

using namespace feam;

fleet::FleetSpec fleet_spec(const Args& args) {
  fleet::FleetSpec spec;
  spec.name = "bench";
  spec.sites = args.tiny ? 10 : 100;
  spec.workloads = args.tiny ? 4 : 80;
  spec.drift_rate = args.workload == "fleet-churn" ? 1.0 : 0.0;
  return spec;
}

eval::ExperimentOptions experiment_options(const Args& args, int jobs,
                                           bool use_caches) {
  eval::ExperimentOptions options;
  // The testbed is fixed; the seed drives the system-error model that
  // decides mpiexec ground truth and hello-world usability outcomes.
  options.fault_seed = args.seed;
  options.jobs = jobs;
  options.use_caches = use_caches;
  if (args.tiny) options.only_benchmarks = {"is.B", "104.milc"};
  return options;
}

bool is_fleet(const Args& args) {
  return args.workload == "fleet-steady" || args.workload == "fleet-churn";
}

void Verdicts::add(std::string_view binary, std::string_view site,
                   bool is_ready, bool has_prediction) {
  const auto mix = [this](std::string_view text) {
    for (const char c : text) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
  };
  mix(binary);
  mix("\t");
  mix(site);
  mix(is_ready ? "\t1\n" : "\t0\n");
  ++pairs;
  if (is_ready) ++ready;
  if (!has_prediction) ++failed;
}

std::string Verdicts::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime), ms(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

Usage Usage::operator-(const Usage& earlier) const {
  return {user_ms - earlier.user_ms, sys_ms - earlier.sys_ms,
          minor_faults - earlier.minor_faults};
}

Allocs Allocs::now() {
  return {static_cast<double>(obs::counter("mem.alloc_bytes").value()),
          static_cast<double>(obs::counter("mem.alloc_count").value())};
}

double peak_rss_mb() {
  return static_cast<double>(obs::read_rss_peak_bytes()) / (1024.0 * 1024.0);
}

double gauge_peak_mb(std::string_view cache) {
  return static_cast<double>(obs::gauge("cache.bytes", {.cache = cache}).peak()) /
         (1024.0 * 1024.0);
}

std::string module_name_of(const site::MpiStackInstall& stack) {
  return std::string(site::mpi_impl_slug(stack.impl)) + "/" +
         stack.version.str() + "-" + site::compiler_slug(stack.compiler);
}

namespace {

// Zeroes the always-on latency histograms the pooled workloads read.
void reset_phase_histograms() {
  obs::histogram("phase.target_ns").reset();
  obs::histogram("phase.source_ns").reset();
}

void take_phase_histograms(Pass& pass) {
  pass.pair_ns = obs::histogram("phase.target_ns").snapshot();
  pass.source_ns = obs::histogram("phase.source_ns").snapshot();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

double pair_percentile_ms(const Pass& pass, double q) {
  return pass.pair_ms.empty()
             ? static_cast<double>(pass.pair_ns.percentile(q)) / 1e6
             : quantile(pass.pair_ms, q);
}

// What `feam fleet --records-out --matrix-out` pays: the survey, the JSONL
// dump and the rendered readiness matrix.
Pass fleet_pass(const Args& args, bool keep) {
  Pass pass;
  const double t0 = now_s();
  fleet::Fleet fleet = fleet::generate_fleet(fleet_spec(args), args.seed);
  pass.setup_s = now_s() - t0;

  eval::FleetRunOptions options;
  options.jobs = kJobs;
  reset_phase_histograms();
  const Usage u0 = Usage::now();
  const double w0 = now_s();
  eval::FleetRunResult result = eval::run_fleet(fleet, options);
  const std::string jsonl = result.records_jsonl();
  const std::string matrix = result.readiness_matrix();
  pass.wall_s = now_s() - w0;
  pass.usage = Usage::now() - u0;
  take_phase_histograms(pass);

  for (const auto& record : result.records) {
    pass.verdicts.add(record.binary, record.target_site, record.ready,
                      record.has_prediction);
  }
  // Both artifacts must exist: one JSONL line per pair, a non-empty table.
  // Without them no pair counts as delivered.
  if (static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n')) !=
          result.records.size() ||
      matrix.empty()) {
    pass.verdicts.failed = pass.verdicts.pairs;
  }
  if (keep) pass.records = std::move(result.records);
  return pass;
}

Pass paper_pass(const Args& args, bool keep) {
  Pass pass;
  const double t0 = now_s();
  auto experiment = std::make_unique<eval::Experiment>(
      experiment_options(args, kJobs, /*use_caches=*/true));
  experiment->build_test_set();
  pass.setup_s = now_s() - t0;

  reset_phase_histograms();
  const Usage u0 = Usage::now();
  const double w0 = now_s();
  experiment->run();
  pass.wall_s = now_s() - w0;
  pass.usage = Usage::now() - u0;
  take_phase_histograms(pass);

  for (const auto& r : experiment->results()) {
    // A migration whose phases failed outright carries an attribution.
    pass.verdicts.add(r.binary_name + "@" + r.home_site, r.target_site,
                      r.extended_ready, r.failure_attribution.empty());
  }
  // FEAM's MPI-implementation check must never be wrong (paper VI.B).
  if (!experiment->mpi_matching_always_correct()) {
    pass.verdicts.failed = pass.verdicts.pairs;
  }
  if (keep) {
    pass.records = eval::to_run_records(experiment->results());
    pass.experiment = std::move(experiment);
  }
  return pass;
}

// The single-user `feam source` / `feam target` path: no caches, no pool.
Pass pair_cold_pass(const Args& args, bool keep) {
  Pass pass;
  const double t0 = now_s();
  auto experiment = std::make_unique<eval::Experiment>(
      experiment_options(args, 1, /*use_caches=*/false));
  experiment->build_test_set();
  pass.setup_s = now_s() - t0;

  const FeamConfig config{};
  SurveyOptions survey_options;  // jobs 1, no caches
  const Usage u0 = Usage::now();
  const double w0 = now_s();
  for (const eval::TestBinary& binary : experiment->test_set()) {
    site::Site& home = experiment->site(binary.home_site);
    const double s0 = now_s();
    std::optional<support::Result<SourcePhaseOutput>> source;
    {
      obs::Span span("bench.feam.source_phase");
      site::ShellSession shell(home);
      home.unload_all_modules();
      home.load_module(module_name_of(binary.stack));
      source.emplace(run_source_phase(home, binary.path, config, nullptr));
    }
    pass.source_ms.push_back((now_s() - s0) * 1e3);
    const SourcePhaseOutput* bundle = source->ok() ? &source->value() : nullptr;
    const support::Bytes* bytes = home.vfs.read(binary.path);
    const support::Bytes empty;

    for (const std::string& name : toolchain::testbed_site_names()) {
      if (name == binary.home_site) continue;
      site::Site* target = &experiment->site(name);
      const Allocs a0 = Allocs::now();
      const double p0 = now_s();
      SurveyReport report;
      {
        obs::Span span("bench.feam.survey");
        report = survey_sites({&target, 1}, binary.workload.program.name,
                              bytes != nullptr ? *bytes : empty, bundle,
                              config, survey_options);
      }
      pass.pair_ms.push_back((now_s() - p0) * 1e3);
      pass.survey_allocs += Allocs::now() - a0;
      const SurveyEntry* entry =
          report.entries.empty() ? nullptr : &report.entries.front();
      const bool has_prediction =
          bundle != nullptr && entry != nullptr &&
          entry->blocking_determinant != "error";
      pass.verdicts.add(binary.workload.program.name + "@" + binary.home_site,
                        name, entry != nullptr && entry->ready,
                        has_prediction);
      if (keep) {
        report::RunRecord record;
        record.command = "target";
        record.binary = binary.workload.program.name;
        record.source_site = binary.home_site;
        record.target_site = name;
        record.mode = "extended";
        record.has_prediction = has_prediction;
        record.exit_code = has_prediction ? 0 : 1;
        if (entry != nullptr) {
          record.ready = entry->ready;
          for (const auto& det : entry->prediction.determinants) {
            record.determinants.push_back(
                {report::determinant_key(det.kind), det.evaluated,
                 det.compatible, det.detail});
          }
          record.missing_libraries =
              entry->prediction.missing_libraries.size();
          record.resolved_libraries =
              entry->prediction.resolved_libraries.size();
          record.unresolved_libraries =
              entry->prediction.unresolved_libraries.size();
          record.provenance = entry->prediction.provenance;
        }
        pass.records.push_back(std::move(record));
      }
    }
  }
  pass.wall_s = now_s() - w0;
  pass.usage = Usage::now() - u0;
  if (keep) pass.experiment = std::move(experiment);
  return pass;
}

Pass run_pass(const Args& args, bool keep) {
  if (is_fleet(args)) return fleet_pass(args, keep);
  if (args.workload == "paper-matrix") return paper_pass(args, keep);
  return pair_cold_pass(args, keep);
}

Args input_args(const Args& args, int k) {
  Args input = args;
  input.seed = args.seed + static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL;
  return input;
}

// One untraced run. A warm-up repetition of input 0 first grows the heap
// and faults in the process's pages; it is checked but not timed. Then
// the timed repetitions run inputs 0, 1, 2, ... in turn, each a different
// fleet or fault pattern, so that one input's composition does not decide
// a figure. The timed repetition of input 0 must reproduce the warm-up's
// verdicts. At least kInputs repetitions run; after that a repetition
// starts only if it is expected to end within --seconds, judged by the
// longest one so far. CPU and set-up figures are the median over the
// timed repetitions, which one repetition slowed by something outside the
// process does not move. Latency medians pool every timed pair (the
// pooled workloads merge the library's histograms). Peak RSS is the
// process high-water mark.
Outcome run_untraced(const Args& args) {
  Outcome out;
  const auto record = [&](int k, const Pass& pass) {
    std::fprintf(stderr,
                 "feambench: input %d: setup %.3f s, timed %.3f s wall, %.3f s "
                 "user, %.3f s sys, %.0f minor faults, pair p50 %.4f ms\n",
                 k, pass.setup_s, pass.wall_s, pass.usage.user_ms / 1e3,
                 pass.usage.sys_ms / 1e3, pass.usage.minor_faults,
                 pair_percentile_ms(pass, 0.50));
    out.attempted += pass.verdicts.pairs;
    out.failed += pass.verdicts.failed;
    if (out.verdicts.size() <= static_cast<std::size_t>(k)) {
      out.verdicts.push_back(pass.verdicts);
    } else if (!(pass.verdicts == out.verdicts[static_cast<std::size_t>(k)])) {
      out.consistent = false;
      out.note = "verdicts differ between repetitions of input " +
                 std::to_string(k);
    }
  };
  record(0, run_pass(input_args(args, 0), /*keep=*/false));

  std::vector<double> cpu, setup;
  std::vector<double> pair_ms, source_ms;  // pair-cold's exact samples
  obs::HistogramSnapshot pair_ns, source_ns;  // the pooled workloads'
  const auto ms = [](const obs::HistogramSnapshot& h, double q) {
    return static_cast<double>(h.percentile(q)) / 1e6;
  };
  const double start = now_s();
  double longest = 0.0;
  for (int k = 0; k < kInputs || now_s() - start + longest < args.seconds;
       ++k) {
    const double p0 = now_s();
    const Pass p = run_pass(input_args(args, k), /*keep=*/false);
    longest = std::max(longest, now_s() - p0);
    record(k, p);
    cpu.push_back(p.usage.cpu_ms() / static_cast<double>(p.verdicts.pairs));
    setup.push_back(p.setup_s);
    pair_ns.merge(p.pair_ns);
    source_ns.merge(p.source_ns);
    pair_ms.insert(pair_ms.end(), p.pair_ms.begin(), p.pair_ms.end());
    source_ms.insert(source_ms.end(), p.source_ms.begin(), p.source_ms.end());
  }
  const bool exact = !pair_ms.empty();
  out.metrics = {
      {"cpu_ms_per_pair", median(cpu), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup), "s"},
      {"pair_p50_ms", exact ? quantile(pair_ms, 0.50) : ms(pair_ns, 0.50),
       "ms"},
      {"source_p50_ms",
       exact ? quantile(source_ms, 0.50) : ms(source_ns, 0.50), "ms"},
  };
  return out;
}

}  // namespace feambench
