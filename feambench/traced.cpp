// The traced run: per-layer metrics, on input 0.
//
// A first untraced pass in the fresh process gives the process counters,
// the wall throughput, the run records and the verdicts every later pass
// must reproduce. Then a layered pass runs twice: untraced, as the
// baseline, and with the program's obs collector and allocation tracker
// on. For the fleets the layered pass re-drives run_fleet's loop itself
// (compile, source phase, survey, drift round), timing each call into a
// layer under a bench.* span; the paper workloads rerun their own pass.
// Cache counts come from the cache getters, and footprints from the peaks
// of the cache.bytes{cache=...} gauges. Finally, with tracing off again,
// each layer's cold call is replayed over a sample of the workload's own
// inputs (its binaries and sites).
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "bench.hpp"
#include "binutils/resolver.hpp"
#include "binutils/resolver_cache.hpp"
#include "elf/file.hpp"
#include "eval/fleet.hpp"
#include "feam/bdc.hpp"
#include "feam/caches.hpp"
#include "feam/edc.hpp"
#include "feam/survey.hpp"
#include "fleet/drift.hpp"
#include "fleet/generate.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"
#include "report/aggregate.hpp"
#include "site/lease.hpp"
#include "toolchain/launcher.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"

namespace feambench {

using namespace feam;

namespace {

constexpr std::size_t kReplayBinaries = 16;
constexpr std::size_t kReplaySites = 16;
// Minimum measured time of the sub-millisecond replay loops.
constexpr double kMinLoopS = 0.25;

void set_tracing(bool on) {
  obs::collector().set_enabled(on);
  obs::set_alloc_tracking(on);
  if (!on) obs::collector().clear();
}

double rate(std::uint64_t hits, std::uint64_t misses) {
  return eval::FleetCacheStats::rate(hits, misses);
}

// Evenly spaced sample of at most `n` items.
template <typename T>
std::vector<T> sample(const std::vector<T>& items, std::size_t n) {
  if (items.size() <= n) return items;
  std::vector<T> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(items[i * items.size() / n]);
  return out;
}

// A binary the replays rebuild: what to compile, with which stack, where.
struct Input {
  site::Site* build_site = nullptr;
  const toolchain::ProgramSource* program = nullptr;
  const site::MpiStackInstall* stack = nullptr;
};

// What the traced pass measured, beyond its verdicts.
struct TracedPass {
  Verdicts verdicts;
  double timed_s = 0.0;  // wall time of the layered pass
  double generate_ms_per_site = 0.0;
  std::vector<double> source_ms;
  double survey_ms = 0.0;
  Allocs survey_allocs;
  std::vector<double> drift_ms;
  std::size_t drift_ops = 0;
  double edc_hit = 0.0, bdc_hit = 0.0, resolver_hit = 0.0;
  double parse_misses = 0.0;
  double source_memo_hit = 0.0;
};

void take_cache_rates(TracedPass& t, const MigrationCaches& caches) {
  t.edc_hit = rate(caches.edc.hits(), caches.edc.misses());
  t.bdc_hit = rate(caches.bdc.hits(), caches.bdc.misses());
  t.resolver_hit = rate(caches.resolver.hits(), caches.resolver.misses());
  t.parse_misses = static_cast<double>(caches.resolver.parse_misses());
}

// run_fleet's loop, re-driven call by call (eval/fleet.cpp): the same
// calls in the same order on a fresh fleet from the same (spec, seed), so
// the verdicts must match the untraced pass exactly.
TracedPass redrive_fleet(fleet::Fleet& fleet, std::vector<Input>& inputs) {
  TracedPass t;
  MigrationCaches caches;
  std::vector<site::Site*> sites;
  for (const auto& s : fleet.sites) sites.push_back(s.get());
  site::Site& anchor = fleet.anchor();
  const FeamConfig config{};
  SurveyOptions survey_options;
  survey_options.jobs = kJobs;
  survey_options.caches = &caches;

  const double start = now_s();
  for (std::size_t w = 0; w < fleet.workloads.size(); ++w) {
    const auto& workload = fleet.workloads[w];
    const auto& stack =
        anchor.stacks[static_cast<std::size_t>(fleet.build_stack[w])];
    inputs.push_back({&anchor, &workload.program, &stack});
    const std::string path = "/home/user/apps/" + workload.program.name;
    bool compiled = false;
    {
      obs::Span span("bench.toolchain.compile");
      compiled =
          toolchain::compile_mpi_program(anchor, workload.program, stack, path)
              .ok();
    }
    if (!compiled) {
      for (const site::Site* s : sites) {
        t.verdicts.add(workload.program.name, s->name, false, false);
      }
      continue;
    }

    std::optional<SourcePhaseOutput> source;
    {
      obs::Span span("bench.feam.source_phase");
      const double s0 = now_s();
      site::ShellSession shell(anchor);
      anchor.unload_all_modules();
      anchor.load_module(module_name_of(stack));
      auto phase = run_source_phase(anchor, path, config, &caches);
      if (phase.ok()) source.emplace(std::move(phase).take());
      t.source_ms.push_back((now_s() - s0) * 1e3);
    }

    const support::Bytes* data = anchor.vfs.read(path);
    const support::Bytes binary_bytes =
        data != nullptr ? *data : support::Bytes{};
    SurveyReport survey;
    {
      const Allocs a0 = Allocs::now();
      const double s0 = now_s();
      {
        obs::Span span("bench.feam.survey");
        survey = survey_sites(sites, workload.program.name, binary_bytes,
                              source ? &*source : nullptr, config,
                              survey_options);
      }
      t.survey_ms += (now_s() - s0) * 1e3;
      t.survey_allocs += Allocs::now() - a0;
    }
    anchor.vfs.remove(path);

    std::map<std::string_view, const SurveyEntry*> by_site;
    for (const auto& entry : survey.entries) by_site[entry.site_name] = &entry;
    for (const site::Site* s : sites) {
      const auto it = by_site.find(s->name);
      const SurveyEntry* entry = it == by_site.end() ? nullptr : it->second;
      t.verdicts.add(workload.program.name, s->name,
                     entry != nullptr && entry->ready,
                     entry != nullptr && entry->blocking_determinant != "error");
    }

    if (fleet.spec.drift_rate > 0 && w + 1 < fleet.workloads.size()) {
      obs::Span span("bench.fleet.drift_round");
      const double d0 = now_s();
      t.drift_ops += fleet::apply_drift_round(fleet, static_cast<int>(w)).size();
      t.drift_ms.push_back((now_s() - d0) * 1e3);
    }
  }
  t.timed_s = now_s() - start;
  take_cache_rates(t, caches);
  return t;
}

// Cold calls into each layer over the workload's own binaries and sites,
// with tracing off, timed by the benchmark's clock.
struct Replays {
  double compile_ms = 0.0;
  double mpiexec_ms = 0.0;
  double parse_ns_per_image = 0.0;
  double parse_mb_per_s = 0.0;
  double resolve_us = 0.0;
  double resolve_hit_us = 0.0;
  double describe_us = 0.0;
  double discover_ms = 0.0;
};

Replays replay_layers(const std::vector<Input>& all_inputs,
                      const std::vector<site::Site*>& all_sites) {
  Replays r;
  const std::vector<Input> inputs = sample(all_inputs, kReplayBinaries);
  const std::vector<site::Site*> sites = sample(all_sites, kReplaySites);
  const std::string dir = "/home/user/feambench/";

  // toolchain: compile each binary where it was built, then launch it
  // there under its stack's module.
  std::vector<double> compile_ms, mpiexec_ms;
  std::vector<std::pair<std::string, support::Bytes>> binaries;
  std::vector<support::Bytes> images;
  for (const Input& in : inputs) {
    site::Site& s = *in.build_site;
    const std::string path = dir + in.program->name;
    const double c0 = now_s();
    const bool ok =
        toolchain::compile_mpi_program(s, *in.program, *in.stack, path).ok();
    compile_ms.push_back((now_s() - c0) * 1e3);
    const support::Bytes* bytes = s.vfs.read(path);
    if (!ok || bytes == nullptr) continue;
    binaries.emplace_back(in.program->name, *bytes);
    images.push_back(*bytes);
    {
      site::ShellSession shell(s);
      s.unload_all_modules();
      s.load_module(module_name_of(*in.stack));
      const double m0 = now_s();
      toolchain::mpiexec_with_retries(s, path, 4);
      mpiexec_ms.push_back((now_s() - m0) * 1e3);
      for (const auto& lib : binutils::resolve_libraries(s, path).libs) {
        if (!lib.path) continue;
        if (const support::Bytes* image = s.vfs.read(*lib.path)) {
          images.push_back(*image);
        }
      }
    }
    s.vfs.remove(path);
  }
  r.compile_ms = median(compile_ms);
  r.mpiexec_ms = median(mpiexec_ms);

  // elf: the binaries and every library image they resolve to.
  {
    std::size_t parsed = 0;
    double bytes = 0.0;
    const double p0 = now_s();
    double elapsed = 0.0;
    while (!images.empty() && elapsed < kMinLoopS) {
      for (const support::Bytes& image : images) {
        if (elf::ElfFile::parse(image).ok()) bytes += static_cast<double>(image.size());
        ++parsed;
      }
      elapsed = now_s() - p0;
    }
    if (parsed > 0) {
      r.parse_ns_per_image = elapsed * 1e9 / static_cast<double>(parsed);
      r.parse_mb_per_s = bytes / (1024.0 * 1024.0) / elapsed;
    }
  }

  // binutils + BDC: every sampled binary placed at every sampled site.
  std::vector<double> resolve_us, hit_us, describe_us;
  for (site::Site* s : sites) {
    for (const auto& [name, bytes] : binaries) s->vfs.write_file(dir + name, bytes);
    binutils::ResolverCache cache;
    for (const auto& entry : binaries) {
      const std::string path = dir + entry.first;
      const double a = now_s();
      binutils::resolve_libraries(*s, path);
      const double b = now_s();
      (void)Bdc::describe(*s, path);
      const double c = now_s();
      binutils::resolve_libraries(*s, path, {}, &cache);  // fills the cache
      const double d = now_s();
      binutils::resolve_libraries(*s, path, {}, &cache);
      const double e = now_s();
      resolve_us.push_back((b - a) * 1e6);
      describe_us.push_back((c - b) * 1e6);
      hit_us.push_back((e - d) * 1e6);
    }
    for (const auto& entry : binaries) s->vfs.remove(dir + entry.first);
  }
  r.resolve_us = median(resolve_us);
  r.resolve_hit_us = median(hit_us);
  r.describe_us = median(describe_us);

  // EDC: one cold discovery per sampled site.
  std::vector<double> discover_ms;
  for (const site::Site* s : sites) {
    const double d0 = now_s();
    Edc::discover(*s);
    discover_ms.push_back((now_s() - d0) * 1e3);
  }
  r.discover_ms = median(discover_ms);
  return r;
}

struct ReportCosts {
  double serialize_us = 0.0;
  double bytes = 0.0;
  double aggregate_us = 0.0;
};

ReportCosts replay_report(const std::vector<report::RunRecord>& records) {
  ReportCosts c;
  if (records.empty()) return c;
  const auto n = static_cast<double>(records.size());
  std::size_t rounds = 0;
  double bytes = 0.0;
  const double s0 = now_s();
  double elapsed = 0.0;
  while (elapsed < kMinLoopS) {
    for (const auto& record : records) {
      bytes += static_cast<double>(record.to_json().dump().size());
    }
    ++rounds;
    elapsed = now_s() - s0;
  }
  c.serialize_us = elapsed * 1e6 / (n * static_cast<double>(rounds));
  c.bytes = bytes / (n * static_cast<double>(rounds));

  rounds = 0;
  const double a0 = now_s();
  elapsed = 0.0;
  while (elapsed < kMinLoopS) {
    report::aggregate_records(records);
    ++rounds;
    elapsed = now_s() - a0;
  }
  c.aggregate_us = elapsed * 1e6 / (n * static_cast<double>(rounds));
  return c;
}

// The workload's sites and binaries after a layered pass, kept alive (by
// the fleet or by the pass's experiment) for the replays.
struct Subject {
  std::optional<fleet::Fleet> fleet;
  Pass pass;
  std::vector<Input> inputs;
  std::vector<site::Site*> sites;
};

// The pass whose layers are measured, run once untraced as the baseline
// and once traced: the fleet loop re-driven call by call, or the paper
// workload's own pass.
TracedPass layered_pass(const Args& args, Subject& subject) {
  TracedPass t;
  if (is_fleet(args)) {
    const double g0 = now_s();
    subject.fleet.emplace(fleet::generate_fleet(fleet_spec(args), args.seed));
    const double generate_ms = (now_s() - g0) * 1e3;
    t = redrive_fleet(*subject.fleet, subject.inputs);
    t.generate_ms_per_site =
        generate_ms / static_cast<double>(subject.fleet->sites.size());
    for (const auto& s : subject.fleet->sites) subject.sites.push_back(s.get());
    return t;
  }
  const Allocs a0 = Allocs::now();
  subject.pass = run_pass(args, /*keep=*/true);
  const Allocs a1 = Allocs::now();
  const Pass& p = subject.pass;
  t.verdicts = p.verdicts;
  t.timed_s = p.wall_s;
  eval::Experiment& e = *p.experiment;
  if (args.workload == "paper-matrix") {
    t.source_ms = {static_cast<double>(p.source_ns.percentile(0.5)) / 1e6};
    t.survey_ms = p.wall_s * 1e3;
    t.survey_allocs = a1 - a0;
    take_cache_rates(t, *e.caches());
    t.source_memo_hit = rate(e.source_phase_hits(), e.source_phase_misses());
  } else {
    t.source_ms = p.source_ms;
    for (const double ms : p.pair_ms) t.survey_ms += ms;
    t.survey_allocs = p.survey_allocs;
  }
  for (const auto& b : e.test_set()) {
    subject.inputs.push_back(
        {&e.site(b.home_site), &b.workload.program, &b.stack});
  }
  for (const auto& name : toolchain::testbed_site_names()) {
    subject.sites.push_back(&e.site(name));
  }
  return t;
}

}  // namespace

Outcome run_traced(const Args& args_in) {
  Outcome out;
  const Args args = input_args(args_in, 0);
  // The first pass in a fresh process pays its page faults and heap growth
  // (the process.* figures) and gives the verdicts and run records. The
  // layered pass then runs untraced, as the baseline, and traced.
  Pass base = run_pass(args, /*keep=*/true);
  base.experiment.reset();
  TracedPass warm;
  {
    Subject untraced;
    warm = layered_pass(args, untraced);
  }
  // No cache is alive here, so the gauges' peaks restart from zero.
  obs::metrics().reset_values();

  set_tracing(true);
  Subject subject;
  const TracedPass t = layered_pass(args, subject);
  set_tracing(false);

  const double lease_p99_us =
      static_cast<double>(obs::histogram("lease.wait_ns").percentile(0.99)) / 1e3;
  const double parse_peak = gauge_peak_mb("resolver.parse");
  const double search_peak = gauge_peak_mb("resolver.search");
  const double ldd_peak = gauge_peak_mb("resolver.ldd");
  const double edc_peak = gauge_peak_mb("edc");
  const double bdc_peak = gauge_peak_mb("bdc");
  const double source_peak = gauge_peak_mb("source");

  const Replays r = replay_layers(subject.inputs, subject.sites);
  const ReportCosts rc = replay_report(base.records);

  out.verdicts = {base.verdicts};
  out.attempted = base.verdicts.pairs + warm.verdicts.pairs + t.verdicts.pairs;
  out.failed = base.verdicts.failed + warm.verdicts.failed + t.verdicts.failed;
  if (!(warm.verdicts == base.verdicts) || !(t.verdicts == base.verdicts)) {
    out.consistent = false;
    out.note = "traced verdicts (digest " + t.verdicts.hex() +
               ") differ from the untraced passes (digests " +
               base.verdicts.hex() + ", " + warm.verdicts.hex() + ")";
  }
  const auto pairs = static_cast<double>(base.verdicts.pairs);
  out.metrics = {
      {"pairs_per_s", pairs / base.wall_s, "1/s"},
      {"elf.parse_ns_per_image", r.parse_ns_per_image, "ns"},
      {"elf.parse_mb_per_s", r.parse_mb_per_s, "MB/s"},
      {"binutils.resolve_us", r.resolve_us, "us"},
      {"binutils.resolve_hit_us", r.resolve_hit_us, "us"},
      {"binutils.resolver.hit_rate", t.resolver_hit, "ratio"},
      {"binutils.resolver.parse_misses", t.parse_misses, "count"},
      {"binutils.resolver.parse_peak_mb", parse_peak, "MB"},
      {"binutils.resolver.search_peak_mb", search_peak, "MB"},
      {"binutils.resolver.ldd_peak_mb", ldd_peak, "MB"},
      {"feam.edc.discover_ms", r.discover_ms, "ms"},
      {"feam.edc.hit_rate", t.edc_hit, "ratio"},
      {"feam.edc.memo_peak_mb", edc_peak, "MB"},
      {"feam.bdc.describe_us", r.describe_us, "us"},
      {"feam.bdc.hit_rate", t.bdc_hit, "ratio"},
      {"feam.bdc.cache_peak_mb", bdc_peak, "MB"},
      {"feam.source_phase_ms", median(t.source_ms), "ms"},
      {"feam.survey_ms_per_pair", t.survey_ms / pairs, "ms"},
      {"feam.survey.allocs_per_pair", t.survey_allocs.count / pairs, "count"},
      {"feam.survey.alloc_bytes_per_pair", t.survey_allocs.bytes / pairs, "B"},
      {"feam.pair_p99_ms", pair_percentile_ms(base, 0.99), "ms"},
      {"fleet.generate_ms_per_site", t.generate_ms_per_site, "ms"},
      {"fleet.drift_ms_per_round", median(t.drift_ms), "ms"},
      {"fleet.drift_ops", static_cast<double>(t.drift_ops), "count"},
      {"toolchain.compile_ms", r.compile_ms, "ms"},
      {"toolchain.mpiexec_ms", r.mpiexec_ms, "ms"},
      {"eval.source_memo_hit_rate", t.source_memo_hit, "ratio"},
      {"eval.source_memo_peak_mb", source_peak, "MB"},
      {"report.serialize_us_per_record", rc.serialize_us, "us"},
      {"report.bytes_per_record", rc.bytes, "B"},
      {"report.aggregate_us_per_record", rc.aggregate_us, "us"},
      {"site.lease_wait_p99_us", lease_p99_us, "us"},
      {"process.minor_faults_per_pair", base.usage.minor_faults / pairs,
       "count"},
      {"process.sys_cpu_share",
       base.usage.sys_ms / std::max(base.usage.cpu_ms(), 1e-9), "ratio"},
      {"obs.trace_overhead", t.timed_s / warm.timed_s - 1.0, "ratio"},
  };
  return out;
}

}  // namespace feambench
