// Dynamic half of the execution simulator: `mpiexec` and plain command
// execution, on top of the loader. Adds the failure modes a real run can
// hit *after* loading succeeds:
//   * no MPI stack selected in the shell (mpiexec not on PATH),
//   * stack advertised but not functional (misconfiguration, paper III.B),
//   * run-time ABI breaks between the binary and the libraries that
//     resolved — floating-point exceptions and symbol-contract mismatches
//     (decided from the ABI notes the toolchain embedded; paper VI.C),
//   * system errors: persistent (broken daemon placement for a given
//     binary/site pairing) and transient (absorbed by the paper's 5-retry
//     policy), both drawn from the site's seeded fault model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "site/site.hpp"
#include "toolchain/loader.hpp"

namespace feam::toolchain {

enum class RunStatus : std::uint8_t {
  kSuccess,
  kFileNotFound,
  kExecFormatError,
  kMissingLibrary,
  kVersionError,        // GLIBC version not found
  kFpException,         // ABI/floating-point break at run time
  kNoMpiStackSelected,  // mpiexec: command not found
  kStackNotFunctional,  // daemon/launcher broken for every program
  kSystemError,         // daemon spawn failure, node fault
  kTimeout,             // communication error timeout
};

const char* run_status_name(RunStatus status);

struct RunResult {
  RunStatus status = RunStatus::kSuccess;
  std::string detail;
  std::string output;  // stdout of a successful run
  bool success() const { return status == RunStatus::kSuccess; }
};

// Runs a binary under the site's currently selected MPI stack (the one
// whose directories a loaded module put on the shell's search paths).
// A non-null `cache` memoizes the loader's library searches; the fault
// model and run outcome are unaffected.
RunResult mpiexec(const site::Site& host, std::string_view binary_path,
                  int ranks, const std::vector<std::string>& extra_lib_dirs = {},
                  int attempt = 0, binutils::ResolverCache* cache = nullptr);

// Runs a serial command (no MPI launcher involved). Executing the C
// library binary itself prints its banner, as glibc does.
RunResult run_serial(const site::Site& host, std::string_view binary_path,
                     const std::vector<std::string>& extra_lib_dirs = {},
                     binutils::ResolverCache* cache = nullptr);

// What one mpiexec decides before its fault draw: stack selection, the
// loader, and the run-time ABI check. A pure function of the site's state
// and the binary's bytes. The per-attempt part (the persistent and
// transient fault draws on site, path and attempt) is applied on top.
struct LaunchPlan {
  // Set when the launch ends without reaching the fault draw.
  std::optional<RunResult> outcome;
  std::uint64_t text_size = 0;  // the persistent-fault draw's input
  // The loader searched a directory under a scratch prefix (see
  // binutils::Resolution::searched_scratch).
  bool searched_scratch = false;
};

// The paper's policy: a binary is recorded as failing only after five
// spaced execution attempts (Section VI.C). Transient system errors are
// absorbed; persistent ones are not. Every attempt plans afresh; a
// non-null `first_plan` receives the first attempt's plan.
RunResult mpiexec_with_retries(const site::Site& host,
                               std::string_view binary_path, int ranks,
                               const std::vector<std::string>& extra_lib_dirs = {},
                               int attempts = 5,
                               binutils::ResolverCache* cache = nullptr,
                               LaunchPlan* first_plan = nullptr);

// The same retry policy over a plan captured earlier for identical site
// state and binary bytes: only the fault draws run, for `binary_path`.
// Counters and events tick per attempt as in mpiexec_with_retries.
RunResult replay_with_retries(const site::Site& host,
                              std::string_view binary_path, int ranks,
                              const LaunchPlan& plan, int attempts);

}  // namespace feam::toolchain
