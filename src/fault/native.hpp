// The native-atomics torture lane: named workloads ("cases") that hammer
// the native register implementations on real OS threads, record every
// atomic primitive, and grade the execution with the offline SC checker
// (src/verify/weakmem/) — plus, for the consensus case, the same oracle
// that grades simulated runs (evaluate_consensus).
//
// Mirrors the protocol registry idiom of fault/protocols.hpp: a static
// table of specs with a `broken` flag. Broken cases are *expected* to be
// flagged by the checker; the native ctest tier runs them under
// WILL_FAIL, pinning the analysis's negative path the same way the
// exhaustive tier pins broken protocols.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "consensus/driver.hpp"
#include "verify/weakmem/sc_checker.hpp"

namespace bprc {

struct NativeCaseSpec {
  std::string name;
  bool broken = false;  ///< the SC checker must flag this case
  std::string description;
};

/// The static case table. Broken entries last.
const std::vector<NativeCaseSpec>& native_cases();

/// Spec by name; nullptr if unknown.
const NativeCaseSpec* find_native_case(const std::string& name);

struct NativeRunOptions {
  int nprocs = 4;
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 2'000'000;
  /// Per-thread high-level iterations for the register cases (the
  /// consensus case runs to decision instead).
  int iters = 200;
  double yield_prob = 0.05;
  std::chrono::nanoseconds deadline = std::chrono::seconds(30);
  /// Record native actions and run the SC checker. Off = the zero-cost
  /// path (null sink), which is what the checker-off bench measures.
  bool check_sc = true;
  /// Where to persist the recording as a replayable `.bprc-weakmem`
  /// artifact when the SC check fails (empty = never write). Replaying
  /// the artifact re-runs the offline analysis and reproduces the
  /// verdict bit for bit.
  std::string artifact_path;
};

struct NativeOutcome {
  RunResult run;
  weakmem::SCResult sc;        ///< meaningful iff `checked`
  /// Every recorded native atomic operation, which `sc` graded; empty
  /// unless `checked`.
  weakmem::Recording recording;
  bool checked = false;
  ConsensusRunResult consensus;///< meaningful iff `graded_consensus`
  bool graded_consensus = false;
  std::string artifact;        ///< artifact path actually written, if any

  /// The case behaved: run completed, SC check passed (when on), and the
  /// consensus oracle passed (when applicable).
  bool ok() const {
    if (run.reason != RunResult::Reason::kAllDone) return false;
    if (checked && !sc.ok()) return false;
    if (graded_consensus && !consensus.ok()) return false;
    return true;
  }
};

/// Runs one named case. BPRC_REQUIREs the name exists.
NativeOutcome run_native_case(const std::string& name,
                              const NativeRunOptions& opts);

}  // namespace bprc
