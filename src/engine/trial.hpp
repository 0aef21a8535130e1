// Trial vocabulary of the execution engine: one Monte-Carlo (or replay)
// trial, fully specified and fully graded.
//
// A TrialSpec carries everything needed to execute one consensus run —
// protocol factory, inputs, adversary, crash plan, optional scripted
// schedule and forced coin flips, seed, step budget, watchdog deadline —
// and a TrialOutcome carries everything a sweep wants back: the graded
// ConsensusRunResult, its FailureClass, and (when recording) the full
// executed trace. This subsumes the fault layer's TortureRun/
// TortureFailure pair and the ad-hoc tuples the bench harnesses used to
// thread through their loops; those layers now build specs and consume
// outcomes instead of owning trial loops.
//
// Execution of a spec is a pure function of the spec (deadline aborts
// excepted — the watchdog reads the wall clock): run_trial produces a
// bit-identical outcome on any thread, with any SimReuse, which is what
// lets TrialExecutor (engine/executor.hpp) shard specs across workers
// without changing a single delivered byte.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "consensus/driver.hpp"
#include "runtime/adversary.hpp"
#include "util/space_budget.hpp"

namespace bprc::engine {

struct TrialSpec {
  /// Label only (campaign logs, artifact names); execution goes through
  /// `factory`.
  std::string protocol;
  /// Builds the protocol instance. Invoked on whichever worker executes
  /// the spec, so it must be self-contained: capture parameters by value
  /// and share no mutable state (every factory in the repo qualifies).
  ProtocolFactory factory;
  std::vector<int> inputs;  ///< size = number of processes

  /// Generative mode: adversary registry name (engine/adversaries.hpp),
  /// seeded with `adversary_seed`. Ignored when `scripted`.
  std::string adversary;
  /// Pre-planned kills, applied via CrashPlanAdversary in both modes.
  std::vector<CrashPlanAdversary::Crash> crash_plan;

  /// Scripted-replay mode: re-run a recorded pick sequence through
  /// ScriptedAdversary (round-robin completion past the script's end).
  /// Recorded crashes travel in `crash_plan`.
  std::vector<ProcId> schedule;
  bool scripted = false;

  /// Optional recorded local-coin flip prefix (exploration artifacts);
  /// empty optional leaves the seed-derived coins untouched.
  std::optional<std::vector<bool>> forced_flips;

  /// Register semantics the trial runs under; the overlay's stale-read
  /// choices are made by the adversary (and recorded/replayed like the
  /// schedule). Atomic — the default — makes `forced_stales` irrelevant.
  RegisterSemantics semantics = RegisterSemantics::kAtomic;
  /// Scripted-replay mode: recorded stale-read choices, in resolution
  /// order, fed to ScriptedAdversary::set_stale_script. Past the end every
  /// choice is the atomic answer.
  std::vector<int> forced_stales;

  /// Space budget the factory was built at. Bookkeeping only — the
  /// factory already captured it — carried so sweeps and artifact
  /// writers can label the trial without re-deriving it.
  SpaceBudget space;

  std::uint64_t seed = 0;  ///< process local-coin seed
  /// Adversary seed; defaults to `seed` (the torture convention). The
  /// bench harnesses decorrelate the two.
  std::optional<std::uint64_t> adversary_seed;
  std::uint64_t max_steps = 0;  ///< per-run step budget
  /// Wall-clock watchdog (zero = off). The only non-deterministic input:
  /// a deadline abort depends on machine load, never on `jobs`.
  std::chrono::nanoseconds deadline{0};

  /// Generative mode: capture the executed schedule + crash events into
  /// the outcome (the simulator records it: SimRuntime::set_record). Off
  /// for pure-throughput sweeps.
  bool record = true;

  int n() const { return static_cast<int>(inputs.size()); }
};

/// Everything a sweep learns from one executed trial.
struct TrialOutcome {
  ConsensusRunResult result;
  FailureClass failure = FailureClass::kNone;  ///< == result.failure()
  std::vector<ProcId> schedule;  ///< recorded pick sequence (record mode)
  std::vector<CrashPlanAdversary::Crash> crashes;  ///< recorded crashes
  /// Recorded stale-read choices (record mode; empty under atomic
  /// semantics, where the adversary is never consulted).
  std::vector<int> stales;
};

/// Executes one spec. `reuse` (nullable) recycles a simulator across
/// calls exactly as run_consensus_sim documents; outcomes are
/// bit-identical with or without it. Single-threaded per call — the
/// executor gives every worker its own SimReuse.
TrialOutcome run_trial(const TrialSpec& spec, SimReuse* reuse = nullptr);

}  // namespace bprc::engine
