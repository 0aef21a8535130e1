// Fault-injection campaign driver.
//
// A campaign sweeps (protocol × n × adversary × crash plan × input
// pattern × seed) over the deterministic simulator and checks every
// ConsensusRunResult invariant after each run: consistency, validity,
// termination of non-crashed processes, and the protocol's own
// bounded-memory claim. Each run carries a step budget and a wall-clock
// watchdog, so a livelocked run aborts that *run* (Reason::kDeadline),
// never the campaign.
//
// The simulator records every run (SimRuntime::set_record, installed by
// engine::run_trial), so a failure is captured as a concrete (schedule,
// crash events, stale-read choices) trace the shrinker
// (fault/shrink.hpp) can delta-debug into a minimal ScriptedAdversary
// script and the repro layer (fault/repro.hpp) can persist.
//
// The campaign itself is a thin sweep definition over the trial engine
// (src/engine/): it enumerates the matrix into TortureRuns, streams them
// through engine::TrialExecutor (CampaignConfig::jobs workers), and folds
// the outcomes — delivered in generation order, so every report field is
// byte-identical at every jobs level.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/driver.hpp"
#include "engine/trial.hpp"
#include "runtime/adversary.hpp"
#include "util/space_budget.hpp"

namespace bprc::fault {

/// One cell of the sweep: everything needed to re-execute the run. With
/// the adversary's adaptivity removed by recording, (protocol, inputs,
/// seed, schedule, crashes) replays bit-for-bit.
struct TortureRun {
  std::string protocol;
  std::vector<int> inputs;  ///< size = number of processes
  std::string adversary;    ///< name in the adversary registry
  std::vector<CrashPlanAdversary::Crash> crash_plan;  ///< pre-planned kills
  std::uint64_t seed = 0;       ///< process local-coin seed AND adversary seed
  std::uint64_t max_steps = 0;  ///< per-run step budget
  /// Register semantics the run executes under (the weak-register lane);
  /// the adversary's stale-read choices are recorded alongside the
  /// schedule so replays stay bit-identical.
  RegisterSemantics semantics = RegisterSemantics::kAtomic;
  /// Space budget the protocol instance is built at (the space lane).
  /// Default = the paper's constants, under which artifacts/digests keep
  /// their historical bytes.
  SpaceBudget space;

  int n() const { return static_cast<int>(inputs.size()); }
};

/// A failed (or aborted) run, with its recorded trace.
struct TortureFailure {
  TortureRun run;
  FailureClass failure = FailureClass::kNone;
  RunResult::Reason reason = RunResult::Reason::kAllDone;
  std::vector<ProcId> schedule;  ///< full recorded pick sequence
  std::vector<CrashPlanAdversary::Crash> crashes;  ///< recorded crash events
  /// Recorded stale-read choices (weakened semantics only; see TrialSpec).
  std::vector<int> stales;
  ConsensusRunResult result;
};

struct CampaignConfig {
  std::vector<std::string> protocols;   ///< empty = all real protocols
  std::vector<int> ns{2, 3, 5};
  std::vector<std::string> adversaries; ///< empty = full torture matrix
  std::uint64_t seeds_per_cell = 3;
  std::uint64_t seed0 = 1;              ///< base seed for the whole sweep
  std::uint64_t max_steps = 40'000'000;
  std::chrono::milliseconds run_deadline{5000};  ///< 0 = watchdog off
  bool crash_plans = true;   ///< additionally sweep seeded crash plans
  /// Register-semantics axis: the matrix is swept once per entry. The
  /// default keeps the historical atomic-only matrix (and its digests)
  /// unchanged.
  std::vector<RegisterSemantics> semantics{RegisterSemantics::kAtomic};
  /// Space-budget axis: the matrix is swept once per entry (outermost).
  /// The default keeps the historical single-budget matrix (and its
  /// digests) unchanged. Protocols whose layout ignores the budget
  /// (ProtocolSpec::space_sensitive == false) are skipped-and-counted at
  /// non-default entries rather than re-run under a misleading label.
  std::vector<SpaceBudget> spaces{SpaceBudget{}};
  std::size_t max_failures = 8;  ///< stop the sweep once collected
  /// Worker threads for the sweep (engine::TrialExecutor). 1 = the exact
  /// serial path; 0 = hardware concurrency. Every report field, failure,
  /// and recorded trace is byte-identical at every jobs level — results
  /// are delivered in generation order (tests/test_engine.cpp pins it).
  unsigned jobs = 1;
  /// Cooperative cancellation (SIGINT/SIGTERM in the CLI): polled between
  /// deliveries; when it returns true the sweep stops after the current
  /// delivery and the report is flagged `interrupted` with everything
  /// folded so far intact — partial results flush instead of vanishing.
  std::function<bool()> stop_requested;
};

struct CampaignReport {
  std::uint64_t runs = 0;
  std::uint64_t deadline_aborts = 0;  ///< runs ended by the watchdog
  std::uint64_t budget_aborts = 0;    ///< runs ended by the step budget
  std::uint64_t skipped_crash_cells = 0;  ///< crash cells skipped because
                                          ///< the protocol is registered
                                          ///< as not crash-tolerant
                                          ///< (counted over the whole
                                          ///< configured matrix)
  /// kSafe-semantics cells skipped because the protocol is registered as
  /// not tolerating safe reads (ProtocolSpec::tolerates_safe_reads) —
  /// its own invariants would abort the process instead of grading.
  /// Counted over the whole configured matrix, like crash skips.
  std::uint64_t skipped_safe_cells = 0;
  /// Non-default-budget cells skipped because the protocol is registered
  /// as not space-sensitive (ProtocolSpec::space_sensitive) — its layout
  /// would not change, so rerunning it per budget would only mislabel
  /// identical runs. Counted over the whole configured matrix.
  std::uint64_t skipped_space_cells = 0;
  std::vector<TortureFailure> failures;
  /// FNV-1a chain over every delivered run's outcome_digest (see below),
  /// in delivery (= generation) order: the independence witness the CI
  /// digest comparisons check across --jobs levels, --workers counts,
  /// and --shard/--merge round trips.
  std::uint64_t summary_digest = 0xCBF29CE484222325ULL;
  bool interrupted = false;  ///< stop_requested fired before completion
  bool ok() const { return failures.empty() && !interrupted; }
};

/// One delivered run reduced to what the campaign fold consumes: the
/// per-run digest plus the classification counters, and (failures only)
/// the full TortureFailure for shrinking/artifacts. This is the unit the
/// shard wire protocol ships — a worker never streams raw schedules for
/// passing runs, only their digests.
struct OutcomeRecord {
  std::uint64_t digest = 0;    ///< outcome_digest() of the run
  std::uint64_t steps = 0;     ///< result.total_steps
  RunResult::Reason reason = RunResult::Reason::kAllDone;
  FailureClass failure = FailureClass::kNone;
  /// Present iff failure != kNone (or the run was quarantined): the
  /// complete failure, including the recorded trace, for the merge side
  /// to shrink and persist.
  std::optional<TortureFailure> detail;
};

/// FNV-1a over one outcome's schedule, crashes, decisions, step count,
/// and failure class. The campaign digest is a chain of these per-run
/// digests, which is what makes it mergeable: a shard ships 8 bytes per
/// run instead of its multi-thousand-pick schedule.
std::uint64_t outcome_digest(const engine::TrialOutcome& out);

/// The digest contribution of a quarantined spec index (the trial killed
/// its worker; there is no outcome). Pure function of the failure class,
/// so every worker count folds the same value for the same index.
std::uint64_t quarantined_digest();

/// Reduces a delivered (run, outcome) pair to its fold unit. Consumes
/// both (failure details move the run and trace in). Under weakened
/// register semantics, a budget/deadline termination stop on a protocol
/// registered with live_under_stale_reads=false is downgraded to a
/// non-failure (it still counts as an abort and still chains into the
/// digest): the paper guarantees those protocols' liveness over atomic
/// registers only. Safety violations are never downgraded.
OutcomeRecord make_outcome_record(TortureRun&& run,
                                  engine::TrialOutcome&& out);

/// Folds one record into the report: counters, digest chain, failure
/// list. Returns false once max_failures failures are collected — the
/// early-stop signal, identical in serial, threaded, and sharded runs
/// because every path folds records in generation order.
bool fold_outcome_record(CampaignReport& report, OutcomeRecord&& record,
                         std::size_t max_failures);

/// The campaign's deterministic trial matrix, in generation order. The
/// index into this vector is the unit of sharding: shard i/k executes a
/// contiguous index range and the coordinator re-folds records by index.
/// `skipped_crash_cells` / `skipped_safe_cells` / `skipped_space_cells`
/// (nullable) receive the skip counts the report carries.
std::vector<TortureRun> enumerate_campaign_runs(
    const CampaignConfig& config, std::uint64_t* skipped_crash_cells,
    std::uint64_t* skipped_safe_cells = nullptr,
    std::uint64_t* skipped_space_cells = nullptr);

/// FNV-1a fingerprint of the enumerated matrix (every run's parameters)
/// plus the fold-relevant config. Shard files record it and the merge
/// refuses to combine shards produced from different campaigns.
std::uint64_t campaign_matrix_fingerprint(const CampaignConfig& config,
                                          const std::vector<TortureRun>& runs);

/// Names the campaign's adversary registry understands. Forwarders to
/// the engine-level registry (engine/adversaries.hpp), kept under their
/// historical names for the CLI and the tests.
const std::vector<std::string>& torture_adversary_names();

/// Instantiates a registered adversary; BPRC_REQUIRE on unknown names.
std::unique_ptr<Adversary> make_adversary(const std::string& name,
                                          std::uint64_t seed);

/// True for adversaries that inject crash failures on their own (these
/// are skipped for protocols registered as not crash-tolerant).
bool adversary_injects_crashes(const std::string& name);

/// Engine translation: the TrialSpec that executes `run` (generative,
/// recording). Campaign, shrinker, and replay all round-trip through
/// this so there is exactly one TortureRun→engine mapping.
engine::TrialSpec to_trial_spec(const TortureRun& run,
                                std::chrono::nanoseconds deadline,
                                bool record = true);

/// Executes one cell under recording. When non-null, `schedule`/`crashes`
/// receive the full recorded trace (pre-planned crashes included — the
/// recorded crash list alone replays the run). `reuse` recycles the
/// simulator across calls (see SimReuse); results are identical with or
/// without it.
ConsensusRunResult execute_run(const TortureRun& run,
                               std::chrono::nanoseconds deadline,
                               std::vector<ProcId>* schedule,
                               std::vector<CrashPlanAdversary::Crash>* crashes,
                               SimReuse* reuse = nullptr);

/// Replays a cell under a fixed schedule + crash list (the run's own
/// crash_plan is NOT applied again; recorded crashes subsume it).
/// `reuse` as in execute_run. `forced_flips` (optional) re-forces a
/// recorded local-coin flip prefix — artifacts produced by the
/// exploration driver carry one; randomly-found artifacts don't need it
/// (the seed re-derives the same coins). `stales` replays recorded
/// stale-read choices (weakened semantics; empty = every choice atomic).
ConsensusRunResult replay_run(
    const TortureRun& run, const std::vector<ProcId>& schedule,
    const std::vector<CrashPlanAdversary::Crash>& crashes,
    SimReuse* reuse = nullptr, const std::vector<bool>* forced_flips = nullptr,
    const std::vector<int>& stales = {});

/// Called after every run (progress reporting, logging).
using RunObserver =
    std::function<void(const TortureRun&, const ConsensusRunResult&)>;

CampaignReport run_campaign(const CampaignConfig& config,
                            const RunObserver& observer = nullptr);

}  // namespace bprc::fault
