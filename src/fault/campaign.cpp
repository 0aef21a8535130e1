#include "fault/campaign.hpp"

#include <algorithm>
#include <utility>

#include "engine/adversaries.hpp"
#include "engine/executor.hpp"
#include "fault/protocols.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace bprc::fault {

std::unique_ptr<Adversary> make_adversary(const std::string& name,
                                          std::uint64_t seed) {
  return engine::make_adversary(name, seed);
}

engine::TrialSpec to_trial_spec(const TortureRun& run,
                                std::chrono::nanoseconds deadline,
                                bool record) {
  engine::TrialSpec spec;
  spec.protocol = run.protocol;
  spec.factory = make_protocol(run.protocol, run.n(), run.seed, run.space);
  spec.space = run.space;
  spec.inputs = run.inputs;
  spec.adversary = run.adversary;
  spec.crash_plan = run.crash_plan;
  spec.seed = run.seed;
  spec.max_steps = run.max_steps;
  spec.deadline = deadline;
  spec.record = record;
  spec.semantics = run.semantics;
  return spec;
}

ConsensusRunResult execute_run(
    const TortureRun& run, std::chrono::nanoseconds deadline,
    std::vector<ProcId>* schedule,
    std::vector<CrashPlanAdversary::Crash>* crashes, SimReuse* reuse) {
  const bool record = schedule != nullptr || crashes != nullptr;
  engine::TrialOutcome out =
      engine::run_trial(to_trial_spec(run, deadline, record), reuse);
  if (schedule != nullptr) *schedule = std::move(out.schedule);
  if (crashes != nullptr) *crashes = std::move(out.crashes);
  return out.result;
}

ConsensusRunResult replay_run(
    const TortureRun& run, const std::vector<ProcId>& schedule,
    const std::vector<CrashPlanAdversary::Crash>& crashes, SimReuse* reuse,
    const std::vector<bool>* forced_flips, const std::vector<int>& stales) {
  // Scripted replay: the recorded crashes subsume the run's own plan.
  engine::TrialSpec spec =
      to_trial_spec(run, std::chrono::nanoseconds::zero(), /*record=*/false);
  spec.scripted = true;
  spec.schedule = schedule;
  spec.crash_plan = crashes;
  if (forced_flips != nullptr) spec.forced_flips = *forced_flips;
  spec.forced_stales = stales;
  return engine::run_trial(spec, reuse).result;
}

namespace {

/// Seeded crash plan: 1..n-1 distinct victims at early-run steps, sorted.
/// Early triggers matter more than late ones — the protocols' vulnerable
/// window is while preferences are still contested.
std::vector<CrashPlanAdversary::Crash> seeded_crash_plan(Rng& rng, int n) {
  const int max_kills = n - 1;
  if (max_kills <= 0) return {};
  const int kills = 1 + static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(max_kills)));
  std::vector<ProcId> victims;
  for (ProcId p = 0; p < n; ++p) victims.push_back(p);
  for (std::size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1], victims[rng.below(i)]);
  }
  std::vector<CrashPlanAdversary::Crash> plan;
  for (int k = 0; k < kills; ++k) {
    plan.push_back({rng.below(4000), victims[static_cast<std::size_t>(k)]});
  }
  std::sort(plan.begin(), plan.end(),
            [](const auto& a, const auto& b) { return a.at_step < b.at_step; });
  return plan;
}

}  // namespace

/// Enumerates the full sweep matrix up front, in the exact order the old
/// serial loop visited it. Cheap relative to execution (a TortureRun is a
/// few dozen bytes; campaigns are thousands of cells), and it makes the
/// spec stream trivially deterministic: the engine's generator is just an
/// index walk over this vector, at any jobs level — and the shard
/// coordinator's workers are just index *ranges* over it.
std::vector<TortureRun> enumerate_campaign_runs(
    const CampaignConfig& config, std::uint64_t* skipped_crash_cells,
    std::uint64_t* skipped_safe_cells, std::uint64_t* skipped_space_cells) {
  std::uint64_t skipped_local = 0;
  std::uint64_t skipped_safe_local = 0;
  std::uint64_t skipped_space_local = 0;
  if (skipped_crash_cells == nullptr) skipped_crash_cells = &skipped_local;
  if (skipped_safe_cells == nullptr) skipped_safe_cells = &skipped_safe_local;
  if (skipped_space_cells == nullptr) {
    skipped_space_cells = &skipped_space_local;
  }
  const std::vector<std::string> protocols =
      config.protocols.empty() ? protocol_names() : config.protocols;
  const std::vector<std::string> adversaries = config.adversaries.empty()
                                                   ? engine::adversary_names()
                                                   : config.adversaries;
  const std::vector<RegisterSemantics> semantics_axis =
      config.semantics.empty()
          ? std::vector<RegisterSemantics>{RegisterSemantics::kAtomic}
          : config.semantics;
  const std::vector<SpaceBudget> space_axis =
      config.spaces.empty() ? std::vector<SpaceBudget>{SpaceBudget{}}
                            : config.spaces;
  Rng sweep_rng(config.seed0 ^ 0x70727475ULL);  // independent plan stream
  std::vector<TortureRun> runs;

  // Outermost space and semantics loops: with the default single-entry
  // axes (paper budget, atomic) the enumeration — including the stateful
  // crash-plan rng stream — is byte-identical to the historical matrix.
  for (const SpaceBudget& space : space_axis) {
  for (const RegisterSemantics sem : semantics_axis) {
  for (const std::string& protocol : protocols) {
    const ProtocolSpec& spec = protocol_spec(protocol);
    const bool crash_tolerant = spec.crash_tolerant;
    const bool skip_safe =
        sem == RegisterSemantics::kSafe && !spec.tolerates_safe_reads;
    const bool skip_space = !space.is_default() && !spec.space_sensitive;
    for (const int n : config.ns) {
      for (std::uint64_t k = 0; k < config.seeds_per_cell; ++k) {
        // One seed covers every (adversary × pattern × plan) combination
        // of the cell: identical schedules across protocols at the same
        // coordinates, so cross-protocol comparisons stay meaningful.
        const std::uint64_t seed = config.seed0 + k * 7919;
        const auto patterns = standard_input_patterns(n, seed);
        for (const std::string& adversary : adversaries) {
          for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
            for (const bool with_plan : {false, true}) {
              if (with_plan && !config.crash_plans) continue;
              if (skip_space) {
                // A space-insensitive protocol would execute the exact
                // same instance at every budget; skip and count, like
                // the safe/crash skips below.
                ++*skipped_space_cells;
                continue;
              }
              if (skip_safe) {
                // Safe-register junk would trip the protocol's own
                // always-on invariants and abort the process; skip and
                // count, exactly like crash cells below.
                ++*skipped_safe_cells;
                continue;
              }
              if (!crash_tolerant &&
                  (with_plan || engine::adversary_injects_crashes(adversary))) {
                // Skip once per (adversary, plan) pair, not silently: the
                // report carries the count so nobody mistakes a skipped
                // cell for a covered one.
                ++*skipped_crash_cells;
                continue;
              }
              TortureRun run;
              run.protocol = protocol;
              run.inputs = patterns[pi];
              run.adversary = adversary;
              run.seed = seed ^ (pi * 0x9E37ULL);
              run.max_steps = config.max_steps;
              run.semantics = sem;
              run.space = space;
              if (with_plan) {
                run.crash_plan = seeded_crash_plan(sweep_rng, n);
                if (run.crash_plan.empty()) continue;  // n == 1
              }
              runs.push_back(std::move(run));
            }
          }
        }
      }
    }
  }
  }
  }
  return runs;
}

std::uint64_t outcome_digest(const engine::TrialOutcome& out) {
  std::uint64_t h = kFnvOffset;
  for (const ProcId p : out.schedule) {
    h = fnv_mix(h, static_cast<std::uint64_t>(p));
  }
  for (const auto& c : out.crashes) {
    h = fnv_mix(h, c.at_step * 31 + static_cast<std::uint64_t>(c.victim));
  }
  for (const int d : out.result.decisions) {
    h = fnv_mix(h, static_cast<std::uint64_t>(d + 1));
  }
  h = fnv_mix(h, out.result.total_steps);
  h = fnv_mix(h, static_cast<std::uint64_t>(out.result.failure()));
  // Recorded stale-read choices: empty under atomic semantics, so the
  // historical atomic digests are untouched; under weakened semantics the
  // adversary's choices become part of the independence witness.
  for (const int c : out.stales) {
    h = fnv_mix(h, static_cast<std::uint64_t>(c + 1));
  }
  return h;
}

std::uint64_t quarantined_digest() {
  // The shape of outcome_digest over an empty outcome, with kWorkerCrash
  // as the failure class: no schedule, no crashes, no decisions, zero
  // steps. Any coordinator that quarantines the same index folds the
  // same value.
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, 0);  // total_steps
  h = fnv_mix(h, static_cast<std::uint64_t>(FailureClass::kWorkerCrash));
  return h;
}

OutcomeRecord make_outcome_record(TortureRun&& run,
                                  engine::TrialOutcome&& out) {
  OutcomeRecord record;
  record.digest = outcome_digest(out);
  record.steps = out.result.total_steps;
  record.reason = out.result.reason;
  record.failure = out.result.failure();
  // Liveness downgrade (docs/REGISTER_SEMANTICS.md): a protocol whose
  // termination proof assumes atomic registers can be starved forever by
  // an adversary serving stale values to every racing read. A budget or
  // deadline stop under weakened semantics is inconclusive for such a
  // protocol — count it as an abort (fold_outcome_record still does),
  // don't report a failure. The digest above folds the raw outcome, so
  // every jobs/workers/shard lane chains the same value.
  if (record.failure == FailureClass::kTermination &&
      run.semantics != RegisterSemantics::kAtomic &&
      (record.reason == RunResult::Reason::kBudget ||
       record.reason == RunResult::Reason::kDeadline) &&
      !protocol_spec(run.protocol).live_under_stale_reads) {
    record.failure = FailureClass::kNone;
  }
  if (record.failure != FailureClass::kNone) {
    TortureFailure failure;
    failure.run = std::move(run);
    failure.failure = out.result.failure();
    failure.reason = out.result.reason;
    failure.schedule = std::move(out.schedule);
    failure.crashes = std::move(out.crashes);
    failure.stales = std::move(out.stales);
    failure.result = std::move(out.result);
    record.detail = std::move(failure);
  }
  return record;
}

bool fold_outcome_record(CampaignReport& report, OutcomeRecord&& record,
                         std::size_t max_failures) {
  ++report.runs;
  if (record.reason == RunResult::Reason::kDeadline) {
    ++report.deadline_aborts;
  } else if (record.reason == RunResult::Reason::kBudget) {
    ++report.budget_aborts;
  }
  report.summary_digest = fnv_mix(report.summary_digest, record.digest);
  if (record.failure != FailureClass::kNone) {
    // A failed run always carries its detail; a record stripped of it
    // (a shard file past its detail cap) still counts and chains, it
    // just cannot be shrunk/persisted — which the fold never needs,
    // because it stops at max_failures detailed ones.
    if (record.detail.has_value()) {
      report.failures.push_back(std::move(*record.detail));
    }
    if (report.failures.size() >= max_failures) return false;
  }
  return true;
}

std::uint64_t campaign_matrix_fingerprint(
    const CampaignConfig& config, const std::vector<TortureRun>& runs) {
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, runs.size());
  h = fnv_mix(h, config.max_failures);
  h = fnv_mix(h, static_cast<std::uint64_t>(config.run_deadline.count()));
  for (const TortureRun& run : runs) {
    h = fnv_mix_bytes(h, run.protocol);
    for (const int v : run.inputs) {
      h = fnv_mix(h, static_cast<std::uint64_t>(v + 1));
    }
    h = fnv_mix_bytes(h, run.adversary);
    for (const auto& c : run.crash_plan) {
      h = fnv_mix(h, c.at_step * 31 + static_cast<std::uint64_t>(c.victim));
    }
    h = fnv_mix(h, run.seed);
    h = fnv_mix(h, run.max_steps);
    // Folded only when weakened so atomic-only fingerprints (and shard
    // files already on disk) keep their historical values.
    if (run.semantics != RegisterSemantics::kAtomic) {
      h = fnv_mix(h, static_cast<std::uint64_t>(run.semantics));
    }
    // Same deal for the space lane: only non-default budgets fold, so
    // every pre-existing fingerprint keeps its bytes.
    if (!run.space.is_default()) {
      h = fnv_mix(h, static_cast<std::uint64_t>(run.space.K));
      h = fnv_mix(h, static_cast<std::uint64_t>(run.space.cycle_mult));
      h = fnv_mix(h, static_cast<std::uint64_t>(run.space.slots));
      h = fnv_mix(h, static_cast<std::uint64_t>(run.space.b));
      h = fnv_mix(h, static_cast<std::uint64_t>(run.space.m_scale));
    }
  }
  return h;
}

CampaignReport run_campaign(const CampaignConfig& config,
                            const RunObserver& observer) {
  CampaignReport report;
  std::vector<TortureRun> runs = enumerate_campaign_runs(
      config, &report.skipped_crash_cells, &report.skipped_safe_cells,
      &report.skipped_space_cells);

  std::size_t next = 0;
  const std::chrono::nanoseconds deadline = config.run_deadline;
  const auto generator = [&]() -> std::optional<engine::TrialSpec> {
    if (next >= runs.size()) return std::nullopt;
    return to_trial_spec(runs[next++], deadline, /*record=*/true);
  };

  const auto sink = [&](std::size_t index, const engine::TrialSpec&,
                        engine::TrialOutcome&& out) -> bool {
    if (config.stop_requested && config.stop_requested()) {
      report.interrupted = true;
      return false;
    }
    TortureRun& run = runs[index];
    if (observer) observer(run, out.result);
    return fold_outcome_record(
        report, make_outcome_record(std::move(run), std::move(out)),
        config.max_failures);
  };

  engine::TrialExecutor executor({config.jobs, 0});
  executor.run_trials(generator, sink);
  return report;
}

}  // namespace bprc::fault
