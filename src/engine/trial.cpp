#include "engine/trial.hpp"

#include <memory>
#include <utility>

#include "engine/adversaries.hpp"
#include "util/assert.hpp"

namespace bprc::engine {

TrialOutcome run_trial(const TrialSpec& spec, SimReuse* reuse) {
  BPRC_REQUIRE(spec.factory != nullptr, "TrialSpec without a protocol factory");
  const std::vector<bool>* flips =
      spec.forced_flips.has_value() ? &*spec.forced_flips : nullptr;

  std::unique_ptr<Adversary> adv;
  if (spec.scripted) {
    // Replay: fixed pick sequence + fixed crash events + fixed stale-read
    // choices; nothing to record.
    auto scripted = std::make_unique<ScriptedAdversary>(spec.schedule);
    if (!spec.forced_stales.empty()) {
      scripted->set_stale_script(spec.forced_stales);
    }
    adv = std::move(scripted);
  } else {
    adv = make_adversary(spec.adversary,
                         spec.adversary_seed.value_or(spec.seed));
  }
  if (!spec.crash_plan.empty()) {
    adv = std::make_unique<CrashPlanAdversary>(std::move(adv),
                                               spec.crash_plan);
  }

  // The simulator records the run itself (SimRuntime::set_record).
  ScheduleRecord record;
  const bool recording = spec.record && !spec.scripted;
  TrialOutcome out;
  out.result = run_consensus_sim(spec.factory, spec.inputs, std::move(adv),
                                 spec.seed, spec.max_steps, spec.deadline,
                                 reuse, flips, spec.semantics,
                                 recording ? &record : nullptr);
  out.failure = out.result.failure();
  out.schedule = std::move(record.picks);
  out.crashes = std::move(record.crashes);
  out.stales = std::move(record.stales);
  return out;
}

}  // namespace bprc::engine
