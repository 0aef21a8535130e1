#include "explore/leaf_grader.hpp"

#include <memory>
#include <string>

#include "consensus/driver.hpp"
#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/assert.hpp"

namespace bprc::explore {

namespace {

/// Scripted prefix, then the serial explorer's deterministic tail:
/// round-robin from the last scheduled process. Every pick lands in the
/// event stream.
class LeafAdversary final : public Adversary {
 public:
  LeafAdversary(const std::vector<ProcId>* schedule,
                const std::vector<int>* stales,
                std::vector<std::uint8_t>* events)
      : schedule_(schedule), stales_(stales), events_(events) {}

  ProcId pick(SimCtl& ctl) override {
    const std::uint64_t runnable = ctl.runnable_mask();
    if (runnable == 0) return -1;
    ProcId p = -1;
    if (pos_ < schedule_->size()) {
      p = (*schedule_)[pos_++];
      BPRC_REQUIRE(p >= 0 && p < ctl.nprocs() &&
                       (runnable >> static_cast<unsigned>(p)) & 1,
                   "leaf replay diverged: scripted pick not runnable");
    } else {
      p = round_robin_after(runnable, last_, ctl.nprocs());
    }
    last_ = p;
    events_->push_back(static_cast<std::uint8_t>(p + 1));
    return p;
  }

  std::string name() const override { return "explore-leaf"; }

  /// Consumes the coordinator's forced stale-read prefix, then serves the
  /// atomic answer — the serial explorer's deterministic tail. Every
  /// resolution lands in the event stream, mirroring record_stale.
  int resolve_read(SimCtl&, const StaleRead& sr) override {
    int choice = 0;
    if (spos_ < stales_->size()) {
      choice = (*stales_)[spos_++];
      BPRC_REQUIRE(choice >= 0 && choice < sr.options,
                   "leaf replay diverged: forced stale choice out of range");
    }
    events_->push_back(static_cast<std::uint8_t>(kEventStaleBase + choice));
    return choice;
  }

 private:
  const std::vector<ProcId>* schedule_;
  const std::vector<int>* stales_;
  std::vector<std::uint8_t>* events_;
  std::size_t pos_ = 0;
  std::size_t spos_ = 0;
  ProcId last_ = -1;
};

/// Forces the recorded flip prefix (the coordinator's coin branching),
/// then passes the seed-derived draws through — ScriptedFlipTape
/// semantics plus event recording.
class RecordingFlipTape final : public FlipTape {
 public:
  RecordingFlipTape(const std::vector<bool>* forced,
                    std::vector<std::uint8_t>* events)
      : forced_(forced), events_(events) {}

  bool on_flip(bool drawn) override {
    const bool value = pos_ < forced_->size() ? (*forced_)[pos_++] : drawn;
    events_->push_back(value ? kEventFlipTrue : kEventFlipFalse);
    return value;
  }

 private:
  const std::vector<bool>* forced_;
  std::vector<std::uint8_t>* events_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<ProcId> decode_schedule(const std::vector<std::uint8_t>& events) {
  std::vector<ProcId> out;
  out.reserve(events.size());
  for (const std::uint8_t b : events) {
    if (b >= 1 && b <= kRunnableMaskBits) {
      out.push_back(static_cast<ProcId>(b - 1));
    }
  }
  return out;
}

LeafOutcome grade_leaf(ExploreTarget& target, const ExploreLimits& limits,
                       std::uint64_t seed, const LeafSpec& spec,
                       SimReuse& reuse) {
  LeafOutcome out;
  SimRuntime& rt = reuse.acquire(
      target.nprocs(),
      std::make_unique<LeafAdversary>(&spec.schedule, &spec.stales,
                                      &out.events),
      seed);
  RecordingFlipTape tape(&spec.flips, &out.events);
  // Before instantiate(): registers cache the semantics at construction.
  rt.set_register_semantics(limits.semantics);
  std::unique_ptr<ExploreTarget::Instance> instance = target.instantiate(rt);
  BPRC_REQUIRE(instance != nullptr, "explore target produced no instance");
  rt.set_flip_tape(&tape);
  const RunResult run = rt.run(limits.max_run_steps);
  rt.set_flip_tape(nullptr);
  out.steps = run.steps;
  out.complete = run.reason == RunResult::Reason::kAllDone;
  BPRC_REQUIRE(out.complete || run.reason == RunResult::Reason::kBudget,
               "leaf grading run ended for an unexpected reason");
  out.violation = instance->check(rt, run, out.complete);
  return out;  // instance destroyed before the next acquire() re-arms rt
}

}  // namespace bprc::explore
