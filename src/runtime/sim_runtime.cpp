#include "runtime/sim_runtime.hpp"

#include <utility>

#include "util/assert.hpp"

namespace bprc {

SimRuntime::SimRuntime(int nprocs, std::unique_ptr<Adversary> adversary,
                       std::uint64_t seed) {
  init(nprocs, std::move(adversary), seed);
}

SimRuntime::~SimRuntime() {
  // run() unwinds survivors; if run() was never called there are no
  // started fibers (spawn only parks them before their body).
}

void SimRuntime::init(int nprocs, std::unique_ptr<Adversary> adversary,
                      std::uint64_t seed) {
  BPRC_REQUIRE(nprocs > 0, "simulator needs at least one process");
  BPRC_REQUIRE(adversary != nullptr, "simulator needs an adversary");
  adversary_ = std::move(adversary);

  const auto count = static_cast<std::size_t>(nprocs);
  views_.assign(count, SimCtl::ProcView{});
  fast_views_ = views_.data();  // SimCtl::view() fast path
  runnable_mask_ = 0;
  fast_mask_ =
      count <= static_cast<std::size_t>(kRunnableMaskBits) ? &runnable_mask_
                                                           : nullptr;
  fast_epoch_ = &view_epoch_;
  ++view_epoch_;  // the views were rebuilt
  if (states_.size() == count) {
    for (ProcState& st : states_) {
      st.fiber.reset();  // stack returns to the FiberStackPool
      st.stop = false;
      st.stop_delivered = false;
    }
  } else {
    states_.clear();
    states_.resize(count);
  }
  Rng master(seed);
  for (std::size_t i = 0; i < count; ++i) {
    states_[i].rng = master.split(i);
  }

  trace_sink_ = nullptr;
  record_ = nullptr;
  semantics_ = RegisterSemantics::kAtomic;
  current_ = -1;
  total_steps_ = 0;
  now_ = 0;
  ran_ = false;
  in_run_ = false;
  has_pending_pick_ = false;
  pending_pick_ = -1;
  max_steps_ = 0;
  watched_ = false;
}

void SimRuntime::reset(int nprocs, std::unique_ptr<Adversary> adversary,
                       std::uint64_t seed) {
  BPRC_REQUIRE(!in_run_, "reset() called from inside run()");
  // Fibers left suspended by the previous run (crashed processes) are
  // destroyed without unwinding, exactly as ~SimRuntime would.
  init(nprocs, std::move(adversary), seed);
}

std::size_t SimRuntime::checked(ProcId p) const {
  BPRC_REQUIRE(p >= 0 && p < nprocs(), "process id out of range");
  return static_cast<std::size_t>(p);
}

void SimRuntime::spawn(ProcId p, std::function<void()> body) {
  const std::size_t ix = checked(p);
  BPRC_REQUIRE(states_[ix].fiber == nullptr, "process spawned twice");
  BPRC_REQUIRE(!ran_, "spawn after run");
  states_[ix].fiber = std::make_unique<Fiber>([this, ix, fn = std::move(body)] {
    try {
      fn();
    } catch (const ProcessStopped&) {
      // Normal shutdown path for crashed / budget-stopped processes.
    }
    views_[ix].finished = true;
    views_[ix].runnable = false;
    mask_clear(ix);
  });
  views_[ix].runnable = true;
  mask_set(ix);
}

bool SimRuntime::watchdog_expired() const {
  return watched_ && (total_steps_ % kWatchdogStride == 0) &&
         std::chrono::steady_clock::now() >= deadline_at_;
}

void SimRuntime::checkpoint(const OpDesc& op) {
  const std::size_t ix = checked(current_);
  ProcState& me = states_[ix];
  SimCtl::ProcView& view = views_[ix];
  if (me.stop) {
    // A second checkpoint after ProcessStopped was delivered means the
    // body caught and swallowed it; that would deadlock the teardown, so
    // fail loudly instead.
    BPRC_REQUIRE(!me.stop_delivered,
                 "process swallowed ProcessStopped; bodies must let it "
                 "propagate");
    me.stop_delivered = true;
    throw ProcessStopped{};
  }
  view.pending = op;
  ++view.steps;
  ++total_steps_;

  // Fast path: consult the adversary here, before parking. The budget and
  // watchdog gates mirror the run-loop head exactly, so the adversary is
  // asked at precisely the step counts it would be asked at after a park —
  // recorded schedules are bit-identical with and without this shortcut.
  // When the pick lands on the running process (guaranteed under solo
  // tails, 1/k under uniform-random over k runnable) control never leaves
  // this stack: no fiber switch, no heap, nothing beyond the pick() call.
  if (in_run_ && total_steps_ < max_steps_ && !watchdog_expired()) {
    const ProcId p = consult();
    if (p == current_) {
      // crash(current_) inside pick() would have set me.stop; a self-pick
      // therefore implies the process is still runnable.
      BPRC_REQUIRE(view.runnable, "adversary picked unrunnable process");
      return;
    }
    if (Fiber::kDirectHandoff && p >= 0) {
      // Switch straight into the picked fiber — one context swap instead
      // of park + run-loop iteration + resume. The run loop regains
      // control only at the gates above, on a -1 pick, or when a fiber
      // finishes; everything the adversary observes is unchanged.
      BPRC_REQUIRE(views_[checked(p)].runnable,
                   "adversary picked unrunnable process");
      current_ = p;
      me.fiber->switch_to(*states_[static_cast<std::size_t>(p)].fiber);
      // Scheduled again (by a later handoff or a run-loop resume).
      if (me.stop) {
        me.stop_delivered = true;
        throw ProcessStopped{};
      }
      return;
    }
    // Hand the pick to the run loop; it must not re-run the head checks
    // (that would double the watchdog cadence) nor ask the adversary again.
    pending_pick_ = p;
    has_pending_pick_ = true;
  }

  me.fiber->yield();  // park; the run loop takes over
  if (me.stop) {
    me.stop_delivered = true;
    throw ProcessStopped{};
  }
}

Rng& SimRuntime::rng() {
  return states_[checked(current_)].rng;
}

void SimRuntime::publish_hint(const Hint& hint) {
  views_[checked(current_)].hint = hint;
  ++view_epoch_;
}

void SimRuntime::crash(ProcId p) {
  const std::size_t ix = checked(p);
  SimCtl::ProcView& view = views_[ix];
  if (view.finished || view.crashed) return;
  if (record_ != nullptr) record_->crashes.push_back({total_steps_, p});
  view.crashed = true;
  view.runnable = false;
  mask_clear(ix);
  states_[ix].stop = true;
}

bool SimRuntime::any_runnable() const {
  if (fast_mask_ != nullptr) return runnable_mask_ != 0;
  for (const auto& view : views_) {
    if (view.runnable) return true;
  }
  return false;
}

RunResult SimRuntime::run(std::uint64_t max_steps,
                          std::chrono::nanoseconds deadline) {
  BPRC_REQUIRE(!ran_, "run() may only be called once (reset() re-arms)");
  ran_ = true;
  watched_ = deadline > std::chrono::nanoseconds::zero();
  deadline_at_ = std::chrono::steady_clock::now() + deadline;
  max_steps_ = max_steps;
  in_run_ = true;
  has_pending_pick_ = false;

  RunResult result;
  while (true) {
    ProcId p;
    if (has_pending_pick_) {
      // checkpoint() already ran the head checks and the pick for this
      // step count; consuming it here keeps the adversary's observation
      // sequence identical to the always-park schedule.
      has_pending_pick_ = false;
      p = pending_pick_;
    } else {
      if (!any_runnable()) {
        // kAllDone means every *non-crashed* process finished its body;
        // crashed processes are expected casualties, not a failed run.
        bool survivors_finished = true;
        bool any_survivor = false;
        for (const auto& view : views_) {
          if (view.crashed) continue;
          any_survivor = true;
          survivors_finished = survivors_finished && view.finished;
        }
        result.reason = (any_survivor && survivors_finished)
                            ? RunResult::Reason::kAllDone
                            : RunResult::Reason::kNoRunnable;
        break;
      }
      if (total_steps_ >= max_steps) {
        result.reason = RunResult::Reason::kBudget;
        break;
      }
      if (watchdog_expired()) {
        result.reason = RunResult::Reason::kDeadline;
        break;
      }
      p = consult();
    }
    if (p < 0) {
      result.reason = RunResult::Reason::kNoRunnable;
      break;
    }
    ProcState& state = states_[checked(p)];
    BPRC_REQUIRE(views_[static_cast<std::size_t>(p)].runnable,
                 "adversary picked unrunnable process");
    current_ = p;
    state.fiber->resume();
    current_ = -1;
  }

  in_run_ = false;
  unwind_survivors();
  result.steps = total_steps_;
  return result;
}

void SimRuntime::unwind_survivors() {
  // Give every parked, unfinished fiber one final resume with the stop
  // flag raised so it unwinds via ProcessStopped and its destructors run.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    ProcState& state = states_[i];
    if (state.fiber == nullptr || state.fiber->finished()) continue;
    state.stop = true;
    views_[i].runnable = false;
    mask_clear(i);
    current_ = static_cast<ProcId>(i);
    state.fiber->resume();
    current_ = -1;
    BPRC_REQUIRE(state.fiber->finished(),
                 "process swallowed ProcessStopped; bodies must let it "
                 "propagate");
  }
}

}  // namespace bprc
