// Deterministic simulator: the strong-adversary execution model.
//
// One fiber per simulated process; at every shared-memory operation the
// process parks and the Adversary chooses who moves next. Given the same
// seed, adversary, and process bodies, a run is bit-for-bit reproducible —
// every property-test counterexample is replayable.
//
// Scheduling fast path: when the adversary re-picks the process that is
// already running, checkpoint() consults it inline and simply returns —
// no park, no fiber switch, no heap traffic (docs/PERFORMANCE.md states
// the invariant this relies on). The adversary cannot tell the difference:
// it observes the exact same ProcView sequence either way.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/adversary.hpp"
#include "runtime/fiber.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace bprc {

class SimRuntime final : public Runtime, private SimCtl {
 public:
  /// `seed` derives every process's local coin; the adversary carries its
  /// own seed.
  SimRuntime(int nprocs, std::unique_ptr<Adversary> adversary,
             std::uint64_t seed);
  ~SimRuntime() override;

  /// Re-arms this runtime for a fresh run without reconstructing it: the
  /// process table is rebuilt, old fibers are destroyed (their stacks
  /// return to the FiberStackPool), counters are zeroed, and per-process
  /// RNGs are re-derived from `seed` exactly as the constructor does. A
  /// reset runtime is observably identical to a freshly constructed one —
  /// bit-identical traces (tests/test_sim_runtime.cpp pins this).
  void reset(int nprocs, std::unique_ptr<Adversary> adversary,
             std::uint64_t seed);

  /// Registers the body of process p. Must be called before run(); the
  /// body starts executing only when the adversary first schedules p.
  void spawn(ProcId p, std::function<void()> body);

  /// Installs a shared-memory observer (see Runtime::TraceSink docs). Not
  /// owned; cleared by reset(). Must be installed *before* the shared
  /// objects that should report are constructed — registers cache the
  /// sink pointer at construction.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

  /// Appends every pick, effective crash and stale-read choice of the run
  /// to `*record` (see ScheduleRecord), or stops recording with null. Not
  /// owned; cleared by reset(). This is the one place runs are recorded:
  /// engine::run_trial installs a record here, RecordingAdversary points
  /// it at its own through SimCtl.
  using SimCtl::set_record;

  /// Selects the register semantics the simulation runs under (see
  /// RegisterSemantics). Like set_trace_sink, must be called *before* the
  /// shared objects are constructed — registers cache the value — and is
  /// reset to kAtomic by reset(). Under kRegular/kSafe the adversary's
  /// resolve_read is consulted for every read that overlaps an in-flight
  /// write.
  void set_register_semantics(RegisterSemantics s) { semantics_ = s; }

  /// Installs a flip interposer on every process's local coin (see
  /// FlipTape). Not owned; cleared by reset(). The adversary's own Rng
  /// (if any) is unaffected — only process-local coins are taped.
  void set_flip_tape(FlipTape* tape) {
    for (ProcState& st : states_) st.rng.set_flip_tape(tape);
  }

  /// Drives the simulation until every non-crashed process finishes or
  /// `max_steps` primitive operations have been executed. On return, all
  /// unfinished fibers have been unwound (ProcessStopped) so RAII cleanup
  /// ran; the shared-memory history up to that point is untouched.
  ///
  /// `deadline` is a wall-clock watchdog for torture campaigns: a run
  /// that is still going after that much real time aborts with
  /// Reason::kDeadline (checked every few thousand steps, so overshoot is
  /// bounded). Zero disables the watchdog. Deadline aborts are the only
  /// non-deterministic exit — replay tooling must not rely on them.
  RunResult run(std::uint64_t max_steps,
                std::chrono::nanoseconds deadline = std::chrono::nanoseconds::zero());

  /// SimCtl::view_epoch: advances on every spawn, hint publication,
  /// crash, body finish and end-of-run unwind. Published at every n.
  using SimCtl::view_epoch;

  bool crashed(ProcId p) const { return views_[checked(p)].crashed; }
  bool finished(ProcId p) const { return views_[checked(p)].finished; }
  const Hint& hint(ProcId p) const { return views_[checked(p)].hint; }

  // --- Runtime interface (called from inside process bodies) ---
  int nprocs() const override { return static_cast<int>(views_.size()); }
  bool concurrent() const override { return false; }  // one OS thread
  ProcId self() const override { return current_; }
  void checkpoint(const OpDesc& op) override;
  std::uint64_t now() override { return ++now_; }
  Rng& rng() override;
  void publish_hint(const Hint& hint) override;
  std::uint64_t steps(ProcId p) const override {
    return views_[checked(p)].steps;
  }
  std::uint64_t total_steps() const override { return total_steps_; }
  TraceSink* trace_sink() const override { return trace_sink_; }
  RegisterSemantics register_semantics() const override { return semantics_; }
  int resolve_stale_read(const StaleRead& sr) override {
    const int choice = adversary_->resolve_read(*this, sr);
    if (record_ != nullptr) record_->stales.push_back(choice);
    return choice;
  }

 private:
  /// Per-process state the adversary never sees; the visible half lives in
  /// views_ (contiguous, so adversary scans are cache-linear and reachable
  /// without a virtual call — see SimCtl::view).
  struct ProcState {
    std::unique_ptr<Fiber> fiber;
    Rng rng{0};
    bool stop = false;            ///< next checkpoint must throw
    bool stop_delivered = false;  ///< ProcessStopped already thrown once
  };

  // --- SimCtl interface (called by the adversary) ---
  const SimCtl::ProcView& proc(ProcId p) const override {
    return views_[checked(p)];
  }
  std::uint64_t step() const override { return total_steps_; }
  void crash(ProcId p) override;

  /// Shared constructor/reset body.
  void init(int nprocs, std::unique_ptr<Adversary> adversary,
            std::uint64_t seed);

  std::size_t checked(ProcId p) const;
  bool any_runnable() const;
  /// The adversary's next pick, appended to the record when one is
  /// installed.
  ProcId consult() {
    const ProcId p = adversary_->pick(*this);
    if (record_ != nullptr && p >= 0) record_->picks.push_back(p);
    return p;
  }
  /// Keep the O(1) runnable digest (SimCtl::runnable_mask) in sync with
  /// views_[ix].runnable. Digest bits exist only for ids <
  /// kRunnableMaskBits; beyond that fast_mask_ stays null and everything
  /// scans views_ instead. Every runnable/crashed/finished change goes
  /// through one of these, so they also advance the view epoch
  /// (SimCtl::view_epoch), as publish_hint does for hints.
  void mask_set(std::size_t ix) {
    if (ix < kRunnableMaskBits) runnable_mask_ |= std::uint64_t{1} << ix;
    ++view_epoch_;
  }
  void mask_clear(std::size_t ix) {
    if (ix < kRunnableMaskBits) runnable_mask_ &= ~(std::uint64_t{1} << ix);
    ++view_epoch_;
  }
  /// True when the wall-clock watchdog is armed, due for a check at the
  /// current step count, and expired.
  bool watchdog_expired() const;
  void unwind_survivors();

  // The watchdog reads steady_clock only every kWatchdogStride steps: a
  // clock read per primitive operation would dominate small runs.
  static constexpr std::uint64_t kWatchdogStride = 4096;

  std::vector<SimCtl::ProcView> views_;  ///< adversary-visible, contiguous
  std::vector<ProcState> states_;        ///< same index as views_
  TraceSink* trace_sink_ = nullptr;      ///< not owned; cleared by reset()
  RegisterSemantics semantics_ = RegisterSemantics::kAtomic;
  std::uint64_t runnable_mask_ = 0;      ///< bit p = views_[p].runnable
  /// SimCtl::view_epoch. Never reset, so candidates cached against one
  /// run cannot match a later run of a reset() runtime.
  std::uint64_t view_epoch_ = 0;
  std::unique_ptr<Adversary> adversary_;
  ProcId current_ = -1;
  std::uint64_t total_steps_ = 0;
  std::uint64_t now_ = 0;
  bool ran_ = false;

  // --- run-loop state shared with the checkpoint fast path ---
  bool in_run_ = false;          ///< checkpoint may consult the adversary
  bool has_pending_pick_ = false;
  ProcId pending_pick_ = -1;     ///< pick made inline, consumed by run()
  std::uint64_t max_steps_ = 0;
  bool watched_ = false;
  std::chrono::steady_clock::time_point deadline_at_{};
};

}  // namespace bprc
