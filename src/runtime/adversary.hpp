// Adversary schedulers for the deterministic simulator.
//
// In the randomized-consensus model the scheduler is an adaptive adversary
// with full knowledge of process states and past coin flips (but not
// future ones). SimRuntime consults an Adversary at every step; the
// strategies here implement the published attack patterns the algorithms
// in this library are designed to absorb (or, for the baselines, to
// succumb to).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace bprc {

/// Width of the O(1) runnable-set digest (SimCtl::runnable_mask): one bit
/// per process id. Simulations wider than this fall back to scanning the
/// view array; replay/exploration tooling that depends on the digest being
/// authoritative validates recorded configurations against this bound.
inline constexpr int kRunnableMaskBits = 64;

/// Read/control surface the simulator exposes to its adversary.
class SimCtl {
 public:
  struct ProcView {
    bool runnable = false;  ///< spawned, not finished, not crashed
    bool crashed = false;
    bool finished = false;
    OpDesc pending;  ///< the operation the process will perform if scheduled
    Hint hint;       ///< protocol-state digest (see runtime.hpp)
    std::uint64_t steps = 0;
  };

  virtual ~SimCtl() = default;
  virtual int nprocs() const = 0;
  virtual const ProcView& proc(ProcId p) const = 0;
  virtual std::uint64_t step() const = 0;

  /// Allocation-free twin of proc(): resolves through a contiguous view
  /// array when the implementation publishes one (SimRuntime does), with
  /// a virtual-call fallback otherwise. Identical results either way; the
  /// adversaries' per-step scan loops go through here. `p` must be in
  /// [0, nprocs()) — the fast path does not bounds-check.
  const ProcView& view(ProcId p) const {
    return fast_views_ != nullptr ? fast_views_[p] : proc(p);
  }

  /// O(1) runnable-set digest when the implementation maintains one: bit p
  /// is set iff process p is runnable. Null when unavailable (more than 64
  /// processes, or an implementation that doesn't track it) — callers must
  /// then fall back to scanning view(p).runnable, which reads identically.
  const std::uint64_t* runnable_mask() const { return fast_mask_; }

  /// Permanently stops scheduling p (a crash failure). Wait-free protocols
  /// tolerate up to nprocs()-1 of these.
  virtual void crash(ProcId p) = 0;

 protected:
  /// Lets a SimCtl decorator (RecordingAdversary's crash tap) inherit the
  /// decorated controller's fast view array and runnable digest.
  void adopt_fast_state(const SimCtl& ctl) {
    fast_views_ = ctl.fast_views_;
    fast_mask_ = ctl.fast_mask_;
  }

  /// Implementations with contiguous per-process views point these at the
  /// live state (and keep them current across reallocation); others leave
  /// them null.
  const ProcView* fast_views_ = nullptr;
  const std::uint64_t* fast_mask_ = nullptr;
};

/// Strategy interface. pick() must return a currently runnable process, or
/// -1 to end the run early.
class Adversary {
 public:
  virtual ~Adversary() = default;
  virtual ProcId pick(SimCtl& ctl) = 0;
  virtual std::string name() const = 0;

  /// Resolves one weakened concurrent read (registers under regular/safe
  /// semantics — see StaleRead in runtime.hpp). Must return a value in
  /// [0, sr.options): 0 = the last committed (atomic) value, 1 = the
  /// in-flight write's value, k >= 2 = the (k-1)-th older committed value
  /// (safe only). Never called under atomic semantics; the default is the
  /// atomic answer, so strategies opt in explicitly.
  virtual int resolve_read(SimCtl& ctl, const StaleRead& sr) {
    (void)ctl;
    (void)sr;
    return 0;
  }
};

/// Uniformly random runnable process each step. The "benign" schedule.
class RandomAdversary final : public Adversary {
 public:
  explicit RandomAdversary(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override { return "random"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;

 private:
  Rng rng_;
};

/// Fixed rotation over runnable processes.
class RoundRobinAdversary final : public Adversary {
 public:
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override { return "round-robin"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;

 private:
  ProcId last_ = -1;
  std::uint64_t stale_turn_ = 0;  ///< rotates the stale-read choice
};

/// Barrier-synchronous: every runnable process moves exactly once per
/// phase, in a per-phase random order. This is the schedule under which
/// processes keep observing each other's freshest local coin flips — the
/// pattern that drives Abrahamson-style local-coin protocols to expected
/// exponential time.
class LockstepAdversary final : public Adversary {
 public:
  explicit LockstepAdversary(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override { return "lockstep"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;

 private:
  Rng rng_;
  std::vector<ProcId> phase_;  ///< processes not yet scheduled this phase
};

/// Adaptive: starves the processes with the highest published round,
/// scheduling a minimal-round runnable process — the canonical attack on
/// round/leader-based protocols (keeps leadership contested).
class LeaderSuppressAdversary final : public Adversary {
 public:
  explicit LeaderSuppressAdversary(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override { return "leader-suppress"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;

 private:
  Rng rng_;
  std::vector<ProcId> ids_;  ///< pick candidates, reused across picks
};

/// Adaptive: attacks the shared coin. Among runnable processes it prefers
/// one whose pending write moves the random walk back toward zero (it has
/// seen the local flip and may reorder the write), keeping the walk away
/// from the decision barriers as long as it can. Lemma 3.1's agreement
/// bound must hold against exactly this adversary.
class CoinBiasAdversary final : public Adversary {
 public:
  explicit CoinBiasAdversary(std::uint64_t seed) : rng_(seed) {}
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override { return "coin-bias"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;

 private:
  Rng rng_;
  std::vector<ProcId> ids_;  ///< pick candidates, reused across picks
};

/// Replays a fixed schedule (one ProcId per step), then falls back to
/// round-robin once the script is exhausted. Skips unrunnable entries.
/// This is the exhaustive-enumeration workhorse of the property tests:
/// every interleaving of a small scenario is a script.
class ScriptedAdversary final : public Adversary {
 public:
  explicit ScriptedAdversary(std::vector<ProcId> script)
      : script_(std::move(script)) {}
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override { return "scripted"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;

  /// Recorded stale-read choices to replay, in resolution order. Past the
  /// script's end every choice is 0 (the atomic answer) — mirroring the
  /// round-robin fallback for picks. Out-of-range entries (hand-edited
  /// artifacts) are clamped into [0, options).
  void set_stale_script(std::vector<int> stales) {
    stales_ = std::move(stales);
    stale_pos_ = 0;
  }

 private:
  std::vector<ProcId> script_;
  std::size_t pos_ = 0;
  std::vector<int> stales_;
  std::size_t stale_pos_ = 0;
  RoundRobinAdversary fallback_;
};

/// Decorator: crashes given processes once the global step counter passes
/// their trigger, otherwise delegates scheduling to the inner strategy.
class CrashPlanAdversary final : public Adversary {
 public:
  struct Crash {
    std::uint64_t at_step;
    ProcId victim;
  };

  CrashPlanAdversary(std::unique_ptr<Adversary> inner, std::vector<Crash> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override {
    return inner_->name() + "+crashes";
  }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override {
    return inner_->resolve_read(ctl, sr);
  }

  /// The decorated strategy (e.g. to reach ScriptedAdversary's stale
  /// script through the crash decorator).
  Adversary& inner() { return *inner_; }

 private:
  std::unique_ptr<Adversary> inner_;
  std::vector<Crash> plan_;
  std::size_t next_ = 0;
};

/// Decorator: records the inner strategy's pick sequence AND its crash
/// injections (it interposes on the SimCtl handed to the inner strategy).
/// A recorded run replays exactly as
///
///   CrashPlanAdversary(ScriptedAdversary(script()), crashes())
///
/// under the same seed — the debugging loop for failures found by
/// randomized testing: reproduce via the seed, record, then replay/shrink
/// the schedule (src/fault/ automates the shrinking).
class RecordingAdversary final : public Adversary {
 public:
  explicit RecordingAdversary(std::unique_ptr<Adversary> inner)
      : inner_(std::move(inner)) {}
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override { return inner_->name() + "+rec"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;

  /// The schedule so far; pass to ScriptedAdversary to replay.
  const std::vector<ProcId>& script() const { return script_; }

  /// Crashes the inner strategy performed, in chronological order; pass
  /// to CrashPlanAdversary to replay.
  const std::vector<CrashPlanAdversary::Crash>& crashes() const {
    return crashes_;
  }

  /// Stale-read choices the inner strategy made, in resolution order;
  /// pass to ScriptedAdversary::set_stale_script to replay.
  const std::vector<int>& stales() const { return stales_; }

 private:
  std::unique_ptr<Adversary> inner_;
  std::vector<ProcId> script_;
  std::vector<CrashPlanAdversary::Crash> crashes_;
  std::vector<int> stales_;
};

/// Adaptive crash injector: kills up to `max_crashes` processes (default
/// n-1, the paper's wait-freedom bound) at protocol-sensitive points read
/// off the published Hint / pending OpDesc — a leader about to decide, a
/// process whose observed coin flip has not yet hit shared memory
/// (walk_delta pending), or a mid-scan reader holding a live preference.
/// Scheduling between crashes is uniformly random.
class CrashStormAdversary final : public Adversary {
 public:
  explicit CrashStormAdversary(std::uint64_t seed, int max_crashes = -1,
                               double crash_prob = 0.02)
      : rng_(seed), max_crashes_(max_crashes), crash_prob_(crash_prob) {}
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override { return "crash-storm"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;

 private:
  Rng rng_;
  int max_crashes_;  ///< -1 = nprocs()-1
  double crash_prob_;
};

/// Alternates long solo bursts between two halves of the process set (ids
/// below n/2 vs the rest) — each group runs as if the other were dead,
/// then is starved while the other catches up. The schedule that punishes
/// protocols relying on round freshness: every burst boundary is a
/// maximal information shear.
class SplitBrainAdversary final : public Adversary {
 public:
  explicit SplitBrainAdversary(std::uint64_t seed,
                               std::uint64_t mean_burst = 200)
      : rng_(seed), mean_burst_(mean_burst) {}
  ProcId pick(SimCtl& ctl) override;
  std::string name() const override { return "split-brain"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;

 private:
  Rng rng_;
  std::uint64_t mean_burst_;
  int group_ = 0;              ///< group currently being run solo
  std::uint64_t remaining_ = 0; ///< picks left in the current burst
  std::vector<ProcId> ids_;     ///< pick candidates, reused across picks
};

/// All adversaries used by the integration test matrix, freshly seeded.
std::vector<std::unique_ptr<Adversary>> standard_adversaries(
    std::uint64_t seed);

/// The torture-harness extension of the standard matrix: the two
/// fault-injection adversaries (crash-storm, split-brain).
std::vector<std::unique_ptr<Adversary>> hostile_adversaries(
    std::uint64_t seed);

}  // namespace bprc
