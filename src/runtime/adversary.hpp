// Adversary schedulers for the deterministic simulator.
//
// In the randomized-consensus model the scheduler is an adaptive adversary
// with full knowledge of process states and past coin flips (but not
// future ones). SimRuntime consults an Adversary at every step; the
// strategies here implement the published attack patterns the algorithms
// in this library are designed to absorb (or, for the baselines, to
// succumb to).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace bprc {

/// Width of the O(1) runnable-set digest (SimCtl::runnable_mask): one bit
/// per process id. Simulations wider than this fall back to scanning the
/// view array; replay/exploration tooling that depends on the digest
/// being authoritative validates recorded configurations against this
/// bound.
inline constexpr int kRunnableMaskBits = 64;

struct ScheduleRecord;

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

  /// View epoch when the implementation maintains one: a counter that
  /// advances on every change to `runnable`, `crashed`, `finished` or
  /// `hint` of any view, so candidates a strategy derived from those
  /// fields stay valid while it stands still (`pending` and `steps`
  /// change at every step and are not covered). SimRuntime publishes one
  /// at every n; null for controllers without one (test doubles), and
  /// strategies then re-derive per pick.
  const std::uint64_t* view_epoch() const { return fast_epoch_; }

  /// Makes the implementation append every pick, effective crash and
  /// stale-read choice of the run to `*record` (null stops recording).
  /// SimRuntime records; a controller without a recorder (test doubles)
  /// ignores it.
  void set_record(ScheduleRecord* record) { record_ = record; }

  /// Permanently stops scheduling p (a crash failure). Wait-free protocols
  /// tolerate up to nprocs()-1 of these.
  virtual void crash(ProcId p) = 0;

 protected:
  /// Implementations with contiguous per-process views point these at the
  /// live state (and keep them current across reallocation); others leave
  /// them null.
  const ProcView* fast_views_ = nullptr;
  const std::uint64_t* fast_mask_ = nullptr;
  const std::uint64_t* fast_epoch_ = nullptr;
  ScheduleRecord* record_ = nullptr;  ///< not owned; see set_record
};

/// Candidate lists a strategy derives from a controller's views, kept
/// while the controller's view epoch stands still (SimCtl::view_epoch).
/// List i of an n-process simulation starts at list(i) and holds its
/// candidates in id order. Without an epoch every pick re-derives them.
class CandidateCache {
 public:
  /// The buffer to derive `lists` lists into when the views moved since
  /// the last derivation or the controller publishes no epoch; null while
  /// the lists derived last time are current. A crash() moves the epoch,
  /// so a strategy that crashes mid-pick asks again before drawing.
  ProcId* stale(const SimCtl& ctl, int lists) {
    const std::uint64_t* epoch = ctl.view_epoch();
    if (epoch != nullptr && *epoch == epoch_) return nullptr;
    epoch_ = epoch != nullptr ? *epoch : kNever;
    n_ = ctl.nprocs();
    const auto need =
        static_cast<std::size_t>(n_) * static_cast<std::size_t>(lists);
    if (ids_.size() < need) ids_.resize(need);
    return ids_.data();
  }

  const ProcId* list(int i) const { return ids_.data() + i * n_; }
  int nprocs() const { return n_; }

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::uint64_t epoch_ = kNever;
  int n_ = 0;
  std::vector<ProcId> ids_;
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
  CandidateCache cache_;  ///< list 0: the runnable processes
  int runnable_ = 0;
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
  CandidateCache cache_;  ///< list 0: runnable processes at the min round
  int laggards_ = 0;
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
  /// List 0: the runnable processes; list 1: those whose pending walk
  /// step the adversary prefers.
  CandidateCache cache_;
  int runnable_ = 0;
  int preferred_ = 0;
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

/// What a simulated run's adversary decided, as SimRuntime records it
/// (SimCtl::set_record). A recorded run replays exactly as
///
///   CrashPlanAdversary(ScriptedAdversary(picks), crashes)
///
/// with ScriptedAdversary::set_stale_script(stales), under the same
/// seed — the debugging loop for failures found by
/// randomized testing: reproduce via the seed, record, then replay/shrink
/// the schedule (src/fault/ automates the shrinking).
struct ScheduleRecord {
  std::vector<ProcId> picks;  ///< every pick of a process, in order
  /// Effective crashes (of processes neither finished nor crashed), with
  /// the step counter at injection, in chronological order.
  std::vector<CrashPlanAdversary::Crash> crashes;
  std::vector<int> stales;  ///< stale-read choices, in resolution order
};

/// Decorator that records a run of the inner strategy: on every pick it
/// points the simulator's record (SimCtl::set_record) at its own, so the
/// simulator appends the picks, the crashes the inner strategy (or a
/// crash plan inside it) injects, and the stale-read choices. It must be
/// the simulator's own adversary, not nested in another decorator, and
/// records nothing under a controller without a recorder (test doubles).
/// engine::run_trial installs a record directly instead.
class RecordingAdversary final : public Adversary {
 public:
  explicit RecordingAdversary(std::unique_ptr<Adversary> inner)
      : inner_(std::move(inner)) {}
  ProcId pick(SimCtl& ctl) override {
    ctl.set_record(&record_);
    return inner_->pick(ctl);
  }
  std::string name() const override { return inner_->name() + "+rec"; }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override {
    return inner_->resolve_read(ctl, sr);
  }

  /// The schedule so far; pass to ScriptedAdversary to replay.
  const std::vector<ProcId>& script() const { return record_.picks; }

  /// Crashes performed, in chronological order; pass to
  /// CrashPlanAdversary to replay.
  const std::vector<CrashPlanAdversary::Crash>& crashes() const {
    return record_.crashes;
  }

  /// Stale-read choices, in resolution order; pass to
  /// ScriptedAdversary::set_stale_script to replay.
  const std::vector<int>& stales() const { return record_.stales; }

 private:
  std::unique_ptr<Adversary> inner_;
  ScheduleRecord record_;
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
  CandidateCache cache_;  ///< list 0: the runnable processes
  int runnable_ = 0;
  int crashed_ = 0;  ///< crashed processes, whoever crashed them
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
  /// List 0: the runnable processes, group 0's (ids below n/2) first.
  CandidateCache cache_;
  std::array<int, 2> counts_{};  ///< runnable members of each group
};

/// All adversaries used by the integration test matrix, freshly seeded.
std::vector<std::unique_ptr<Adversary>> standard_adversaries(
    std::uint64_t seed);

/// The torture-harness extension of the standard matrix: the two
/// fault-injection adversaries (crash-storm, split-brain).
std::vector<std::unique_ptr<Adversary>> hostile_adversaries(
    std::uint64_t seed);

}  // namespace bprc
