#include "runtime/adversary.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "util/assert.hpp"

namespace bprc {

namespace {

// The pick() implementations below run once per simulated step — the
// hottest loop in the repository. After an adversary's first pick they
// allocate nothing: counting the candidates, drawing below(count), then
// taking the k-th candidate makes the same rng draws and returns the same
// process as the historical "collect ids into a vector, index it" code
// (candidates are always enumerated in id order). Recorded schedules are
// bit-identical.

/// Number of runnable processes.
int runnable_count(const SimCtl& ctl) {
  if (const std::uint64_t* mask = ctl.runnable_mask()) {
    return std::popcount(*mask);
  }
  const int n = ctl.nprocs();
  int count = 0;
  for (ProcId p = 0; p < n; ++p) {
    if (ctl.view(p).runnable) ++count;
  }
  return count;
}

/// The k-th runnable process in id order; k must be < runnable_count().
ProcId nth_runnable(const SimCtl& ctl, std::uint64_t k) {
  if (const std::uint64_t* mask = ctl.runnable_mask()) {
    // k-th lowest set bit = k-th runnable in id order, same as the scan.
    std::uint64_t m = *mask;
    while (k-- > 0) m &= m - 1;  // clear the k lowest set bits
    BPRC_REQUIRE(m != 0, "runnable rank out of range");
    return static_cast<ProcId>(std::countr_zero(m));
  }
  const int n = ctl.nprocs();
  for (ProcId p = 0; p < n; ++p) {
    if (ctl.view(p).runnable && k-- == 0) return p;
  }
  BPRC_REQUIRE(false, "runnable rank out of range");
  __builtin_unreachable();
}

/// The candidate buffer of a pick over `lists` filtered candidate sets of
/// an n-process simulation: list i is gathered, in id order, into slots
/// [i*n, (i+1)*n). The buffer is a member of the adversary, sized on its
/// first pick and reused by every later one.
ProcId* candidate_lists(std::vector<ProcId>& buf, int n, int lists) {
  const auto need = static_cast<std::size_t>(n) * static_cast<std::size_t>(lists);
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

/// Uniform pick over the runnable set; -1 (no draw) when it is empty.
ProcId pick_uniform_runnable(const SimCtl& ctl, Rng& rng) {
  const int count = runnable_count(ctl);
  if (count == 0) return -1;
  return nth_runnable(ctl, rng.below(static_cast<std::uint64_t>(count)));
}

}  // namespace

// resolve_read implementations. The randomized strategies draw from the
// same generator as their pick() — under atomic semantics resolve_read is
// never called, so their recorded schedules are unchanged; under weakened
// semantics the extra draws interleave deterministically and replay from
// the seed. The adaptive strategies always take the last option — the
// value most divergent from the atomic answer (the in-flight value under
// regular, the oldest held value under safe): maximal information shear,
// the canonical weak-register attack.

ProcId RandomAdversary::pick(SimCtl& ctl) {
  return pick_uniform_runnable(ctl, rng_);
}

int RandomAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  return static_cast<int>(rng_.below(static_cast<std::uint64_t>(sr.options)));
}

ProcId RoundRobinAdversary::pick(SimCtl& ctl) {
  const int n = ctl.nprocs();
  ProcId p = last_;
  for (int offset = 0; offset < n; ++offset) {
    if (++p >= n) p = 0;
    if (ctl.view(p).runnable) {
      last_ = p;
      return p;
    }
  }
  return -1;
}

int RoundRobinAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  // Rotate through the options so every staleness level gets exercised.
  return static_cast<int>(stale_turn_++ %
                          static_cast<std::uint64_t>(sr.options));
}

ProcId LockstepAdversary::pick(SimCtl& ctl) {
  // Drop entries that became unrunnable since the phase was formed.
  std::erase_if(phase_, [&](ProcId p) { return !ctl.view(p).runnable; });
  if (phase_.empty()) {
    // Refill in id order (reusing the vector's capacity), then shuffle:
    // random order within the phase, drawn per phase.
    const int n = ctl.nprocs();
    for (ProcId p = 0; p < n; ++p) {
      if (ctl.view(p).runnable) phase_.push_back(p);
    }
    if (phase_.empty()) return -1;
    for (std::size_t i = phase_.size(); i > 1; --i) {
      std::swap(phase_[i - 1], phase_[rng_.below(i)]);
    }
  }
  const ProcId p = phase_.back();
  phase_.pop_back();
  return p;
}

int LockstepAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  return static_cast<int>(rng_.below(static_cast<std::uint64_t>(sr.options)));
}

ProcId LeaderSuppressAdversary::pick(SimCtl& ctl) {
  // One pass: gather the runnable processes at the lowest round seen so
  // far, restarting whenever a lower round shows up.
  const int n = ctl.nprocs();
  ProcId* ids = candidate_lists(ids_, n, 1);
  int laggards = 0;
  std::int32_t min_round = 0;
  for (ProcId p = 0; p < n; ++p) {
    const SimCtl::ProcView& v = ctl.view(p);
    if (!v.runnable) continue;
    if (laggards == 0 || v.hint.round < min_round) {
      min_round = v.hint.round;
      laggards = 0;
    }
    if (v.hint.round == min_round) ids[laggards++] = p;
  }
  if (laggards == 0) return -1;
  return ids[rng_.below(static_cast<std::uint64_t>(laggards))];
}

int LeaderSuppressAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  // Serve the most divergent value available: keep readers confused about
  // where the leaders really are.
  return sr.options - 1;
}

ProcId CoinBiasAdversary::pick(SimCtl& ctl) {
  // One pass: the adversary's view of the walk (the sum of the counters
  // the processes have published — it has seen every local flip already
  // performed), and the runnable processes bucketed by the sign of their
  // pending walk step (0: down, 1: no step, 2: up).
  const int n = ctl.nprocs();
  ProcId* ids = candidate_lists(ids_, n, 3);
  std::array<int, 3> counts{};
  std::int64_t walk = 0;
  for (ProcId p = 0; p < n; ++p) {
    const SimCtl::ProcView& v = ctl.view(p);
    walk += v.hint.counter;
    if (!v.runnable) continue;
    const int delta = v.hint.walk_delta;
    const int b = (delta > 0) - (delta < 0) + 1;
    ids[b * n + counts[b]++] = p;
  }

  // Prefer a process whose pending counter write pulls the walk toward 0;
  // when the walk sits at 0, stall progress by preferring non-walk steps.
  const int want = walk > 0 ? 0 : walk < 0 ? 2 : 1;
  if (counts[want] == 0) return pick_uniform_runnable(ctl, rng_);
  return ids[want * n + static_cast<int>(rng_.below(
                            static_cast<std::uint64_t>(counts[want])))];
}

int CoinBiasAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  // Distort the observed walk for as long as the semantics allow.
  return sr.options - 1;
}

ProcId ScriptedAdversary::pick(SimCtl& ctl) {
  while (pos_ < script_.size()) {
    const ProcId p = script_[pos_++];
    if (p >= 0 && p < ctl.nprocs() && ctl.view(p).runnable) return p;
  }
  return fallback_.pick(ctl);
}

int ScriptedAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  if (stale_pos_ >= stales_.size()) return 0;  // past the script: atomic
  const int choice = stales_[stale_pos_++];
  if (choice < 0) return 0;
  if (choice >= sr.options) return sr.options - 1;
  return choice;
}

ProcId CrashPlanAdversary::pick(SimCtl& ctl) {
  while (next_ < plan_.size() && ctl.step() >= plan_[next_].at_step) {
    ctl.crash(plan_[next_].victim);
    ++next_;
  }
  return inner_->pick(ctl);
}

namespace {

/// SimCtl interposer used by RecordingAdversary: forwards everything and
/// logs effective crash() calls with the step counter at injection time.
class CrashTap final : public SimCtl {
 public:
  CrashTap(SimCtl& base, std::vector<CrashPlanAdversary::Crash>& log)
      : base_(base), log_(log) {
    // Pass the simulator's contiguous views and runnable digest through
    // the tap so the inner strategy's scans stay allocation-free.
    adopt_fast_state(base);
  }

  int nprocs() const override { return base_.nprocs(); }
  const ProcView& proc(ProcId p) const override { return base_.proc(p); }
  std::uint64_t step() const override { return base_.step(); }
  void crash(ProcId p) override {
    const ProcView& view = base_.proc(p);
    if (!view.crashed && !view.finished) log_.push_back({base_.step(), p});
    base_.crash(p);
  }

 private:
  SimCtl& base_;
  std::vector<CrashPlanAdversary::Crash>& log_;
};

}  // namespace

ProcId RecordingAdversary::pick(SimCtl& ctl) {
  CrashTap tap(ctl, crashes_);
  const ProcId p = inner_->pick(tap);
  if (p >= 0) script_.push_back(p);
  return p;
}

int RecordingAdversary::resolve_read(SimCtl& ctl, const StaleRead& sr) {
  const int choice = inner_->resolve_read(ctl, sr);
  stales_.push_back(choice);
  return choice;
}

ProcId CrashStormAdversary::pick(SimCtl& ctl) {
  const int n = ctl.nprocs();
  const int limit = max_crashes_ < 0 ? n - 1 : std::min(max_crashes_, n - 1);
  // Count every crashed process, not just our own victims: composed with a
  // CrashPlanAdversary, the combined kill count must stay within the
  // paper's n-1 wait-freedom bound.
  int crashed_total = 0;
  for (ProcId p = 0; p < n; ++p) {
    if (ctl.view(p).crashed) ++crashed_total;
  }

  if (crashed_total < limit && rng_.bernoulli(crash_prob_)) {
    // Sensitivity score of a candidate victim, from the information the
    // strong adversary legitimately holds (Hint + pending OpDesc).
    std::int32_t max_round = 0;
    for (ProcId p = 0; p < n; ++p) {
      if (ctl.view(p).runnable) {
        max_round = std::max(max_round, ctl.view(p).hint.round);
      }
    }
    auto score = [&](ProcId p) {
      const SimCtl::ProcView& v = ctl.view(p);
      int s = 0;
      // Observed local coin flip whose counter write is still pending:
      // crashing here makes the flip vanish from the shared walk.
      if (v.pending.kind == OpDesc::Kind::kWrite && v.hint.walk_delta != 0) {
        s += 2;
      }
      // Front-running leader with a live preference: crash pre-decision.
      const bool live_pref = v.hint.pref == 0 || v.hint.pref == 1;
      if (!v.hint.decided && live_pref && v.hint.round >= max_round) s += 2;
      // Mid-scan reader carrying a preference: orphans a partial view.
      if (v.pending.kind == OpDesc::Kind::kRead && live_pref) s += 1;
      return s;
    };
    // Victims are the runnable processes at the highest score (capped
    // below at 1: only crash at genuinely sensitive points). Two passes —
    // find the best score and its multiplicity, draw, scan to the winner.
    int best = 1;
    int victims = 0;
    for (ProcId p = 0; p < n; ++p) {
      if (!ctl.view(p).runnable) continue;
      const int s = score(p);
      if (s < best) continue;
      if (s > best) victims = 0;
      best = s;
      ++victims;
    }
    if (victims > 0) {
      std::uint64_t k = rng_.below(static_cast<std::uint64_t>(victims));
      for (ProcId p = 0; p < n; ++p) {
        if (ctl.view(p).runnable && score(p) == best && k-- == 0) {
          ctl.crash(p);
          break;
        }
      }
    }
  }
  return pick_uniform_runnable(ctl, rng_);
}

int CrashStormAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  return static_cast<int>(rng_.below(static_cast<std::uint64_t>(sr.options)));
}

ProcId SplitBrainAdversary::pick(SimCtl& ctl) {
  // One pass: the runnable processes in id order. Group 0 is ids below
  // `half`, so its members come first and group 1's follow them.
  const int n = ctl.nprocs();
  const int half = std::max(1, n / 2);
  ProcId* ids = candidate_lists(ids_, n, 1);
  std::array<int, 2> counts{};
  for (ProcId p = 0; p < n; ++p) {
    if (!ctl.view(p).runnable) continue;
    ids[counts[0] + counts[1]] = p;
    ++counts[p < half ? 0 : 1];
  }

  if (remaining_ == 0 || counts[group_] == 0) {
    group_ = 1 - group_;
    // Burst length in [mean/2, 2*mean): long enough that a burst spans
    // many protocol rounds of the solo group.
    remaining_ = mean_burst_ / 2 +
                 rng_.below(mean_burst_ + std::max<std::uint64_t>(mean_burst_ / 2, 1));
    if (counts[group_] == 0) {
      // Other group is dead too — fall back to whoever is left.
      if (remaining_ > 0) --remaining_;
      return pick_uniform_runnable(ctl, rng_);
    }
  }
  if (remaining_ > 0) --remaining_;
  const int first = group_ == 0 ? 0 : counts[0];
  return ids[first + static_cast<int>(rng_.below(
                         static_cast<std::uint64_t>(counts[group_])))];
}

int SplitBrainAdversary::resolve_read(SimCtl& ctl, const StaleRead& sr) {
  // A read across the split observes the other half with maximal
  // distortion; within a group, reads stay atomic-fresh.
  const int half = std::max(1, ctl.nprocs() / 2);
  const bool cross = (sr.reader < half) != (sr.writer < half);
  return cross ? sr.options - 1 : 0;
}

std::vector<std::unique_ptr<Adversary>> standard_adversaries(
    std::uint64_t seed) {
  std::vector<std::unique_ptr<Adversary>> out;
  out.push_back(std::make_unique<RandomAdversary>(seed));
  out.push_back(std::make_unique<RoundRobinAdversary>());
  out.push_back(std::make_unique<LockstepAdversary>(seed ^ 0x1));
  out.push_back(std::make_unique<LeaderSuppressAdversary>(seed ^ 0x2));
  out.push_back(std::make_unique<CoinBiasAdversary>(seed ^ 0x3));
  return out;
}

std::vector<std::unique_ptr<Adversary>> hostile_adversaries(
    std::uint64_t seed) {
  std::vector<std::unique_ptr<Adversary>> out;
  out.push_back(std::make_unique<CrashStormAdversary>(seed ^ 0x4));
  out.push_back(std::make_unique<SplitBrainAdversary>(seed ^ 0x5));
  return out;
}

}  // namespace bprc
