#include "runtime/adversary.hpp"

#include <algorithm>
#include <vector>

namespace bprc {

namespace {

// The pick() implementations below run once per simulated step — the
// hottest loop in the repository. A strategy's candidates (the runnable
// set, the laggards, the preferred walk steps) depend only on view fields
// the simulator's view epoch covers, which change far less often than
// steps are taken; each strategy keeps them in a CandidateCache and
// re-derives them only when the epoch moved (per pick when the controller
// publishes none). A pick is then one draw indexing a list gathered in
// id order: the same draws and the same processes as the historical
// "collect ids into a vector, index it" code, so recorded schedules are
// bit-identical. After the first derivation nothing allocates.

/// Gathers the runnable processes into `ids` in id order; returns how many.
int collect_runnable(const SimCtl& ctl, int n, ProcId* ids) {
  int count = 0;
  for (ProcId p = 0; p < n; ++p) {
    if (ctl.view(p).runnable) ids[count++] = p;
  }
  return count;
}

/// Uniform pick over `count` candidates with one draw; -1 (no draw) when
/// there are none.
ProcId draw(const ProcId* ids, int count, Rng& rng) {
  if (count == 0) return -1;
  return ids[rng.below(static_cast<std::uint64_t>(count))];
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
  if (ProcId* ids = cache_.stale(ctl, 1)) {
    runnable_ = collect_runnable(ctl, cache_.nprocs(), ids);
  }
  return draw(cache_.list(0), runnable_, rng_);
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
  if (ProcId* ids = cache_.stale(ctl, 1)) {
    // One pass: gather the runnable processes at the lowest round seen so
    // far, restarting whenever a lower round shows up.
    const int n = cache_.nprocs();
    laggards_ = 0;
    std::int32_t min_round = 0;
    for (ProcId p = 0; p < n; ++p) {
      const SimCtl::ProcView& v = ctl.view(p);
      if (!v.runnable) continue;
      if (laggards_ == 0 || v.hint.round < min_round) {
        min_round = v.hint.round;
        laggards_ = 0;
      }
      if (v.hint.round == min_round) ids[laggards_++] = p;
    }
  }
  return draw(cache_.list(0), laggards_, rng_);
}

int LeaderSuppressAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  // Serve the most divergent value available: keep readers confused about
  // where the leaders really are.
  return sr.options - 1;
}

ProcId CoinBiasAdversary::pick(SimCtl& ctl) {
  if (ProcId* ids = cache_.stale(ctl, 2)) {
    // The adversary's view of the walk: the sum of the counters the
    // processes have published (it has seen every local flip already
    // performed).
    const int n = cache_.nprocs();
    std::int64_t walk = 0;
    for (ProcId p = 0; p < n; ++p) walk += ctl.view(p).hint.counter;
    // Prefer a process whose pending counter write pulls the walk toward
    // 0; when the walk sits at 0, stall progress by preferring non-walk
    // steps.
    const int want = walk > 0 ? -1 : walk < 0 ? 1 : 0;
    runnable_ = 0;
    preferred_ = 0;
    for (ProcId p = 0; p < n; ++p) {
      const SimCtl::ProcView& v = ctl.view(p);
      if (!v.runnable) continue;
      ids[runnable_++] = p;
      const int delta = v.hint.walk_delta;
      if ((delta > 0) - (delta < 0) == want) ids[n + preferred_++] = p;
    }
  }
  if (preferred_ == 0) return draw(cache_.list(0), runnable_, rng_);
  return draw(cache_.list(1), preferred_, rng_);
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

ProcId CrashStormAdversary::pick(SimCtl& ctl) {
  // Count every crashed process, not just our own victims: composed with a
  // CrashPlanAdversary, the combined kill count must stay within the
  // paper's n-1 wait-freedom bound.
  const auto derive = [&] {
    if (ProcId* ids = cache_.stale(ctl, 1)) {
      const int n = cache_.nprocs();
      runnable_ = 0;
      crashed_ = 0;
      for (ProcId p = 0; p < n; ++p) {
        const SimCtl::ProcView& v = ctl.view(p);
        if (v.crashed) ++crashed_;
        if (v.runnable) ids[runnable_++] = p;
      }
    }
  };
  derive();
  const int n = cache_.nprocs();
  const int limit = max_crashes_ < 0 ? n - 1 : std::min(max_crashes_, n - 1);

  if (crashed_ < limit && rng_.bernoulli(crash_prob_)) {
    const ProcId* runnable = cache_.list(0);
    // Sensitivity score of a candidate victim, from the information the
    // strong adversary legitimately holds (Hint + pending OpDesc). The
    // pending op moves at every step, so scores are computed per use.
    std::int32_t max_round = 0;
    for (int i = 0; i < runnable_; ++i) {
      max_round = std::max(max_round, ctl.view(runnable[i]).hint.round);
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
    for (int i = 0; i < runnable_; ++i) {
      const int s = score(runnable[i]);
      if (s < best) continue;
      if (s > best) victims = 0;
      best = s;
      ++victims;
    }
    if (victims > 0) {
      std::uint64_t k = rng_.below(static_cast<std::uint64_t>(victims));
      ProcId victim = -1;
      for (int i = 0; victim < 0; ++i) {
        if (score(runnable[i]) == best && k-- == 0) victim = runnable[i];
      }
      ctl.crash(victim);
      derive();  // the crash moved the epoch
    }
  }
  return draw(cache_.list(0), runnable_, rng_);
}

int CrashStormAdversary::resolve_read(SimCtl&, const StaleRead& sr) {
  return static_cast<int>(rng_.below(static_cast<std::uint64_t>(sr.options)));
}

ProcId SplitBrainAdversary::pick(SimCtl& ctl) {
  if (ProcId* ids = cache_.stale(ctl, 1)) {
    // The runnable processes in id order. Group 0 is ids below `half`, so
    // its members come first and group 1's follow them.
    const int n = cache_.nprocs();
    const int runnable = collect_runnable(ctl, n, ids);
    counts_[0] = static_cast<int>(
        std::lower_bound(ids, ids + runnable, std::max(1, n / 2)) - ids);
    counts_[1] = runnable - counts_[0];
  }

  const ProcId* ids = cache_.list(0);
  if (remaining_ == 0 || counts_[group_] == 0) {
    group_ = 1 - group_;
    // Burst length in [mean/2, 2*mean): long enough that a burst spans
    // many protocol rounds of the solo group.
    remaining_ = mean_burst_ / 2 +
                 rng_.below(mean_burst_ + std::max<std::uint64_t>(mean_burst_ / 2, 1));
    if (counts_[group_] == 0) {
      // Other group is dead too — fall back to whoever is left.
      if (remaining_ > 0) --remaining_;
      return draw(ids, counts_[0] + counts_[1], rng_);
    }
  }
  if (remaining_ > 0) --remaining_;
  const int first = group_ == 0 ? 0 : counts_[0];
  return draw(ids + first, counts_[group_], rng_);
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
