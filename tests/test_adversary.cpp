// Behavioral tests for the adversary scheduling strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/rng.hpp"

namespace bprc {
namespace {

/// Runs n spinning processes under `adv` for `steps` steps and returns the
/// schedule (who ran at each step).
std::vector<ProcId> schedule_of(int n, std::unique_ptr<Adversary> adv,
                                std::uint64_t steps,
                                std::function<void(SimRuntime&, ProcId)>
                                    hinter = nullptr) {
  SimRuntime rt(n, std::move(adv), 1);
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < n; ++p) {
    rt.spawn(p, [&rt, &trace, p, &hinter] {
      // Record BEFORE parking at the checkpoint so trace[k] is exactly the
      // k-th scheduling decision the adversary made.
      for (;;) {
        if (hinter) hinter(rt, p);
        trace.push_back(p);
        rt.checkpoint({});
      }
    });
  }
  rt.run(steps);
  return trace;
}

TEST(RoundRobin, StrictRotation) {
  const auto trace = schedule_of(4, std::make_unique<RoundRobinAdversary>(),
                                 12);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], static_cast<ProcId>(i % 4));
  }
}

TEST(Random, CoversAllProcesses) {
  const auto trace =
      schedule_of(5, std::make_unique<RandomAdversary>(3), 500);
  std::set<ProcId> seen(trace.begin(), trace.end());
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Random, SeededReproducibly) {
  const auto a = schedule_of(5, std::make_unique<RandomAdversary>(3), 200);
  const auto b = schedule_of(5, std::make_unique<RandomAdversary>(3), 200);
  const auto c = schedule_of(5, std::make_unique<RandomAdversary>(4), 200);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Lockstep, EveryProcessOncePerPhase) {
  const int n = 6;
  const auto trace =
      schedule_of(n, std::make_unique<LockstepAdversary>(9), 60);
  ASSERT_EQ(trace.size(), 60u);
  for (std::size_t phase = 0; phase < trace.size() / n; ++phase) {
    std::set<ProcId> in_phase(trace.begin() + static_cast<long>(phase * n),
                              trace.begin() + static_cast<long>((phase + 1) * n));
    EXPECT_EQ(in_phase.size(), static_cast<std::size_t>(n))
        << "phase " << phase << " scheduled someone twice";
  }
}

TEST(LeaderSuppress, SchedulesMinimalRoundProcess) {
  // Process p publishes round = p; the adversary must keep picking the
  // process with the smallest published round (p = 0).
  auto hinter = [](SimRuntime& rt, ProcId p) {
    Hint h;
    h.round = p;
    rt.publish_hint(h);
  };
  const auto trace = schedule_of(
      4, std::make_unique<LeaderSuppressAdversary>(5), 300, hinter);
  // A process's published round appears once it has been scheduled once;
  // from the point where everyone has run (and so published), only the
  // minimal-round process (p0) may be scheduled.
  std::set<ProcId> seen;
  std::size_t all_seen_at = trace.size();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    seen.insert(trace[i]);
    if (seen.size() == 4) {
      all_seen_at = i;
      break;
    }
  }
  ASSERT_LT(all_seen_at, trace.size()) << "not every process got scheduled";
  for (std::size_t i = all_seen_at + 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], 0) << "non-minimal process scheduled at " << i;
  }
}

TEST(CoinBias, PrefersStepsTowardZero) {
  // Two processes: p0 always about to +1, p1 always about to -1. With the
  // published counters summing positive, the adversary must prefer p1.
  SimRuntime* rtp = nullptr;
  auto adv = std::make_unique<CoinBiasAdversary>(7);
  SimRuntime rt(2, std::move(adv), 1);
  rtp = &rt;
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [rtp, &trace, p] {
      for (;;) {
        Hint h;
        h.counter = 10;                     // walk looks positive
        h.walk_delta = (p == 0) ? 1 : -1;   // p1 moves toward zero
        rtp->publish_hint(h);
        rtp->checkpoint({});
        trace.push_back(p);
      }
    });
  }
  rt.run(80);
  // Early picks happen before the hints are published; once they are, the
  // adversary must exclusively favor p1 (the toward-zero step). Check the
  // tail of the schedule.
  ASSERT_GE(trace.size(), 40u);
  for (std::size_t i = trace.size() - 30; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], 1);
  }
}

TEST(Scripted, ReplaysExactly) {
  const std::vector<ProcId> script{2, 0, 1, 1, 2, 0};
  auto trace = schedule_of(
      3, std::make_unique<ScriptedAdversary>(script), script.size());
  EXPECT_EQ(trace, script);
}

TEST(Scripted, FallsBackToRoundRobinAfterScript) {
  const std::vector<ProcId> script{1, 1};
  const auto trace = schedule_of(
      2, std::make_unique<ScriptedAdversary>(script), 6);
  EXPECT_EQ(trace[0], 1);
  EXPECT_EQ(trace[1], 1);
  // Fallback covers both processes.
  std::set<ProcId> tail(trace.begin() + 2, trace.end());
  EXPECT_EQ(tail.size(), 2u);
}

TEST(Scripted, SkipsUnrunnableEntries) {
  // Script names a crashed process; it must be skipped, not deadlock.
  auto inner = std::make_unique<ScriptedAdversary>(
      std::vector<ProcId>{0, 0, 0, 0, 0, 0});
  auto plan = std::make_unique<CrashPlanAdversary>(
      std::move(inner), std::vector<CrashPlanAdversary::Crash>{{2, 0}});
  const auto trace = schedule_of(2, std::move(plan), 10);
  // After the crash, only process 1 can run.
  for (std::size_t i = 2; i < trace.size(); ++i) EXPECT_EQ(trace[i], 1);
}

TEST(CrashPlan, CrashesAtScheduledStep) {
  auto plan = std::make_unique<CrashPlanAdversary>(
      std::make_unique<RoundRobinAdversary>(),
      std::vector<CrashPlanAdversary::Crash>{{6, 1}});
  SimRuntime rt(3, std::move(plan), 1);
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < 3; ++p) {
    rt.spawn(p, [&rt, &trace, p] {
      for (;;) {
        rt.checkpoint({});
        trace.push_back(p);
      }
    });
  }
  rt.run(30);
  EXPECT_TRUE(rt.crashed(1));
  // Process 1 never appears after the crash point.
  const auto last1 = std::find(trace.rbegin(), trace.rend(), 1);
  const auto idx = trace.size() - 1 -
                   static_cast<std::size_t>(last1 - trace.rbegin());
  EXPECT_LT(idx, 8u);
}

TEST(Recording, ReplayReproducesTheSchedule) {
  // Record a random schedule, then replay it through ScriptedAdversary:
  // the two runs must produce identical traces — the debugging loop for
  // randomized-test failures.
  auto recorder = std::make_unique<RecordingAdversary>(
      std::make_unique<RandomAdversary>(99));
  RecordingAdversary* handle = recorder.get();
  SimRuntime rt1(3, std::move(recorder), 99);
  std::vector<ProcId> trace1;
  for (ProcId p = 0; p < 3; ++p) {
    rt1.spawn(p, [&rt1, &trace1, p] {
      for (int k = 0; k < 20; ++k) {
        trace1.push_back(p);
        rt1.checkpoint({});
      }
    });
  }
  rt1.run(1000);
  const std::vector<ProcId> script = handle->script();
  ASSERT_FALSE(script.empty());

  SimRuntime rt2(3, std::make_unique<ScriptedAdversary>(script), 1234);
  std::vector<ProcId> trace2;
  for (ProcId p = 0; p < 3; ++p) {
    rt2.spawn(p, [&rt2, &trace2, p] {
      for (int k = 0; k < 20; ++k) {
        trace2.push_back(p);
        rt2.checkpoint({});
      }
    });
  }
  rt2.run(1000);
  EXPECT_EQ(trace1, trace2);
}

/// A SimCtl over hand-set views. Edit them through views(), then call
/// changed(), which re-derives the runnable mask (up to
/// kRunnableMaskBits processes, as SimRuntime keeps it) and advances the
/// view epoch. crash() fails the test unless `allow_crash` is set.
class FakeCtl final : public SimCtl {
 public:
  explicit FakeCtl(int n) { views_.resize(static_cast<std::size_t>(n)); }
  /// SimRuntime's crash(): finished and crashed victims are ignored.
  void crash(ProcId p) override {
    if (!allow_crash) {
      ADD_FAILURE() << "unexpected crash of process " << p;
      return;
    }
    ProcView& v = views_[static_cast<std::size_t>(p)];
    if (v.finished || v.crashed) return;
    v.crashed = true;
    v.runnable = false;
    last_crash = p;
    changed();
  }

  std::vector<ProcView>& views() { return views_; }

  /// Re-derives the runnable mask and advances the epoch.
  void changed() {
    runnable_mask_ = 0;
    for (std::size_t p = 0; p < views_.size() && p < 64; ++p) {
      if (views_[p].runnable) runnable_mask_ |= std::uint64_t{1} << p;
    }
    ++view_epoch_;
  }

  bool allow_crash = false;
  ProcId last_crash = -1;
};

/// Fills the views with random runnable/crashed flags, rounds, walk and
/// preference hints and pending ops. The runnable density varies per
/// call, so some calls leave no process, or one whole half of the
/// processes, runnable.
void randomize(FakeCtl& ctl, Rng& rng) {
  const int n = ctl.nprocs();
  const std::uint64_t density = rng.below(5);  // runnable w.p. density/4
  const std::uint64_t dead_half = rng.below(4);  // 0/1: that half dead
  for (ProcId p = 0; p < n; ++p) {
    SimCtl::ProcView& v = ctl.views()[static_cast<std::size_t>(p)];
    const int half = p < std::max(1, n / 2) ? 0 : 1;
    v.runnable = rng.below(4) < density &&
                 !(dead_half < 2 && static_cast<int>(dead_half) == half);
    v.crashed = !v.runnable && rng.below(4) == 0;
    v.finished = !v.runnable && !v.crashed;
    v.hint.round = static_cast<std::int32_t>(rng.below(3));
    v.hint.walk_delta = static_cast<std::int8_t>(rng.below(3)) - 1;
    v.hint.counter = static_cast<std::int64_t>(rng.below(5)) - 2;
    v.hint.pref = static_cast<std::int8_t>(rng.below(4)) - 1;
    v.hint.decided = rng.below(4) == 0;
    v.pending.kind = static_cast<OpDesc::Kind>(rng.below(3));
  }
  ctl.changed();
}

/// Reference picks: collect the candidates in id order, index with one
/// draw. These are the adversaries' definitions; the real pick()s must
/// make the same draws and return the same processes.
ProcId ref_index(const std::vector<ProcId>& ids, Rng& rng) {
  if (ids.empty()) return -1;
  return ids[rng.below(ids.size())];
}

std::vector<ProcId> runnable_ids(const FakeCtl& ctl) {
  std::vector<ProcId> ids;
  for (ProcId p = 0; p < ctl.nprocs(); ++p) {
    if (ctl.view(p).runnable) ids.push_back(p);
  }
  return ids;
}

ProcId ref_leader_suppress(const FakeCtl& ctl, Rng& rng) {
  const std::vector<ProcId> runnable = runnable_ids(ctl);
  if (runnable.empty()) return -1;
  std::int32_t min_round = ctl.view(runnable[0]).hint.round;
  for (const ProcId p : runnable) {
    min_round = std::min(min_round, ctl.view(p).hint.round);
  }
  std::vector<ProcId> laggards;
  for (const ProcId p : runnable) {
    if (ctl.view(p).hint.round == min_round) laggards.push_back(p);
  }
  return ref_index(laggards, rng);
}

ProcId ref_coin_bias(const FakeCtl& ctl, Rng& rng) {
  const std::vector<ProcId> runnable = runnable_ids(ctl);
  if (runnable.empty()) return -1;
  std::int64_t walk = 0;
  for (ProcId p = 0; p < ctl.nprocs(); ++p) walk += ctl.view(p).hint.counter;
  std::vector<ProcId> preferred;
  for (const ProcId p : runnable) {
    const std::int64_t delta = ctl.view(p).hint.walk_delta;
    if (walk != 0 ? delta * walk < 0 : delta == 0) preferred.push_back(p);
  }
  if (preferred.empty()) return ref_index(runnable, rng);
  return ref_index(preferred, rng);
}

struct RefSplitBrain {
  std::uint64_t mean_burst;
  int group = 0;
  std::uint64_t remaining = 0;

  ProcId pick(const FakeCtl& ctl, Rng& rng) {
    const int half = std::max(1, ctl.nprocs() / 2);
    auto members = [&](int g) {
      std::vector<ProcId> ids;
      for (const ProcId p : runnable_ids(ctl)) {
        if ((p < half ? 0 : 1) == g) ids.push_back(p);
      }
      return ids;
    };
    std::vector<ProcId> ids = members(group);
    if (remaining == 0 || ids.empty()) {
      group = 1 - group;
      remaining = mean_burst / 2 +
                  rng.below(mean_burst + std::max<std::uint64_t>(mean_burst / 2, 1));
      ids = members(group);
      if (ids.empty()) {
        if (remaining > 0) --remaining;
        return ref_index(runnable_ids(ctl), rng);
      }
    }
    if (remaining > 0) --remaining;
    return ref_index(ids, rng);
  }
};

/// Crash-storm's definition: with crash budget left (n-1 in total) and a
/// successful Bernoulli draw, crash one runnable process drawn uniformly
/// among those at the highest sensitivity score, if that score is at
/// least 1; then pick uniformly among the processes still runnable.
struct RefCrashStorm {
  ProcId victim = -1;
  ProcId pick = -1;
};

RefCrashStorm ref_crash_storm(const FakeCtl& ctl, Rng& rng, double prob) {
  const int n = ctl.nprocs();
  int crashed = 0;
  for (ProcId p = 0; p < n; ++p) crashed += ctl.view(p).crashed ? 1 : 0;
  std::vector<ProcId> runnable = runnable_ids(ctl);
  RefCrashStorm out;
  if (crashed < n - 1 && rng.bernoulli(prob)) {
    std::int32_t max_round = 0;
    for (const ProcId p : runnable) {
      max_round = std::max(max_round, ctl.view(p).hint.round);
    }
    std::map<int, std::vector<ProcId>> by_score;  // scores >= 1 only
    for (const ProcId p : runnable) {
      const SimCtl::ProcView& v = ctl.view(p);
      const bool live_pref = v.hint.pref == 0 || v.hint.pref == 1;
      int score = 0;
      if (v.pending.kind == OpDesc::Kind::kWrite && v.hint.walk_delta != 0) {
        score += 2;
      }
      if (!v.hint.decided && live_pref && v.hint.round >= max_round) score += 2;
      if (v.pending.kind == OpDesc::Kind::kRead && live_pref) score += 1;
      if (score >= 1) by_score[score].push_back(p);
    }
    if (!by_score.empty()) {
      out.victim = ref_index(by_score.rbegin()->second, rng);
      std::erase(runnable, out.victim);
    }
  }
  out.pick = ref_index(runnable, rng);
  return out;
}

TEST(AdaptivePicks, MatchCollectAndIndexReferenceAtEverySize) {
  // The strategies keep their candidates while the view epoch stands
  // still: randomize() moves it in two calls of three, and so does every
  // crash crash-storm injects. Above 64 processes there is no runnable
  // mask; the strategies never read it. Only crash-storm may crash.
  constexpr std::uint64_t kSeed = 41;
  constexpr std::uint64_t kBurst = 6;
  constexpr double kCrashProb = 0.3;
  for (const int n : {1, 2, 5, 64, 65, 70, 130}) {
    FakeCtl ctl(n);
    Rng views_rng(static_cast<std::uint64_t>(n));
    LeaderSuppressAdversary leader(kSeed);
    CoinBiasAdversary coin(kSeed);
    SplitBrainAdversary split(kSeed, kBurst);
    RandomAdversary random(kSeed);
    CrashStormAdversary storm(kSeed, /*max_crashes=*/-1, kCrashProb);
    Rng leader_rng(kSeed), coin_rng(kSeed), split_rng(kSeed),
        random_rng(kSeed), storm_rng(kSeed);
    RefSplitBrain split_ref{kBurst};
    int crashes = 0;
    for (int i = 0; i < 3000; ++i) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " pick " << i);
      if (i == 0 || views_rng.below(3) != 0) randomize(ctl, views_rng);
      ASSERT_EQ(leader.pick(ctl), ref_leader_suppress(ctl, leader_rng))
          << "leader-suppress";
      ASSERT_EQ(coin.pick(ctl), ref_coin_bias(ctl, coin_rng))
          << "coin-bias";
      ASSERT_EQ(split.pick(ctl), split_ref.pick(ctl, split_rng))
          << "split-brain";
      ASSERT_EQ(random.pick(ctl), ref_index(runnable_ids(ctl), random_rng))
          << "random";
      const RefCrashStorm want =
          ref_crash_storm(ctl, storm_rng, kCrashProb);
      ctl.last_crash = -1;
      ctl.allow_crash = true;
      ASSERT_EQ(storm.pick(ctl), want.pick) << "crash-storm";
      ctl.allow_crash = false;
      ASSERT_EQ(ctl.last_crash, want.victim) << "crash-storm victim";
      crashes += want.victim >= 0 ? 1 : 0;
    }
    if (n > 1) {
      EXPECT_GT(crashes, 0) << "n=" << n;
    }
  }
}

TEST(AdaptivePicks, CandidatesAreKeptUntilTheViewEpochMoves) {
  // A view change the epoch does not announce is invisible to a strategy
  // that already derived its candidates — which is why every mutation of
  // a field it reads must advance the epoch.
  FakeCtl ctl(4);
  for (SimCtl::ProcView& v : ctl.views()) v.runnable = true;
  ctl.changed();
  LeaderSuppressAdversary leader(7);
  leader.pick(ctl);  // all four processes are laggards at round 0
  ctl.views()[0].hint.round = 1;
  std::set<ProcId> unannounced, announced;
  for (int i = 0; i < 200; ++i) unannounced.insert(leader.pick(ctl));
  ctl.changed();
  for (int i = 0; i < 200; ++i) announced.insert(leader.pick(ctl));
  EXPECT_TRUE(unannounced.contains(0));
  EXPECT_FALSE(announced.contains(0));
}

/// Fails the test, instead of letting the simulator abort, when the inner
/// strategy picks a process that is not runnable; ends the run then.
class RunnableCheck final : public Adversary {
 public:
  explicit RunnableCheck(std::unique_ptr<Adversary> inner)
      : inner_(std::move(inner)) {}
  ProcId pick(SimCtl& ctl) override {
    const ProcId p = inner_->pick(ctl);
    if (p >= 0 && !ctl.view(p).runnable) {
      ADD_FAILURE() << inner_->name() << " picked unrunnable process " << p
                    << " at step " << ctl.step();
      return -1;
    }
    return p;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Adversary> inner_;
};

TEST(AdaptivePicks, CrashPlanCrashInsideACachedPickIsSeen) {
  // The spinning processes publish no hints, so between two picks the view
  // epoch stands still and the inner strategy reuses the candidates of its
  // previous pick. A planned crash lands inside the next pick() call, just
  // before the inner draw: it must move the epoch, or the crashed process
  // is still a candidate.
  using Factory = std::function<std::unique_ptr<Adversary>(std::uint64_t)>;
  const std::vector<Factory> strategies = {
      [](std::uint64_t s) { return std::make_unique<RandomAdversary>(s); },
      [](std::uint64_t s) {
        return std::make_unique<LeaderSuppressAdversary>(s);
      },
      [](std::uint64_t s) { return std::make_unique<CoinBiasAdversary>(s); },
      [](std::uint64_t s) {
        return std::make_unique<SplitBrainAdversary>(s, 4);
      },
      [](std::uint64_t s) { return std::make_unique<CrashStormAdversary>(s); },
  };
  const std::vector<CrashPlanAdversary::Crash> plan = {{3, 1}, {7, 3}};
  for (const Factory& make : strategies) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      auto adv = std::make_unique<RunnableCheck>(
          std::make_unique<CrashPlanAdversary>(make(seed), plan));
      const std::string name = adv->name();
      constexpr std::size_t kSteps = 60;
      // trace[k] is the pick at step k. Past kSteps the run's unwind
      // starts bodies never scheduled, so a crashed one appends too.
      const std::vector<ProcId> trace = schedule_of(4, std::move(adv), kSteps);
      ASSERT_GE(trace.size(), kSteps) << name << " seed " << seed;
      for (const CrashPlanAdversary::Crash& c : plan) {
        for (std::size_t k = c.at_step; k < kSteps; ++k) {
          ASSERT_NE(trace[k], c.victim)
              << name << " seed " << seed << " step " << k;
        }
      }
    }
  }
}

TEST(StandardAdversaries, ProvidesTheFullSuite) {
  const auto advs = standard_adversaries(1);
  ASSERT_EQ(advs.size(), 5u);
  std::set<std::string> names;
  for (const auto& a : advs) names.insert(a->name());
  EXPECT_TRUE(names.contains("random"));
  EXPECT_TRUE(names.contains("round-robin"));
  EXPECT_TRUE(names.contains("lockstep"));
  EXPECT_TRUE(names.contains("leader-suppress"));
  EXPECT_TRUE(names.contains("coin-bias"));
}

}  // namespace
}  // namespace bprc
