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

/// A SimCtl over hand-set views, with no fast view array or runnable mask,
/// so the adversaries take the same path they take above 64 processes.
class FakeCtl final : public SimCtl {
 public:
  explicit FakeCtl(int n) : views(static_cast<std::size_t>(n)) {}
  int nprocs() const override { return static_cast<int>(views.size()); }
  const ProcView& proc(ProcId p) const override {
    return views[static_cast<std::size_t>(p)];
  }
  std::uint64_t step() const override { return 0; }
  void crash(ProcId) override { ADD_FAILURE() << "unexpected crash"; }

  std::vector<ProcView> views;
};

/// Fills the views with random runnable flags, rounds and walk hints. The
/// runnable density varies per call, so some calls leave no process, or
/// one whole half of the processes, runnable.
void randomize(FakeCtl& ctl, Rng& rng) {
  const int n = ctl.nprocs();
  const std::uint64_t density = rng.below(5);  // runnable w.p. density/4
  const std::uint64_t dead_half = rng.below(4);  // 0/1: that half dead
  for (ProcId p = 0; p < n; ++p) {
    SimCtl::ProcView& v = ctl.views[static_cast<std::size_t>(p)];
    const int half = p < std::max(1, n / 2) ? 0 : 1;
    v.runnable = rng.below(4) < density &&
                 !(dead_half < 2 && static_cast<int>(dead_half) == half);
    v.hint.round = static_cast<std::int32_t>(rng.below(3));
    v.hint.walk_delta = static_cast<std::int8_t>(rng.below(3)) - 1;
    v.hint.counter = static_cast<std::int64_t>(rng.below(5)) - 2;
  }
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

TEST(AdaptivePicks, MatchCollectAndIndexReferenceAtEverySize) {
  constexpr std::uint64_t kSeed = 41;
  constexpr std::uint64_t kBurst = 6;
  for (const int n : {1, 2, 5, 64, 65, 70, 130}) {
    FakeCtl ctl(n);
    Rng views_rng(static_cast<std::uint64_t>(n));
    LeaderSuppressAdversary leader(kSeed);
    CoinBiasAdversary coin(kSeed);
    SplitBrainAdversary split(kSeed, kBurst);
    Rng leader_rng(kSeed), coin_rng(kSeed), split_rng(kSeed);
    RefSplitBrain split_ref{kBurst};
    for (int i = 0; i < 3000; ++i) {
      randomize(ctl, views_rng);
      ASSERT_EQ(leader.pick(ctl), ref_leader_suppress(ctl, leader_rng))
          << "leader-suppress n=" << n << " pick " << i;
      ASSERT_EQ(coin.pick(ctl), ref_coin_bias(ctl, coin_rng))
          << "coin-bias n=" << n << " pick " << i;
      ASSERT_EQ(split.pick(ctl), split_ref.pick(ctl, split_rng))
          << "split-brain n=" << n << " pick " << i;
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
