// Tests for the deterministic simulator: scheduling, determinism, crash
// injection, budget handling, unwinding, hints, step accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "explore/consensus_explore.hpp"
#include "explore/token_game_explore.hpp"
#include "registers/register.hpp"
#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"

namespace bprc {
namespace {

/// Process body: perform `steps` checkpoints, appending its pid to a trace.
std::function<void()> tracer(SimRuntime& rt, ProcId pid,
                             std::vector<ProcId>& trace, int steps) {
  return [&rt, pid, &trace, steps] {
    for (int k = 0; k < steps; ++k) {
      rt.checkpoint({});
      trace.push_back(pid);
    }
  };
}

TEST(SimRuntime, RoundRobinOrderIsExact) {
  SimRuntime rt(3, std::make_unique<RoundRobinAdversary>(), 1);
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < 3; ++p) rt.spawn(p, tracer(rt, p, trace, 2));
  const RunResult res = rt.run(1000);
  EXPECT_EQ(res.reason, RunResult::Reason::kAllDone);
  EXPECT_EQ(trace, (std::vector<ProcId>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(res.steps, 6u);
}

TEST(SimRuntime, SameSeedSameTrace) {
  auto run_once = [](std::uint64_t seed) {
    SimRuntime rt(4, std::make_unique<RandomAdversary>(seed), seed);
    std::vector<ProcId> trace;
    for (ProcId p = 0; p < 4; ++p) rt.spawn(p, tracer(rt, p, trace, 25));
    rt.run(100000);
    return trace;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimRuntime, ResetProducesBitIdenticalTrace) {
  // A runtime re-armed with reset() must be observably identical to a
  // freshly constructed one: same adversary pick sequence, same step
  // counts — the cross-trial reuse fast path must not leak state.
  auto fresh = [](int n, std::uint64_t seed) {
    SimRuntime rt(n, std::make_unique<RandomAdversary>(seed), seed);
    std::vector<ProcId> trace;
    for (ProcId p = 0; p < n; ++p) rt.spawn(p, tracer(rt, p, trace, 25));
    rt.run(100000);
    return trace;
  };
  auto reused = [](SimRuntime& rt, int n, std::uint64_t seed) {
    rt.reset(n, std::make_unique<RandomAdversary>(seed), seed);
    std::vector<ProcId> trace;
    for (ProcId p = 0; p < n; ++p) rt.spawn(p, tracer(rt, p, trace, 25));
    rt.run(100000);
    return trace;
  };

  SimRuntime rt(4, std::make_unique<RandomAdversary>(7), 7);
  {
    std::vector<ProcId> trace;
    for (ProcId p = 0; p < 4; ++p) rt.spawn(p, tracer(rt, p, trace, 25));
    rt.run(100000);
    EXPECT_EQ(trace, fresh(4, 7));
  }
  // Same shape, different seed; shrink; grow — all against fresh twins.
  EXPECT_EQ(reused(rt, 4, 8), fresh(4, 8));
  EXPECT_EQ(reused(rt, 2, 5), fresh(2, 5));
  EXPECT_EQ(reused(rt, 6, 9), fresh(6, 9));
  // And back to the very first configuration.
  EXPECT_EQ(reused(rt, 4, 7), fresh(4, 7));
}

TEST(SimRuntime, ResetRederivesProcessCoins) {
  // Per-process rngs must be re-split from the master seed on reset, not
  // continued from where the previous run left them.
  auto draws = [](SimRuntime& rt, int n) {
    std::vector<std::uint64_t> out(static_cast<std::size_t>(n));
    for (ProcId p = 0; p < n; ++p) {
      rt.spawn(p, [&rt, &out, p] {
        rt.checkpoint({});
        out[static_cast<std::size_t>(p)] = rt.rng()();
      });
    }
    rt.run(1000);
    return out;
  };
  SimRuntime rt(3, std::make_unique<RoundRobinAdversary>(), 99);
  const std::vector<std::uint64_t> first = draws(rt, 3);
  rt.reset(3, std::make_unique<RoundRobinAdversary>(), 99);
  EXPECT_EQ(draws(rt, 3), first);
}

TEST(SimRuntime, PerProcessStepCounts) {
  SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
  std::vector<ProcId> trace;
  rt.spawn(0, tracer(rt, 0, trace, 5));
  rt.spawn(1, tracer(rt, 1, trace, 3));
  rt.run(1000);
  EXPECT_EQ(rt.steps(0), 5u);
  EXPECT_EQ(rt.steps(1), 3u);
  EXPECT_EQ(rt.total_steps(), 8u);
}

TEST(SimRuntime, BudgetStopsRunAndUnwinds) {
  SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
  int destroyed = 0;
  struct Guard {
    int* c;
    ~Guard() { ++*c; }
  };
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [&rt, &destroyed] {
      Guard g{&destroyed};
      for (;;) rt.checkpoint({});  // never finishes voluntarily
    });
  }
  const RunResult res = rt.run(50);
  EXPECT_EQ(res.reason, RunResult::Reason::kBudget);
  EXPECT_GE(res.steps, 50u);
  // RAII cleanup ran in both unwound fibers.
  EXPECT_EQ(destroyed, 2);
  EXPECT_TRUE(rt.finished(0));
  EXPECT_TRUE(rt.finished(1));
}

TEST(SimRuntime, CrashedProcessStopsExecuting) {
  auto plan = std::make_unique<CrashPlanAdversary>(
      std::make_unique<RoundRobinAdversary>(),
      std::vector<CrashPlanAdversary::Crash>{{10, 0}});
  SimRuntime rt(2, std::move(plan), 1);
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < 2; ++p) rt.spawn(p, tracer(rt, p, trace, 100));
  const RunResult res = rt.run(100000);
  EXPECT_TRUE(rt.crashed(0));
  EXPECT_FALSE(rt.crashed(1));
  // Process 1 finished all 100 steps; process 0 stopped near step 10.
  EXPECT_EQ(rt.steps(1), 100u);
  EXPECT_LE(rt.steps(0), 12u);
  EXPECT_EQ(res.reason, RunResult::Reason::kAllDone);
}

TEST(SimRuntime, AllCrashedReportsNoRunnable) {
  auto plan = std::make_unique<CrashPlanAdversary>(
      std::make_unique<RoundRobinAdversary>(),
      std::vector<CrashPlanAdversary::Crash>{{5, 0}, {5, 1}});
  SimRuntime rt(2, std::move(plan), 1);
  std::vector<ProcId> trace;
  for (ProcId p = 0; p < 2; ++p) rt.spawn(p, tracer(rt, p, trace, 1000));
  const RunResult res = rt.run(100000);
  EXPECT_EQ(res.reason, RunResult::Reason::kNoRunnable);
}

TEST(SimRuntime, SelfReturnsCallingProcess) {
  SimRuntime rt(3, std::make_unique<RoundRobinAdversary>(), 1);
  std::vector<ProcId> selves(3, -1);
  for (ProcId p = 0; p < 3; ++p) {
    rt.spawn(p, [&rt, &selves, p] {
      rt.checkpoint({});
      selves[static_cast<std::size_t>(p)] = rt.self();
    });
  }
  rt.run(1000);
  EXPECT_EQ(selves, (std::vector<ProcId>{0, 1, 2}));
}

TEST(SimRuntime, NowIsStrictlyIncreasing) {
  SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
  std::vector<std::uint64_t> stamps;
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [&rt, &stamps] {
      for (int k = 0; k < 10; ++k) {
        rt.checkpoint({});
        stamps.push_back(rt.now());
      }
    });
  }
  rt.run(1000);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_LT(stamps[i - 1], stamps[i]);
  }
}

TEST(SimRuntime, PerProcessRngIsDeterministicAndDistinct) {
  auto collect = [](std::uint64_t seed) {
    SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), seed);
    std::vector<std::uint64_t> draws(2);
    for (ProcId p = 0; p < 2; ++p) {
      rt.spawn(p, [&rt, &draws, p] {
        rt.checkpoint({});
        draws[static_cast<std::size_t>(p)] = rt.rng()();
      });
    }
    rt.run(100);
    return draws;
  };
  const auto a = collect(5);
  const auto b = collect(5);
  EXPECT_EQ(a, b);            // deterministic
  EXPECT_NE(a[0], a[1]);      // streams differ between processes
  EXPECT_NE(a, collect(6));   // and across seeds
}

TEST(SimRuntime, HintsVisibleToAdversary) {
  // An adversary that records the hints it can see.
  struct Spy final : Adversary {
    std::vector<std::int32_t>* rounds;
    RoundRobinAdversary rr;
    explicit Spy(std::vector<std::int32_t>* r) : rounds(r) {}
    ProcId pick(SimCtl& ctl) override {
      rounds->push_back(ctl.proc(0).hint.round);
      return rr.pick(ctl);
    }
    std::string name() const override { return "spy"; }
  };
  std::vector<std::int32_t> seen;
  SimRuntime rt(1, std::make_unique<Spy>(&seen), 1);
  rt.spawn(0, [&rt] {
    for (int k = 1; k <= 3; ++k) {
      Hint h;
      h.round = k;
      rt.publish_hint(h);
      rt.checkpoint({});
    }
  });
  rt.run(100);
  ASSERT_GE(seen.size(), 3u);
  // Hint published before checkpoint k is visible at pick k+1.
  EXPECT_EQ(seen[1], 1);
  EXPECT_EQ(seen[2], 2);
}

/// Round-robin that crashes `victim` at step `crash_at` and logs the view
/// epoch around it: every pick's epoch on entry, and the epoch before and
/// after the crash.
class EpochProbe final : public Adversary {
 public:
  EpochProbe(std::uint64_t crash_at, ProcId victim)
      : crash_at_(crash_at), victim_(victim) {}
  ProcId pick(SimCtl& ctl) override {
    const std::uint64_t* epoch = ctl.view_epoch();
    at_pick.push_back(*epoch);
    finished0.push_back(ctl.view(0).finished);
    if (ctl.step() == crash_at_) {
      around_crash = {*epoch, 0};
      ctl.crash(victim_);
      around_crash[1] = *epoch;
    }
    return inner_.pick(ctl);
  }
  std::string name() const override { return "epoch-probe"; }

  std::vector<std::uint64_t> at_pick;
  std::vector<bool> finished0;  ///< view(0).finished at each pick
  std::array<std::uint64_t, 2> around_crash{};

 private:
  std::uint64_t crash_at_;
  ProcId victim_;
  RoundRobinAdversary inner_;
};

TEST(SimRuntime, ViewEpochAdvancesOnEveryViewChangeAStrategyReads) {
  // Process 0 publishes a hint and returns; 1 is crashed at step 4; 2
  // spins until the budget stops the run and it is unwound.
  auto owned = std::make_unique<EpochProbe>(/*crash_at=*/4, /*victim=*/1);
  EpochProbe& probe = *owned;
  SimRuntime rt(3, std::move(owned), 1);
  const std::uint64_t* epoch = rt.view_epoch();
  ASSERT_NE(epoch, nullptr);

  auto spawn = [&](ProcId p, std::function<void()> body) {
    const std::uint64_t before = *epoch;
    rt.spawn(p, std::move(body));
    EXPECT_GT(*epoch, before) << "spawn " << p;
  };
  std::uint64_t before_hint = 0, after_hint = 0, body0_end = 0;
  spawn(0, [&] {
    rt.checkpoint({});
    before_hint = *epoch;
    rt.publish_hint(Hint{});
    after_hint = *epoch;
    rt.checkpoint({});
    body0_end = *epoch;
  });
  for (const ProcId p : {1, 2}) {
    spawn(p, [&rt] {
      for (;;) rt.checkpoint({});
    });
  }
  const RunResult res = rt.run(40);
  EXPECT_EQ(res.reason, RunResult::Reason::kBudget);

  EXPECT_GT(after_hint, before_hint) << "publish_hint";
  EXPECT_GT(probe.around_crash[1], probe.around_crash[0]) << "crash";
  // The first pick that sees process 0 finished sees a later epoch than
  // its body's last statement did.
  const auto done = std::find(probe.finished0.begin(), probe.finished0.end(),
                              true);
  ASSERT_NE(done, probe.finished0.end());
  const std::uint64_t after_finish =
      probe.at_pick[static_cast<std::size_t>(done - probe.finished0.begin())];
  EXPECT_GT(after_finish, body0_end) << "body finish";
  // From then on only process 2 runs and only checkpoints: pending ops and
  // step counts are not covered, so the epoch stands still ...
  EXPECT_EQ(probe.at_pick.back(), after_finish);
  // ... until the end-of-run unwind clears process 2's runnable flag.
  EXPECT_GT(*epoch, probe.at_pick.back()) << "unwind_survivors";

  // The epoch is published above the runnable mask's width too.
  SimRuntime wide(kRunnableMaskBits + 6,
                  std::make_unique<RoundRobinAdversary>(), 1);
  EXPECT_NE(wide.view_epoch(), nullptr);
}

TEST(SimRuntime, PendingOpVisibleToAdversary) {
  struct Spy final : Adversary {
    std::vector<std::int64_t>* payloads;
    RoundRobinAdversary rr;
    explicit Spy(std::vector<std::int64_t>* p) : payloads(p) {}
    ProcId pick(SimCtl& ctl) override {
      payloads->push_back(ctl.proc(0).pending.payload);
      return rr.pick(ctl);
    }
    std::string name() const override { return "spy"; }
  };
  std::vector<std::int64_t> seen;
  SimRuntime rt(1, std::make_unique<Spy>(&seen), 1);
  rt.spawn(0, [&rt] {
    rt.checkpoint({OpDesc::Kind::kWrite, 0, 42});
    rt.checkpoint({OpDesc::Kind::kWrite, 0, -17});
  });
  rt.run(100);
  ASSERT_GE(seen.size(), 2u);
  EXPECT_EQ(seen[1], 42);  // pick after first checkpoint sees its payload
}

TEST(SimRuntime, RegistersThroughRuntimeCountSteps) {
  SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
  SWMRRegister<int> reg(rt, /*owner=*/0, 0);
  int read_back = -1;
  rt.spawn(0, [&] { reg.write(5); });
  rt.spawn(1, [&] { read_back = reg.read(); });
  rt.run(100);
  EXPECT_EQ(reg.peek(), 5);
  EXPECT_TRUE(read_back == 0 || read_back == 5);
  EXPECT_EQ(rt.steps(0), 1u);
  EXPECT_EQ(rt.steps(1), 1u);
}

TEST(SimRuntime, ExplorationIsIdenticalUnderResetReuse) {
  // The exploration driver (src/explore/) recycles one SimRuntime across
  // tens of thousands of executions via reset(); the state counts and the
  // FNV digest over every executed pick and forced flip must match a
  // fresh-runtime-per-execution exploration bit for bit — any divergence
  // means reset() leaks state between runs.
  const auto limits = [] {
    explore::ExploreLimits l;
    l.branch_depth = 12;
    l.max_coin_flips = 2;
    return l;
  }();
  const explore::ExploreResult reused =
      explore::explore_token_game(2, 2, 4, limits, 7, /*reuse_runtime=*/true);
  const explore::ExploreResult fresh =
      explore::explore_token_game(2, 2, 4, limits, 7, /*reuse_runtime=*/false);
  EXPECT_EQ(reused.stats.states_visited, fresh.stats.states_visited);
  EXPECT_EQ(reused.stats.executions, fresh.stats.executions);
  EXPECT_EQ(reused.stats.schedule_digest, fresh.stats.schedule_digest);
  EXPECT_EQ(reused.stats.total_steps, fresh.stats.total_steps);
}

TEST(SimRuntime, ConsensusExplorationIsIdenticalUnderResetReuse) {
  // Same invariant through the full consensus stack (registers, coins,
  // per-process rngs): runtime reuse must not perturb the explored tree.
  explore::ConsensusExploreConfig config;
  config.protocol = "bprc";
  config.inputs = {0, 1};
  config.seed = 5;
  config.limits.branch_depth = 8;
  config.reuse_runtime = true;
  const explore::ConsensusExploreReport reused =
      explore::explore_consensus(config);
  config.reuse_runtime = false;
  const explore::ConsensusExploreReport fresh =
      explore::explore_consensus(config);
  EXPECT_EQ(reused.stats.states_visited, fresh.stats.states_visited);
  EXPECT_EQ(reused.stats.executions, fresh.stats.executions);
  EXPECT_EQ(reused.stats.schedule_digest, fresh.stats.schedule_digest);
  EXPECT_TRUE(reused.ok());
  EXPECT_TRUE(fresh.ok());
}

TEST(SimRuntimeDeath, NonOwnerWriteAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
        SWMRRegister<int> reg(rt, /*owner=*/0, 0);
        rt.spawn(1, [&] { reg.write(1); });  // process 1 is not the owner
        rt.run(100);
      },
      "non-owner");
}

TEST(SimRuntimeDeath, SwallowingProcessStoppedAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimRuntime rt(1, std::make_unique<RoundRobinAdversary>(), 1);
        rt.spawn(0, [&rt] {
          for (;;) {
            try {
              rt.checkpoint({});
            } catch (const ProcessStopped&) {
              // forbidden: bodies must let ProcessStopped propagate
            }
          }
        });
        rt.run(10);
      },
      "ProcessStopped");
}

}  // namespace
}  // namespace bprc
