// Register substrate tests. The centerpiece: Bloom's 2W2R construction is
// checked for linearizability over EVERY interleaving of small scenarios
// (exhaustive schedule enumeration in the simulator) plus randomized and
// thread-runtime stress — the construction's atomicity is a theorem we
// re-verify, not an assumption.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "registers/bloom_2w2r.hpp"
#include "registers/register.hpp"
#include "registers/toggle.hpp"
#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "verify/linearizability.hpp"

namespace bprc {
namespace {

TEST(SWMR, InitialValueReadable) {
  SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
  SWMRRegister<int> reg(rt, 0, 42);
  int got = -1;
  rt.spawn(1, [&] { got = reg.read(); });
  rt.run(100);
  EXPECT_EQ(got, 42);
}

TEST(SWMR, WriteThenReadSequential) {
  SimRuntime rt(2, std::make_unique<ScriptedAdversary>(
                       std::vector<ProcId>{0, 1}), 1);
  SWMRRegister<int> reg(rt, 0, 0);
  int got = -1;
  rt.spawn(0, [&] { reg.write(9); });
  rt.spawn(1, [&] { got = reg.read(); });
  rt.run(100);
  EXPECT_EQ(got, 9);
}

TEST(SWMR, PeekDoesNotCostASimStep) {
  SimRuntime rt(1, std::make_unique<RoundRobinAdversary>(), 1);
  SWMRRegister<int> reg(rt, 0, 5);
  EXPECT_EQ(reg.peek(), 5);
  EXPECT_EQ(rt.total_steps(), 0u);
}

TEST(MRMW, AnyProcessMayWrite) {
  SimRuntime rt(3, std::make_unique<RoundRobinAdversary>(), 1);
  MRMWRegister<int> reg(rt, 0);
  for (ProcId p = 0; p < 3; ++p) {
    rt.spawn(p, [&reg, p] { reg.write(p + 1); });
  }
  rt.run(100);
  const int v = reg.peek();
  EXPECT_TRUE(v == 1 || v == 2 || v == 3);
}

TEST(Toggled, ConsecutiveWritesAlwaysDiffer) {
  const Toggled<int> a{7, false, 0};
  Toggled<int> b = a;
  advance_toggled(b, 7);  // same payload
  EXPECT_NE(a, b);        // toggle bit separates them
  Toggled<int> c = b;
  advance_toggled(c, 7);
  EXPECT_NE(b, c);
  EXPECT_EQ(a.toggle, c.toggle);
  EXPECT_EQ(c.ghost_index, 2u);
}

TEST(Toggled, GhostIndexExcludedFromEquality) {
  const Toggled<int> a{7, true, 3};
  const Toggled<int> b{7, true, 9};
  EXPECT_EQ(a, b);  // algorithms cannot see the ghost
}

// ---------------------------------------------------------------------------
// Bloom 2W2R linearizability
// ---------------------------------------------------------------------------

struct BloomScenario {
  int writes_per_writer = 1;  // writers are procs 0 and 1
  int reads_r2 = 1;           // reads performed by proc 2
  int reads_r3 = 1;           // reads performed by proc 3
};

/// Runs the scenario under the given schedule and returns the recorded
/// high-level history. Writer p writes values p*100 + k.
std::vector<RegOp> run_bloom(const BloomScenario& sc,
                             std::unique_ptr<Adversary> adv,
                             std::uint64_t seed) {
  SimRuntime rt(4, std::move(adv), seed);
  Bloom2W2R<std::uint64_t> reg(rt, 0, 1, /*initial=*/0);
  RegOpRecorder rec(rt);
  for (ProcId w = 0; w < 2; ++w) {
    rt.spawn(w, [&, w] {
      for (int k = 1; k <= sc.writes_per_writer; ++k) {
        const std::uint64_t v = static_cast<std::uint64_t>(w) * 100 +
                                static_cast<std::uint64_t>(k);
        rec.write(w, v, [&] { reg.write(v); });
      }
    });
  }
  for (ProcId r = 2; r < 4; ++r) {
    const int reads = (r == 2) ? sc.reads_r2 : sc.reads_r3;
    rt.spawn(r, [&, r, reads] {
      for (int k = 0; k < reads; ++k) {
        rec.read(r, [&] { return reg.read(); });
      }
    });
  }
  rt.run(1'000'000);
  return rec.take();
}

TEST(Bloom, SequentialSemantics) {
  // Alternating writers, then readers, fully serialized.
  const std::vector<ProcId> script{0, 0, 1, 1, 2, 2, 3, 3};
  const auto hist = run_bloom({1, 1, 1},
                              std::make_unique<ScriptedAdversary>(script), 1);
  const auto res = check_register_linearizable(hist, 0);
  EXPECT_TRUE(res.ok) << res.witness;
  // The reads happened strictly after both writes; they must have read
  // the second writer's value (it wrote last, serialized).
  for (const auto& op : hist) {
    if (!op.is_write) {
      EXPECT_EQ(op.value, 101u);
    }
  }
}

/// Enumerates every interleaving of the given per-process step counts and
/// calls fn(schedule).
void for_each_interleaving(std::vector<int> remaining,
                           std::vector<ProcId>& prefix,
                           const std::function<void(const std::vector<ProcId>&)>& fn) {
  bool any = false;
  for (ProcId p = 0; p < static_cast<ProcId>(remaining.size()); ++p) {
    if (remaining[static_cast<std::size_t>(p)] == 0) continue;
    any = true;
    --remaining[static_cast<std::size_t>(p)];
    prefix.push_back(p);
    for_each_interleaving(remaining, prefix, fn);
    prefix.pop_back();
    ++remaining[static_cast<std::size_t>(p)];
  }
  if (!any) fn(prefix);
}

TEST(Bloom, ExhaustiveSchedules_1Write1Read) {
  // Every interleaving of: 2 writers × 1 write (2 primitive steps each),
  // 2 readers × 1 read (3 primitive steps each): 10!/(2!2!3!3!) = 25200
  // schedules, each run through the full simulator and the checker.
  int schedules = 0;
  std::vector<ProcId> prefix;
  for_each_interleaving(
      {2, 2, 3, 3}, prefix, [&](const std::vector<ProcId>& schedule) {
        ++schedules;
        const auto hist = run_bloom(
            {1, 1, 1}, std::make_unique<ScriptedAdversary>(schedule), 1);
        const auto res = check_register_linearizable(hist, 0);
        ASSERT_TRUE(res.ok) << "schedule #" << schedules << res.witness;
      });
  EXPECT_EQ(schedules, 25200);
}

TEST(Bloom, ExhaustiveSchedules_2Writes1Read) {
  // 2 writers × 2 writes (4 steps each), 1 reader × 1 read (3 steps):
  // 11!/(4!4!3!) = 11550 schedules, enumerated exactly.
  int schedules = 0;
  std::vector<ProcId> prefix;
  for_each_interleaving(
      {4, 4, 3, 0}, prefix, [&](const std::vector<ProcId>& schedule) {
        ++schedules;
        const auto hist = run_bloom(
            {2, 1, 0}, std::make_unique<ScriptedAdversary>(schedule), 1);
        const auto res = check_register_linearizable(hist, 0);
        ASSERT_TRUE(res.ok) << res.witness;
      });
  EXPECT_EQ(schedules, 11550);
}

class BloomRandomSchedules : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BloomRandomSchedules, Linearizable) {
  const std::uint64_t seed = GetParam();
  const auto hist = run_bloom({4, 5, 5},
                              std::make_unique<RandomAdversary>(seed), seed);
  const auto res = check_register_linearizable(hist, 0);
  EXPECT_TRUE(res.ok) << res.witness;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BloomRandomSchedules,
                         ::testing::Range<std::uint64_t>(0, 200));

TEST(Bloom, ThreadRuntimeStress) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ThreadRuntime rt(4, seed, /*yield_prob=*/0.3);
    Bloom2W2R<std::uint64_t> reg(rt, 0, 1, 0);
    RegOpRecorder rec(rt);
    for (ProcId w = 0; w < 2; ++w) {
      rt.spawn(w, [&, w] {
        for (int k = 1; k <= 5; ++k) {
          const std::uint64_t v = static_cast<std::uint64_t>(w) * 100 +
                                  static_cast<std::uint64_t>(k);
          rec.write(w, v, [&] { reg.write(v); });
        }
      });
    }
    for (ProcId r = 2; r < 4; ++r) {
      rt.spawn(r, [&] {
        for (int k = 0; k < 6; ++k) {
          rec.read(rt.self(), [&] { return reg.read(); });
        }
      });
    }
    rt.run(10'000'000);
    const auto hist = rec.take();
    const auto res = check_register_linearizable(hist, 0);
    EXPECT_TRUE(res.ok) << "seed " << seed << ": " << res.witness;
  }
}

// ---------------------------------------------------------------------------
// Weak register semantics (docs/REGISTER_SEMANTICS.md)
// ---------------------------------------------------------------------------

/// Scripted scheduling plus scripted stale-read resolutions; records the
/// option count of every StaleRead the registers raise so tests can pin
/// the exact read-return envelope of each semantics level.
class StaleProbeAdversary final : public Adversary {
 public:
  StaleProbeAdversary(std::vector<ProcId> schedule, std::vector<int> choices)
      : sched_(std::move(schedule)), choices_(std::move(choices)) {}

  ProcId pick(SimCtl& ctl) override { return sched_.pick(ctl); }
  std::string name() const override { return "stale-probe"; }
  int resolve_read(SimCtl&, const StaleRead& sr) override {
    options_seen.push_back(sr.options);
    const std::size_t i = options_seen.size() - 1;
    return i < choices_.size() ? choices_[i] : 0;
  }

  std::vector<int> options_seen;  ///< one entry per weakened read raised

 private:
  ScriptedAdversary sched_;
  std::vector<int> choices_;
};

/// One write racing one read: proc 0 announces write(20) and parks at its
/// checkpoint; proc 1 reads inside the open window; proc 0 then commits.
/// Returns the value the read served; `options_seen` reports the raised
/// envelopes.
int overlapped_read(RegisterSemantics sem, int choice,
                    std::vector<int>* options_seen) {
  auto adv = std::make_unique<StaleProbeAdversary>(
      std::vector<ProcId>{0, 1, 1, 0}, std::vector<int>{choice});
  StaleProbeAdversary* probe = adv.get();
  SimRuntime rt(2, std::move(adv), 1);
  rt.set_register_semantics(sem);  // before construction: registers cache it
  SWMRRegister<int> reg(rt, 0, /*initial=*/10);
  int got = -1;
  rt.spawn(0, [&] { reg.write(20); });
  rt.spawn(1, [&] { got = reg.read(); });
  rt.run(100);
  if (options_seen != nullptr) *options_seen = probe->options_seen;
  return got;
}

TEST(WeakSemantics, RegularReadServesCommittedOrPending) {
  // Regular envelope: exactly two options — the last committed value
  // (choice 0, the atomic answer) or the in-flight write (choice 1).
  std::vector<int> options;
  EXPECT_EQ(overlapped_read(RegisterSemantics::kRegular, 0, &options), 10);
  EXPECT_EQ(options, std::vector<int>({2}));
  EXPECT_EQ(overlapped_read(RegisterSemantics::kRegular, 1, &options), 20);
  EXPECT_EQ(options, std::vector<int>({2}));
}

TEST(WeakSemantics, SafeWithNoHistoryMatchesRegularEnvelope) {
  // Before any write retires into the history ring, safe semantics has
  // nothing extra to serve: the envelope collapses to regular's.
  std::vector<int> options;
  EXPECT_EQ(overlapped_read(RegisterSemantics::kSafe, 0, &options), 10);
  EXPECT_EQ(options, std::vector<int>({2}));
  EXPECT_EQ(overlapped_read(RegisterSemantics::kSafe, 1, &options), 20);
}

TEST(WeakSemantics, AtomicSemanticsNeverConsultTheAdversary) {
  // The same overlapping schedule under atomic semantics: the read serves
  // the committed value and no StaleRead is ever raised.
  std::vector<int> options;
  EXPECT_EQ(overlapped_read(RegisterSemantics::kAtomic, 1, &options), 10);
  EXPECT_TRUE(options.empty());
}

TEST(WeakSemantics, SafeReadServesHistoryRing) {
  // Writer commits 1, 2, 3 (retiring 0, 1, 2 into the ring), then parks
  // mid-write(4). Safe options = 2 + 3 retired values; the choice map is
  // 0 -> committed, 1 -> pending, k >= 2 -> (k-1)-th most recent retiree.
  const int expected[] = {3, 4, 2, 1, 0};
  for (int choice = 0; choice < 5; ++choice) {
    auto adv = std::make_unique<StaleProbeAdversary>(
        std::vector<ProcId>{0, 0, 0, 0, 1, 1, 0}, std::vector<int>{choice});
    StaleProbeAdversary* probe = adv.get();
    SimRuntime rt(2, std::move(adv), 1);
    rt.set_register_semantics(RegisterSemantics::kSafe);
    SWMRRegister<int> reg(rt, 0, /*initial=*/0);
    int got = -1;
    rt.spawn(0, [&] {
      for (int v = 1; v <= 4; ++v) reg.write(v);
    });
    rt.spawn(1, [&] { got = reg.read(); });
    rt.run(100);
    ASSERT_EQ(probe->options_seen, std::vector<int>({5})) << "choice " << choice;
    EXPECT_EQ(got, expected[choice]) << "choice " << choice;
  }
}

TEST(WeakSemantics, NoConcurrentWriteAllSemanticsAgree) {
  // Fully serialized write-then-read: the window is closed by the time
  // the read runs, so every semantics level returns the committed value
  // and the adversary is never consulted — the agreement case the
  // Lamport hierarchy guarantees.
  for (const RegisterSemantics sem :
       {RegisterSemantics::kAtomic, RegisterSemantics::kRegular,
        RegisterSemantics::kSafe}) {
    auto adv = std::make_unique<StaleProbeAdversary>(
        std::vector<ProcId>{0, 0, 1, 1}, std::vector<int>{1});
    StaleProbeAdversary* probe = adv.get();
    SimRuntime rt(2, std::move(adv), 1);
    rt.set_register_semantics(sem);
    SWMRRegister<int> reg(rt, 0, /*initial=*/10);
    int got = -1;
    rt.spawn(0, [&] { reg.write(20); });
    rt.spawn(1, [&] { got = reg.read(); });
    rt.run(100);
    EXPECT_EQ(got, 20) << to_string(sem);
    EXPECT_TRUE(probe->options_seen.empty()) << to_string(sem);
  }
}

TEST(WeakSemantics, MrmwAndReadIntoShareTheEnvelope) {
  // The MRMW template and the allocation-free read_into path weaken
  // identically to SWMR::read.
  for (const int choice : {0, 1}) {
    auto adv = std::make_unique<StaleProbeAdversary>(
        std::vector<ProcId>{0, 1, 1, 0}, std::vector<int>{choice});
    SimRuntime rt(2, std::move(adv), 1);
    rt.set_register_semantics(RegisterSemantics::kRegular);
    MRMWRegister<int> mr(rt, /*initial=*/10);
    int got = -1;
    rt.spawn(0, [&] { mr.write(20); });
    rt.spawn(1, [&] { got = mr.read(); });
    rt.run(100);
    EXPECT_EQ(got, choice == 0 ? 10 : 20);
  }
  for (const int choice : {0, 1}) {
    auto adv = std::make_unique<StaleProbeAdversary>(
        std::vector<ProcId>{0, 1, 1, 0}, std::vector<int>{choice});
    SimRuntime rt(2, std::move(adv), 1);
    rt.set_register_semantics(RegisterSemantics::kRegular);
    SWMRRegister<int> reg(rt, 0, /*initial=*/10);
    int got = -1;
    rt.spawn(0, [&] { reg.write(20); });
    rt.spawn(1, [&] { reg.read_into(got); });
    rt.run(100);
    EXPECT_EQ(got, choice == 0 ? 10 : 20);
  }
}

TEST(BloomDeath, ThirdWriterRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimRuntime rt(3, std::make_unique<RoundRobinAdversary>(), 1);
        Bloom2W2R<int> reg(rt, 0, 1, 0);
        rt.spawn(2, [&] { reg.write(1); });
        rt.run(100);
      },
      "non-writer");
}

}  // namespace
}  // namespace bprc
