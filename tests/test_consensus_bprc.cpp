// Integration tests of the full BPRC protocol (§5): consistency, validity,
// termination, crash tolerance, bounded shared memory — across the
// adversary × input-pattern × seed matrix, plus K and b variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "consensus/bprc.hpp"
#include "consensus/driver.hpp"
#include "engine/trial.hpp"
#include "fault/campaign.hpp"
#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"

namespace bprc {
namespace {

ProtocolFactory bprc_factory(int n, int K = 2, int b = 4) {
  return [n, K, b](Runtime& rt) {
    return std::make_unique<BPRCConsensus>(rt, BPRCParams::standard(n, K, b));
  };
}

constexpr std::uint64_t kBudget = 80'000'000;

TEST(BPRC, SingleProcessDecidesItsInput) {
  for (const int input : {0, 1}) {
    const auto res = run_consensus_sim(bprc_factory(1), {input},
                                       std::make_unique<RandomAdversary>(1),
                                       1, kBudget);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.decisions[0], input);
  }
}

TEST(BPRC, UnanimousInputsDecideWithoutCoinFlips) {
  // Validity's strong form: with unanimous inputs the coin is never
  // touched (leaders always agree), so termination is deterministic.
  for (const int n : {2, 4, 7}) {
    for (const int input : {0, 1}) {
      SimRuntime rt(n, std::make_unique<RandomAdversary>(5), 5);
      BPRCConsensus protocol(rt, BPRCParams::standard(n));
      for (ProcId p = 0; p < n; ++p) {
        rt.spawn(p, [&protocol, input] { protocol.propose(input); });
      }
      ASSERT_EQ(rt.run(kBudget).reason, RunResult::Reason::kAllDone);
      EXPECT_EQ(protocol.total_flips(), 0u);
      for (ProcId p = 0; p < n; ++p) EXPECT_EQ(protocol.decision(p), input);
    }
  }
}

class BPRCMatrix : public ::testing::TestWithParam<
                       std::tuple<int, int, int, std::uint64_t>> {};

TEST_P(BPRCMatrix, ConsistentValidTerminating) {
  const auto [n, advk, pattern, seed] = GetParam();
  const auto patterns = standard_input_patterns(n, seed);
  if (pattern >= static_cast<int>(patterns.size())) GTEST_SKIP();
  auto advs = standard_adversaries(seed * 1337 + 11);
  const auto res = run_consensus_sim(
      bprc_factory(n), patterns[static_cast<std::size_t>(pattern)],
      std::move(advs[static_cast<std::size_t>(advk)]), seed, kBudget);
  EXPECT_TRUE(res.all_decided) << "termination failure";
  EXPECT_TRUE(res.consistent) << "CONSISTENCY VIOLATION";
  EXPECT_TRUE(res.valid) << "VALIDITY VIOLATION";
  // Bounded memory: the walk counters never exceeded their static bound.
  EXPECT_TRUE(res.footprint.bounded);
  EXPECT_LE(res.footprint.max_counter, res.footprint.static_bound);
  EXPECT_EQ(res.footprint.max_round_stored, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BPRCMatrix,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),   // n
                       ::testing::Range(0, 5),          // adversary
                       ::testing::Values(2, 4),         // split + random
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

class BPRCSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BPRCSeedSweep, SplitInputsUnderCoinBias) {
  // The protocol's hardest configuration: adversary attacks the coin,
  // inputs maximally split.
  const std::uint64_t seed = GetParam();
  const int n = 4;
  const auto res = run_consensus_sim(
      bprc_factory(n), {0, 1, 0, 1},
      std::make_unique<CoinBiasAdversary>(seed), seed, kBudget);
  EXPECT_TRUE(res.ok()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPRCSeedSweep,
                         ::testing::Range<std::uint64_t>(0, 50));

class BPRCCrashes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BPRCCrashes, SurvivorsDecideDespiteCrashes) {
  // Wait-freedom: crash all but one process at staggered points; every
  // survivor must still decide, consistently.
  const std::uint64_t seed = GetParam();
  const int n = 5;
  std::vector<CrashPlanAdversary::Crash> plan;
  for (int c = 0; c < n - 1; ++c) {
    plan.push_back({seed * 50 + static_cast<std::uint64_t>(c) * 400 + 100,
                    static_cast<ProcId>(c)});
  }
  auto adv = std::make_unique<CrashPlanAdversary>(
      std::make_unique<RandomAdversary>(seed), plan);
  const auto res = run_consensus_sim(bprc_factory(n), {0, 1, 0, 1, 1},
                                     std::move(adv), seed, kBudget);
  EXPECT_TRUE(res.all_decided) << "survivor failed to decide";
  EXPECT_TRUE(res.consistent);
  EXPECT_TRUE(res.valid);
  // The non-crashed process decided.
  EXPECT_NE(res.decisions[4], -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPRCCrashes,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(BPRC, CrashedLeaderDoesNotBlockDecision) {
  // Crash the process most likely to be ahead (p0 under round-robin gets
  // the first step) early; the rest must pass it and decide.
  auto adv = std::make_unique<CrashPlanAdversary>(
      std::make_unique<RoundRobinAdversary>(),
      std::vector<CrashPlanAdversary::Crash>{{40, 0}});
  const auto res = run_consensus_sim(bprc_factory(3), {1, 0, 0},
                                     std::move(adv), 9, kBudget);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.consistent);
}

class BPRCVariants
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(BPRCVariants, LargerKAndDifferentBStillCorrect) {
  const auto [K, b, seed] = GetParam();
  const int n = 4;
  const auto res = run_consensus_sim(
      bprc_factory(n, K, b), {0, 1, 1, 0},
      std::make_unique<LockstepAdversary>(seed), seed, kBudget);
  EXPECT_TRUE(res.ok()) << "K=" << K << " b=" << b << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BPRCVariants,
    ::testing::Combine(::testing::Values(2, 3, 4),    // K
                       ::testing::Values(2, 4, 8),    // b
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(BPRC, DeterministicGivenSeed) {
  auto once = [](std::uint64_t seed) {
    const auto res = run_consensus_sim(
        bprc_factory(4), {0, 1, 0, 1},
        std::make_unique<RandomAdversary>(seed), seed, kBudget);
    return std::make_tuple(res.decisions, res.total_steps, res.max_round);
  };
  EXPECT_EQ(once(77), once(77));
  // (different seeds usually differ, but are not required to)
}

TEST(BPRC, DecisionRoundsStaySmall) {
  // §6.3: constant expected number of rounds. Over 40 adversarial runs at
  // n=4, no run should need more than ~20 rounds (expected is ~2-4; 20 is
  // a >5-sigma allowance for the geometric tail at p >= 1 - 1/b).
  std::int64_t worst = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto res = run_consensus_sim(
        bprc_factory(4), {0, 1, 0, 1},
        std::make_unique<LeaderSuppressAdversary>(seed), seed, kBudget);
    ASSERT_TRUE(res.ok());
    worst = std::max(worst, res.max_round);
  }
  EXPECT_LE(worst, 20);
}

TEST(BPRC, BloomArrowVariantAgrees) {
  // Full protocol on top of the constructed (Bloom) arrow registers.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto res = run_consensus_sim(
        [](Runtime& rt) {
          return std::make_unique<BPRCConsensus>(
              rt, BPRCParams::standard(rt.nprocs()),
              BPRCConsensus::ArrowImpl::kBloom);
        },
        {0, 1, 1}, std::make_unique<RandomAdversary>(seed), seed, kBudget);
    EXPECT_TRUE(res.ok()) << "seed " << seed;
  }
}

class Lemma65Drift
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Lemma65Drift, NoRoundExceedsEarliestDecisionByMoreThanTwo) {
  // Lemma 6.5: "If any process decides in round r, then no process will
  // ever be in a round larger than r + 2." Observable form: the largest
  // local round any process reaches never exceeds the earliest decision
  // round by more than 2 (measured worst across the matrix: 1).
  const auto [n, advk] = GetParam();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto advs = standard_adversaries(seed * 7 + static_cast<std::uint64_t>(advk));
    SimRuntime rt(n, std::move(advs[static_cast<std::size_t>(advk)]), seed);
    BPRCConsensus protocol(rt, BPRCParams::standard(n));
    for (ProcId p = 0; p < n; ++p) {
      const int input = static_cast<int>(p) % 2;
      rt.spawn(p, [&protocol, input] { protocol.propose(input); });
    }
    ASSERT_EQ(rt.run(kBudget).reason, RunResult::Reason::kAllDone);
    std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
    for (ProcId p = 0; p < n; ++p) {
      earliest = std::min(earliest, protocol.decision_round(p));
    }
    EXPECT_LE(protocol.max_round_reached(), earliest + 2)
        << "Lemma 6.5 drift bound violated at seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, Lemma65Drift,
                         ::testing::Combine(::testing::Values(2, 4, 6),
                                            ::testing::Range(0, 5)));

TEST(BPRC, ExhaustiveSchedulePrefixes_N2) {
  // Systematic coverage of the protocol's early interleavings, where the
  // initial-write/scan races live: every schedule prefix of length 12 for
  // n=2 (2^12 = 4096), each completed with round-robin. Safety must hold
  // in every single one.
  const int n = 2;
  const int depth = 12;
  std::vector<ProcId> prefix;
  std::function<void()> rec = [&] {
    if (static_cast<int>(prefix.size()) == depth) {
      const auto res = run_consensus_sim(
          bprc_factory(n), {0, 1},
          std::make_unique<ScriptedAdversary>(prefix), 1, kBudget);
      ASSERT_TRUE(res.ok()) << "prefix failed";
      return;
    }
    for (ProcId p = 0; p < n; ++p) {
      prefix.push_back(p);
      rec();
      prefix.pop_back();
    }
  };
  rec();
}

TEST(BPRC, ExhaustiveSchedulePrefixes_N3) {
  // 3^8 = 6561 prefixes at n=3 with a lone dissenter.
  const int n = 3;
  const int depth = 8;
  std::vector<ProcId> prefix;
  std::function<void()> rec = [&] {
    if (static_cast<int>(prefix.size()) == depth) {
      const auto res = run_consensus_sim(
          bprc_factory(n), {1, 0, 0},
          std::make_unique<ScriptedAdversary>(prefix), 2, kBudget);
      ASSERT_TRUE(res.ok()) << "prefix failed";
      return;
    }
    for (ProcId p = 0; p < n; ++p) {
      prefix.push_back(p);
      rec();
      prefix.pop_back();
    }
  };
  rec();
}

TEST(BPRC, OversizedRecordsKeepPinnedDigests) {
  // Register records past the inline capacities of their small-buffer
  // fields: n=17 edge counters (inline up to 16) and a 9-slot coin ring
  // (inline up to 8). Both spill to the heap; their outcome digests were
  // captured from the all-heap record layout and must never move.
  struct Pinned {
    int n;
    const char* space;
    const char* adversary;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pinned cases[] = {
      {17, "", "random", 1701, 0x38d7aca6089f2447ULL},
      {17, "", "coin-bias", 1702, 0x84aafdb7f052e751ULL},
      {3, "slots=9", "coin-bias", 903, 0xf87436f5d7ec6bbfULL},
      {5, "slots=9", "random", 905, 0x2eaa84dee70c2abeULL},
      {17, "slots=9", "random", 1709, 0x88dc2cf4982309caULL},
  };
  for (const Pinned& c : cases) {
    fault::TortureRun run;
    run.protocol = "bprc";
    for (int p = 0; p < c.n; ++p) run.inputs.push_back(p % 2);
    run.adversary = c.adversary;
    run.seed = c.seed;
    run.max_steps = 20'000'000;
    std::string err;
    const auto space = SpaceBudget::parse(c.space, &err);
    ASSERT_TRUE(space.has_value()) << err;
    run.space = *space;
    const engine::TrialOutcome out = engine::run_trial(
        fault::to_trial_spec(run, std::chrono::nanoseconds::zero()));
    EXPECT_TRUE(out.result.ok()) << c.n << " " << c.space;
    EXPECT_EQ(fault::outcome_digest(out), c.digest)
        << "n=" << c.n << " space='" << c.space << "' " << c.adversary
        << " steps=" << out.result.total_steps << std::hex << " digest=0x"
        << fault::outcome_digest(out);
  }
}

TEST(BPRC, ProposeRejectsNonBitInput) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimRuntime rt(1, std::make_unique<RoundRobinAdversary>(), 1);
        BPRCConsensus protocol(rt, BPRCParams::standard(1));
        rt.spawn(0, [&] { protocol.propose(2); });
        rt.run(1000);
      },
      "bit");
}

TEST(BPRC, RequiresKAtLeastTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
        BPRCConsensus protocol(rt, BPRCParams::standard(2, /*K=*/1));
      },
      "K >= 2");
}

}  // namespace
}  // namespace bprc
