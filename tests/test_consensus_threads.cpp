// All four protocols on the preemptive thread runtime: correctness must
// not depend on the simulator's serialized steps.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "consensus/abrahamson.hpp"
#include "consensus/aspnes_herlihy.hpp"
#include "consensus/bprc.hpp"
#include "consensus/driver.hpp"
#include "consensus/strong_coin.hpp"

namespace bprc {
namespace {

constexpr std::uint64_t kBudget = 200'000'000;

/// Why a run stopped and how far each process got, for termination
/// failures: the stop reason, steps used against kBudget, per-process
/// steps and decisions.
std::string describe_stop(const ConsensusRunResult& res) {
  std::ostringstream out;
  out << "stopped: " << to_string(res.reason) << ", " << res.total_steps
      << " of " << kBudget << " budgeted steps; per process (steps/decision):";
  for (std::size_t p = 0; p < res.proc_steps.size(); ++p) {
    out << " p" << p << "=" << res.proc_steps[p] << "/" << res.decisions[p];
  }
  return out.str();
}

class ThreadedBPRC
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ThreadedBPRC, ConsistentValidTerminating) {
  const auto [n, seed] = GetParam();
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) inputs[static_cast<std::size_t>(i)] = i % 2;
  const auto res = run_consensus_threads(
      [n](Runtime& rt) {
        return std::make_unique<BPRCConsensus>(rt, BPRCParams::standard(n));
      },
      inputs, seed, kBudget, /*yield_prob=*/0.1);
  EXPECT_TRUE(res.all_decided) << describe_stop(res);
  EXPECT_TRUE(res.consistent) << "CONSISTENCY VIOLATION on threads";
  EXPECT_TRUE(res.valid);
  EXPECT_LE(res.footprint.max_counter, res.footprint.static_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ThreadedBPRC,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5)));

TEST(ThreadedBPRC, UnanimousFastPath) {
  for (const int input : {0, 1}) {
    const auto res = run_consensus_threads(
        [](Runtime& rt) {
          return std::make_unique<BPRCConsensus>(
              rt, BPRCParams::standard(rt.nprocs()));
        },
        std::vector<int>(6, input), 7, kBudget);
    ASSERT_TRUE(res.ok());
    for (const int d : res.decisions) EXPECT_EQ(d, input);
  }
}

TEST(ThreadedBaselines, AspnesHerlihy) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto res = run_consensus_threads(
        [](Runtime& rt) {
          return std::make_unique<AspnesHerlihyConsensus>(
              rt, CoinParams::standard(rt.nprocs()));
        },
        {0, 1, 0, 1}, seed, kBudget);
    EXPECT_TRUE(res.ok()) << "seed " << seed;
  }
}

TEST(ThreadedBaselines, LocalCoin) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto res = run_consensus_threads(
        [](Runtime& rt) { return std::make_unique<LocalCoinConsensus>(rt); },
        {0, 1, 0, 1}, seed, kBudget);
    EXPECT_TRUE(res.ok()) << "seed " << seed;
  }
}

TEST(ThreadedBaselines, StrongCoin) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto res = run_consensus_threads(
        [seed](Runtime& rt) {
          return std::make_unique<StrongCoinConsensus>(rt, seed ^ 0xFF);
        },
        {1, 0, 1, 0}, seed, kBudget);
    EXPECT_TRUE(res.ok()) << "seed " << seed;
  }
}

TEST(ThreadedBPRC, RepeatedRunsStressRaceWindows) {
  // Many short hostile-yield runs to shake out interleaving-dependent
  // bugs that one long run might miss.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto res = run_consensus_threads(
        [](Runtime& rt) {
          return std::make_unique<BPRCConsensus>(
              rt, BPRCParams::standard(rt.nprocs()));
        },
        {1, 0, 1}, seed, kBudget, /*yield_prob=*/0.4);
    EXPECT_TRUE(res.ok()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bprc
