// Concurrent rounds-strip stress (§4.3): the edge counters' mod-3K
// encoding must stay decodable when every process updates its row from
// SNAPSHOT views rather than current state — the concurrency slack that
// motivates cycle size 3K. Each process loops scan → make_graph →
// inc_counters → write under every adversary; make_graph aborts the run
// if any scanned counter pair ever decodes to the invalid middle third.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "snapshot/scannable_memory.hpp"
#include "strip/edge_counters.hpp"

namespace bprc {
namespace {

/// One process's loop body: advance its strip row `rounds` times, always
/// from a fresh snapshot (the §5 usage pattern).
void strip_worker(Runtime& rt, ScannableMemory<EdgeCounters>& mem, int K,
                  int rounds) {
  const ProcId me = rt.self();
  EdgeCounters row = initial_edge_counters(rt.nprocs());
  for (int r = 0; r < rounds; ++r) {
    std::vector<EdgeCounters> rows;
    mem.scan_into(rows);
    rows[static_cast<std::size_t>(me)] = row;  // own row: local truth
    const DistanceGraph g = make_graph(rows, K);  // aborts on bad decode
    // Sanity: every pairwise difference is in the valid band.
    for (int a = 0; a < rt.nprocs(); ++a) {
      for (int b = 0; b < rt.nprocs(); ++b) {
        const int s = g.signed_diff(a, b);
        BPRC_REQUIRE(s >= -K && s <= K, "decoded difference out of band");
        BPRC_REQUIRE(s == -g.signed_diff(b, a), "antisymmetry broken");
      }
    }
    inc_counters(me, g, row);
    mem.write(row);
  }
}

class StripConcurrent
    : public ::testing::TestWithParam<std::tuple<int, int, int, std::uint64_t>> {
};

TEST_P(StripConcurrent, SnapshotViewsAlwaysDecode) {
  const auto [n, K, advk, seed] = GetParam();
  auto advs = standard_adversaries(seed * 733 + 19);
  SimRuntime rt(n, std::move(advs[static_cast<std::size_t>(advk)]), seed);
  ScannableMemory<EdgeCounters> mem(rt, initial_edge_counters(n));
  const int rounds = 40;  // > 3K wraparounds per pair
  for (ProcId p = 0; p < n; ++p) {
    rt.spawn(p, [&rt, &mem, K, rounds] { strip_worker(rt, mem, K, rounds); });
  }
  const RunResult res = rt.run(50'000'000ull);
  EXPECT_EQ(res.reason, RunResult::Reason::kAllDone);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StripConcurrent,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),  // n
                       ::testing::Values(2, 3),        // K
                       ::testing::Range(0, 5),         // adversary
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(StripConcurrent, SurvivesCrashesMidUpdate) {
  // Crash processes at arbitrary points (possibly between computing an
  // inc and writing it); survivors' decodes must stay valid forever.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const int n = 4;
    auto adv = std::make_unique<CrashPlanAdversary>(
        std::make_unique<RandomAdversary>(seed),
        std::vector<CrashPlanAdversary::Crash>{{seed * 13 + 20, 0},
                                               {seed * 17 + 90, 1}});
    SimRuntime rt(n, std::move(adv), seed);
    ScannableMemory<EdgeCounters> mem(rt, initial_edge_counters(n));
    for (ProcId p = 0; p < n; ++p) {
      rt.spawn(p, [&rt, &mem] { strip_worker(rt, mem, 2, 60); });
    }
    const RunResult res = rt.run(50'000'000ull);
    EXPECT_EQ(res.reason, RunResult::Reason::kAllDone) << "seed " << seed;
  }
}

TEST(StripConcurrent, ThreadRuntimeStress) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const int n = 4;
    ThreadRuntime rt(n, seed, /*yield_prob=*/0.25);
    ScannableMemory<EdgeCounters> mem(rt, initial_edge_counters(n));
    for (ProcId p = 0; p < n; ++p) {
      rt.spawn(p, [&rt, &mem] { strip_worker(rt, mem, 2, 30); });
    }
    const RunResult res = rt.run(200'000'000ull);
    EXPECT_EQ(res.reason, RunResult::Reason::kAllDone) << "seed " << seed;
  }
}

TEST(StripConcurrent, LoneRunnerSaturatesAtK) {
  // One process advancing while the rest never move: its lead over every
  // other process must pin at exactly K (shrinking in action), however
  // many rounds it runs — and the counters never leave the 3K cycle.
  const int n = 3;
  const int K = 2;
  SimRuntime rt(n, std::make_unique<RoundRobinAdversary>(), 1);
  ScannableMemory<EdgeCounters> mem(rt, initial_edge_counters(n));
  EdgeCounters final_row;
  rt.spawn(0, [&] {
    EdgeCounters row = initial_edge_counters(n);
    for (int r = 0; r < 100; ++r) {
      std::vector<EdgeCounters> rows;
      mem.scan_into(rows);
      rows[0] = row;
      const DistanceGraph g = make_graph(rows, K);
      inc_counters(0, g, row);
      mem.write(row);
    }
    final_row = row;
  });
  // Processes 1, 2 exist but never touch the strip.
  rt.spawn(1, [] {});
  rt.spawn(2, [] {});
  ASSERT_EQ(rt.run(10'000'000ull).reason, RunResult::Reason::kAllDone);
  std::vector<EdgeCounters> rows(3, initial_edge_counters(n));
  rows[0] = final_row;
  const DistanceGraph g = make_graph(rows, K);
  EXPECT_EQ(g.signed_diff(0, 1), K);
  EXPECT_EQ(g.signed_diff(0, 2), K);
  for (const auto e : final_row) EXPECT_LT(e, 3 * K);
}

}  // namespace
}  // namespace bprc
