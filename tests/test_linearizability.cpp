// Tests for the Wing–Gong register linearizability checker itself —
// handcrafted histories with known verdicts, so that the checker can be
// trusted when it judges the register constructions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "util/rng.hpp"
#include "verify/linearizability.hpp"

namespace bprc {
namespace {

RegOp W(std::uint64_t v, std::uint64_t inv, std::uint64_t res, ProcId p = 0) {
  return RegOp{true, v, inv, res, p};
}
RegOp R(std::uint64_t v, std::uint64_t inv, std::uint64_t res, ProcId p = 1) {
  return RegOp{false, v, inv, res, p};
}

TEST(LinCheck, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(check_register_linearizable({}, 0).ok);
}

TEST(LinCheck, SequentialReadOfInitialValue) {
  EXPECT_TRUE(check_register_linearizable({R(7, 1, 2)}, 7).ok);
  EXPECT_FALSE(check_register_linearizable({R(8, 1, 2)}, 7).ok);
}

TEST(LinCheck, SequentialWriteThenRead) {
  EXPECT_TRUE(check_register_linearizable({W(1, 1, 2), R(1, 3, 4)}, 0).ok);
  EXPECT_FALSE(check_register_linearizable({W(1, 1, 2), R(0, 3, 4)}, 0).ok);
}

TEST(LinCheck, ConcurrentReadMayReturnEitherValue) {
  // Read overlaps the write: both old and new are linearizable.
  EXPECT_TRUE(check_register_linearizable({W(1, 2, 6), R(0, 3, 5)}, 0).ok);
  EXPECT_TRUE(check_register_linearizable({W(1, 2, 6), R(1, 3, 5)}, 0).ok);
  EXPECT_FALSE(check_register_linearizable({W(1, 2, 6), R(9, 3, 5)}, 0).ok);
}

TEST(LinCheck, NewOldInversionIsRejected) {
  // Two sequential reads around a finished write: the second read cannot
  // return the older value once the first returned the newer one.
  const std::vector<RegOp> bad{
      W(1, 1, 10, 0),
      R(1, 2, 3, 1),   // sees the new value...
      R(0, 11, 12, 1)  // ...then the old one, strictly later: inversion
  };
  EXPECT_FALSE(check_register_linearizable(bad, 0).ok);

  // Reversed returns are fine (old then new).
  const std::vector<RegOp> good{W(1, 1, 10, 0), R(0, 2, 3, 1),
                                R(1, 11, 12, 1)};
  EXPECT_TRUE(check_register_linearizable(good, 0).ok);
}

TEST(LinCheck, RealTimeOrderBetweenWritesRespected) {
  // w(1) completes before w(2) begins; a read strictly after both must
  // return 2.
  EXPECT_TRUE(check_register_linearizable(
                  {W(1, 1, 2), W(2, 3, 4), R(2, 5, 6)}, 0)
                  .ok);
  EXPECT_FALSE(check_register_linearizable(
                   {W(1, 1, 2), W(2, 3, 4), R(1, 5, 6)}, 0)
                   .ok);
}

TEST(LinCheck, ConcurrentWritesAllowEitherOrder) {
  // Two overlapping writes; a later read may see either.
  EXPECT_TRUE(check_register_linearizable(
                  {W(1, 1, 10, 0), W(2, 2, 9, 2), R(1, 11, 12)}, 0)
                  .ok);
  EXPECT_TRUE(check_register_linearizable(
                  {W(1, 1, 10, 0), W(2, 2, 9, 2), R(2, 11, 12)}, 0)
                  .ok);
  EXPECT_FALSE(check_register_linearizable(
                   {W(1, 1, 10, 0), W(2, 2, 9, 2), R(0, 11, 12)}, 0)
                   .ok);
}

TEST(LinCheck, TwoReadersMustAgreeOnWriteOrder) {
  // Classic violation: overlapping writes w(1), w(2); reader A sees 1 then
  // 2, reader B sees 2 then 1 — no single order serves both.
  const std::vector<RegOp> bad{
      W(1, 1, 20, 0), W(2, 1, 20, 2),
      R(1, 21, 22, 1), R(2, 23, 24, 1),   // A: 1 then 2
      R(2, 21, 22, 3), R(1, 23, 24, 3),   // B: 2 then 1
  };
  EXPECT_FALSE(check_register_linearizable(bad, 0).ok);
}

TEST(LinCheck, LongInterleavedLinearizableHistory) {
  // A valid serialized execution sliced into overlapping intervals.
  std::vector<RegOp> h;
  std::uint64_t t = 1;
  std::uint64_t value = 0;
  for (int k = 1; k <= 12; ++k) {
    h.push_back(W(static_cast<std::uint64_t>(k), t, t + 3, 0));
    value = static_cast<std::uint64_t>(k);
    h.push_back(R(value, t + 4, t + 5, 1));
    t += 6;
  }
  EXPECT_TRUE(check_register_linearizable(h, 0).ok);
}

TEST(LinCheck, HistoriesBeyondSixtyFourOperations) {
  // The done-set is a dynamic bitset, so histories longer than one mask
  // word must work. 150 ops: the verdict comes from the tail, proving ops
  // past index 63 actually participate in the search.
  std::vector<RegOp> h;
  std::uint64_t t = 1;
  for (int k = 1; k <= 75; ++k) {
    h.push_back(W(static_cast<std::uint64_t>(k), t, t + 1, 0));
    h.push_back(R(static_cast<std::uint64_t>(k), t + 2, t + 3, 1));
    t += 4;
  }
  EXPECT_TRUE(check_register_linearizable(h, 0).ok);

  // Corrupt only the final read (index 149): a long history must still be
  // *rejected* when its violation sits past the 64-op mark.
  h.back().value = 9999;
  EXPECT_FALSE(check_register_linearizable(h, 0).ok);
}

TEST(LinCheck, MemoStatesWithEqualMixesStayDistinct) {
  // Two concurrent writes of values 0 and 1 with a trailing read: the
  // search revisits the same done-set under different register values and
  // vice versa. An exact (mask, value) memo must keep these states apart;
  // a lossy mixed key could collapse a live state onto a dead one and
  // wrongly reject.
  const std::vector<RegOp> h{
      W(0, 1, 10, 0),
      W(1, 1, 10, 1),
      R(0, 11, 12, 2),
      R(0, 13, 14, 3),
  };
  EXPECT_TRUE(check_register_linearizable(h, 7).ok);
}

TEST(LinCheck, WitnessNamesTheHistory) {
  const auto res = check_register_linearizable({R(9, 1, 2)}, 0);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.witness.find("read->9"), std::string::npos);
}

TEST(LinCheck, ReadOfNeverWrittenValueRejected) {
  EXPECT_FALSE(check_register_linearizable(
                   {W(1, 1, 2), W(2, 3, 4), R(3, 5, 6)}, 0)
                   .ok);
}

TEST(LinCheck, LongSequentialHistoryNeedsNoDeepRecursion) {
  // 200k sequential ops: the search must neither recurse once per op nor
  // rescan the history at every level.
  std::vector<RegOp> h;
  std::uint64_t t = 1;
  for (std::uint64_t k = 1; k <= 100'000; ++k) {
    h.push_back(W(k, t, t + 1, 0));
    h.push_back(R(k, t + 2, t + 3, 1));
    t += 4;
  }
  EXPECT_TRUE(check_register_linearizable(h, 0).ok);

  // Rejected at the very end: the search backtracks through every level.
  h.back().value = 0;
  EXPECT_FALSE(check_register_linearizable(h, 0).ok);
}

/// Brute-force oracle: some permutation respects real time (a before b
/// whenever a responded before b was invoked) and register semantics.
bool linearizable_by_permutation(const std::vector<RegOp>& h,
                                 std::uint64_t initial_value) {
  std::vector<std::size_t> perm(h.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  do {
    bool ok = true;
    std::uint64_t value = initial_value;
    for (std::size_t i = 0; i < perm.size() && ok; ++i) {
      const RegOp& op = h[perm[i]];
      for (std::size_t j = i + 1; j < perm.size() && ok; ++j) {
        ok = !(h[perm[j]].res < op.inv);
      }
      if (op.is_write) {
        value = op.value;
      } else {
        ok = ok && op.value == value;
      }
    }
    if (ok) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

TEST(LinCheck, AgreesWithPermutationOracle) {
  // Seeded random histories of up to 7 ops on up to 3 processes. The
  // timestamps come from a small range, so ops often share an endpoint
  // (a response equal to another op's invocation is concurrent, not
  // before); values 0..3 with writes of 1..2 only, so some reads return
  // a value nobody wrote.
  Rng rng(0x11AB);
  int accepted = 0;
  constexpr int kCases = 3000;
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t procs = 1 + rng.below(3);
    const std::size_t ops = 1 + rng.below(7);
    std::vector<std::uint64_t> clock(procs, 0);
    std::vector<RegOp> h;
    for (std::size_t i = 0; i < ops; ++i) {
      const std::uint64_t p = rng.below(procs);
      auto& now = clock[p];
      const std::uint64_t inv = now + rng.below(3);
      const std::uint64_t res = inv + 1 + rng.below(4);
      now = res;  // the process's next op may be invoked at this instant
      if (rng.flip()) {
        h.push_back(W(1 + rng.below(2), inv, res, static_cast<ProcId>(p)));
      } else {
        h.push_back(R(rng.below(4), inv, res, static_cast<ProcId>(p)));
      }
    }
    const std::uint64_t initial = rng.below(2);
    const bool expect = linearizable_by_permutation(h, initial);
    accepted += expect ? 1 : 0;
    ASSERT_EQ(check_register_linearizable(h, initial).ok, expect)
        << "case " << c << ":"
        << check_register_linearizable(h, initial).witness;
  }
  // Both verdicts must be well represented for the comparison to bite.
  EXPECT_GT(accepted, kCases / 5);
  EXPECT_LT(accepted, kCases * 4 / 5);
}

TEST(LinCheckDeath, RejectsEmptyIntervals) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      check_register_linearizable({RegOp{false, 0, 5, 5, 0}}, 0),
      "interval");
}

}  // namespace
}  // namespace bprc
