// Coin-slot circular addressing tests (§5): pointer arithmetic, slot
// recycling/withdrawal, and the trailing-reader addressing rule.
#include <gtest/gtest.h>

#include "strip/coin_slots.hpp"

namespace bprc {
namespace {

TEST(CoinSlots, InitialState) {
  const CoinSlots cs(2);
  EXPECT_EQ(cs.K(), 2);
  EXPECT_EQ(cs.current, 0);
  EXPECT_EQ(cs.slots, (CoinSlots::Slots{0, 0, 0}));
  EXPECT_EQ(cs.next_index(), 1);
}

TEST(CoinSlots, NextWrapsAround) {
  CoinSlots cs(2);
  cs.current = 2;
  EXPECT_EQ(cs.next_index(), 0);
}

TEST(CoinSlots, AdvanceMovesPointerAndZeroesRecycledSlot) {
  CoinSlots cs(2);
  // Flip into the next slot, then advance: the pointer lands on it and
  // the slot after it (the K+1-rounds-old one) is withdrawn.
  cs.next_slot() = 5;
  cs.slots[2] = 9;  // contribution for what will become the next round
  cs.advance();
  EXPECT_EQ(cs.current, 1);
  EXPECT_EQ(cs.slots[1], 5);  // kept: now the current round's coin
  EXPECT_EQ(cs.slots[2], 0);  // zeroed: recycled for the new next round
}

TEST(CoinSlots, FullRotationWithdrawsEverything) {
  CoinSlots cs(2);
  cs.slots = {11, 22, 33};
  for (int r = 0; r < 3; ++r) cs.advance();
  // After K+1 advances every slot has been recycled exactly once.
  std::int64_t sum = 0;
  for (const auto s : cs.slots) sum += s;
  EXPECT_EQ(sum, 0);
  EXPECT_EQ(cs.current, 0);
}

TEST(CoinSlots, TrailingReaderAddressing) {
  // Owner j at (local) round r with pointer c: a process trailing by w
  // reads slot (c - w + 1) mod (K+1).
  CoinSlots cs(3);  // K=3: slots 0..3
  cs.current = 2;
  cs.slots = {40, 41, 42, 43};
  EXPECT_EQ(cs.slot_for_trailing(0), 3);  // tie: reads j's next slot
  EXPECT_EQ(cs.read_for_trailing(0), 43);
  EXPECT_EQ(cs.slot_for_trailing(1), 2);
  EXPECT_EQ(cs.read_for_trailing(1), 42);
  EXPECT_EQ(cs.slot_for_trailing(2), 1);
  EXPECT_EQ(cs.read_for_trailing(2), 41);
}

TEST(CoinSlots, TrailingAddressingWrapsNegative) {
  CoinSlots cs(2);  // K=2, slots 0..2
  cs.current = 0;
  cs.slots = {7, 8, 9};
  EXPECT_EQ(cs.slot_for_trailing(0), 1);
  EXPECT_EQ(cs.slot_for_trailing(1), 0);
  // (0 - 1 + 1) = 0; (0 - 2 + 1) = -1 -> 2 would be w=2, but w < K only.
}

TEST(CoinSlots, RoundConsistencyAcrossAdvances) {
  // Invariant tying the two addressings together: after the owner
  // advances once (one round), a reader trailing by w+1 must find the
  // same slot a reader trailing by w found before the advance.
  for (int K = 2; K <= 5; ++K) {
    CoinSlots cs(K);
    for (int fill = 0; fill <= K; ++fill) {
      cs.slots[static_cast<std::size_t>(fill)] = 100 + fill;
    }
    for (int rounds = 0; rounds < 10; ++rounds) {
      for (int w = 0; w + 1 < K; ++w) {
        CoinSlots after = cs;
        after.advance();
        EXPECT_EQ(cs.slot_for_trailing(w), after.slot_for_trailing(w + 1))
            << "K=" << K << " rounds=" << rounds << " w=" << w;
      }
      cs.advance();
    }
  }
}

TEST(CoinSlots, EqualityComparesPointerAndSlots) {
  CoinSlots a(2);
  CoinSlots b(2);
  EXPECT_EQ(a, b);
  b.next_slot() = 1;
  EXPECT_FALSE(a == b);
  b.next_slot() = 0;
  b.advance();
  EXPECT_FALSE(a == b);
}

TEST(CoinSlotsDeath, TrailingDistanceMustBeUnderK) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const CoinSlots cs(2);
  EXPECT_DEATH((void)cs.slot_for_trailing(2), "trailing");
  EXPECT_DEATH((void)cs.slot_for_trailing(-1), "trailing");
}

}  // namespace
}  // namespace bprc
