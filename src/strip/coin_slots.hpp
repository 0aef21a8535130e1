// The per-process circular array of coin counters (§5).
//
// Observation 1(2): a process that advances K rounds past another may
// withdraw its contribution to the older coin without affecting the
// algorithm. Each process therefore keeps only K+1 bounded walk counters
// in its register, addressed circularly:
//
//   slot `current` holds the process's contribution to the coin of its
//   current round r; slot next(current) the one for round r+1 (flipped
//   while still in round r — see flip_next_coin); slot current−d the one
//   for round r−d, for d < K.
//
// On inc (round r → r+1): current advances, and the slot that now becomes
// "next" (the K+1-rounds-old one) is zeroed — that is the withdrawal.
//
// A process j that leads a trailing process i by w < K holds i's needed
// round-(r_i+1) contribution in slot (current_j − w + 1) mod (K+1); at
// w = K the slot is one inc away from being recycled, so the reader
// treats the contribution as withdrawn (reads 0), exactly the guard in
// the paper's next_coin_value.
#pragma once

#include <cstdint>

#include "util/assert.hpp"
#include "util/small_vector.hpp"

namespace bprc {

struct CoinSlots {
  /// Inline ring capacity: the paper's K+1 = 3 slots and every in-repo
  /// budget (at most 5) fit; larger SpaceBudget rings spill to the heap.
  static constexpr std::size_t kInlineSlots = 8;
  using Slots = SmallVector<std::int64_t, kInlineSlots>;

  int current = 0;  ///< current_coin pointer ∈ {0..K}
  Slots slots;      ///< K+1 bounded walk counters

  CoinSlots() = default;
  explicit CoinSlots(int K)
      : slots(static_cast<std::size_t>(K) + 1, 0) {
    BPRC_REQUIRE(K >= 1, "coin slots need K >= 1");
  }

  /// A ring with an explicit slot count — the SpaceBudget path. Extra
  /// slots beyond K+1 just keep withdrawn contributions around longer
  /// (they are zeroed on reuse, never read); fewer than K+1 cannot serve
  /// every trailing distance, which consensus/bprc.cpp surfaces as a
  /// bounded-memory demand latch rather than by shrinking the ring.
  static CoinSlots with_slot_count(int nslots) {
    BPRC_REQUIRE(nslots >= 2, "coin slots need at least 2 slots");
    CoinSlots cs;
    cs.slots.assign(static_cast<std::size_t>(nslots), 0);
    return cs;
  }

  int K() const { return static_cast<int>(slots.size()) - 1; }

  /// §5 `next(current_coin)`.
  int next_index() const { return current == K() ? 0 : current + 1; }

  /// Contribution to the coin of the owner's round r+1 (the one being
  /// flipped while the owner sits in round r).
  std::int64_t& next_slot() {
    return slots[static_cast<std::size_t>(next_index())];
  }
  std::int64_t next_slot() const {
    return slots[static_cast<std::size_t>(next_index())];
  }

  /// Slot index holding this owner's contribution to the round that a
  /// process trailing by `w` (0 ≤ w < K) is about to enter — the paper's
  /// (current_coin_j − w(j,i) + 1) mod (K+1).
  int slot_for_trailing(int w) const {
    BPRC_REQUIRE(w >= 0 && w < K(), "trailing distance must be in [0, K)");
    const int slot = current - w + 1;  // ∈ [2−K, K+1] for current ∈ {0..K}
    if (slot < 0) return slot + K() + 1;
    return slot > K() ? slot - K() - 1 : slot;
  }

  std::int64_t read_for_trailing(int w) const {
    return slots[static_cast<std::size_t>(slot_for_trailing(w))];
  }

  /// §5 `inc` (coin part): advance the pointer and zero the slot that
  /// becomes the new "next" — withdrawing the K+1-rounds-old
  /// contribution.
  void advance() {
    current = next_index();
    slots[static_cast<std::size_t>(next_index())] = 0;
  }

  friend bool operator==(const CoinSlots& a, const CoinSlots& b) {
    return a.current == b.current && a.slots == b.slots;
  }
};

}  // namespace bprc
