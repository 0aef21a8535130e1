// Aspnes–Herlihy-style polynomial consensus with UNBOUNDED memory [AH88].
//
// The direct comparator the paper improves on: the same round/leader/
// shared-coin skeleton, but with explicit, unbounded round numbers in
// every register and an unbounded strip of per-round walk counters (one
// fresh counter location per process per round, never withdrawn,
// individually unbounded). Polynomial expected time — and register
// contents that grow with the execution, which is exactly what experiment
// E6 measures against BPRC's hard bounds.
//
// Faithfulness note (DESIGN.md §5): "unbounded" integers are 64-bit here;
// what the experiments report is their *growth*, which 64 bits never
// saturates in feasible runs. The per-round counter strip is a list in
// each process's record that only ever grows — an honest rendition of a
// register whose value domain grows without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "coin/coin_logic.hpp"
#include "consensus/protocol.hpp"
#include "runtime/runtime.hpp"
#include "snapshot/scannable_memory.hpp"
#include "util/small_vector.hpp"

namespace bprc {

/// This process's walk counter for one round's shared coin.
struct AHRoundCoin {
  std::int64_t round = 0;
  std::int64_t counter = 0;

  friend bool operator==(const AHRoundCoin&, const AHRoundCoin&) = default;
};

struct AHRecord {
  std::int8_t pref = kUnwritten;
  std::int64_t round = 0;
  /// One entry per round this process flipped in, sorted by round. Grows
  /// monotonically: nothing is ever withdrawn (the unboundedness). Rounds
  /// only grow, so a new entry is always appended; past the inline
  /// capacity the list spills to a heap block that copies reuse.
  SmallVector<AHRoundCoin, 4> coins;

  /// This process's counter for `round`'s coin; 0 if it never flipped it.
  std::int64_t coin(std::int64_t round) const;

  friend bool operator==(const AHRecord& a, const AHRecord& b) {
    return a.pref == b.pref && a.round == b.round && a.coins == b.coins;
  }
};

class AspnesHerlihyConsensus final : public ConsensusProtocol {
 public:
  /// Reuses CoinParams for the walk barrier b (m is ignored: counters are
  /// unbounded). `trail` is the decide distance (2, matching BPRC's K=2).
  AspnesHerlihyConsensus(Runtime& rt, CoinParams coin, int trail = 2);

  int propose(int input) override;
  std::string name() const override { return "aspnes-herlihy"; }
  int decision(ProcId p) const override;
  std::int64_t decision_round(ProcId p) const override;
  MemoryFootprint footprint() const override;

  std::uint64_t total_flips() const {
    return flips_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_scans() const {
    return scans_.load(std::memory_order_relaxed);
  }

 private:
  void track(const AHRecord& rec);

  Runtime& rt_;
  CoinParams coin_;
  int trail_;
  ScannableMemory<AHRecord> mem_;
  std::vector<std::int8_t> decisions_;
  std::vector<std::int64_t> decision_rounds_;
  std::atomic<std::uint64_t> flips_{0};
  std::atomic<std::uint64_t> scans_{0};
  std::atomic<std::int64_t> max_round_{0};
  std::atomic<std::int64_t> max_counter_{0};
  std::atomic<std::int64_t> coin_locations_{0};
};

}  // namespace bprc
