// Unbounded-counter weak shared coin — the Aspnes–Herlihy comparator.
//
// Identical random walk, but counters are unbounded (no overflow rule):
// this is the coin of [AH88], whose per-round counter registers grow
// without bound. Two uses:
//   * experiment E6 measures its counter high-water marks against the
//     bounded coin's hard ±(m+1) ceiling;
//   * experiment E4 uses it as the oracle arm when quantifying how often
//     the bounded coin's overflow rule changes an outcome.
#pragma once

#include <atomic>
#include <cstdint>

#include "coin/coin_logic.hpp"
#include "runtime/runtime.hpp"
#include "snapshot/scannable_memory.hpp"
#include "util/assert.hpp"
#include "util/latch_max.hpp"

namespace bprc {

class UnboundedCoin {
 public:
  /// Only `params.b` and `params.n` are used; `params.m` is ignored
  /// (conceptually infinite).
  UnboundedCoin(Runtime& rt, CoinParams params)
      : rt_(rt), params_(params), counters_(rt, std::int64_t{0}) {
    BPRC_REQUIRE(params.n == rt.nprocs(),
                 "coin params sized for a different process count");
  }

  CoinValue toss() {
    const ProcId me = rt_.self();
    std::int64_t own = 0;
    std::vector<std::int64_t> view;  // reused by every scan
    const std::int64_t barrier =
        static_cast<std::int64_t>(params_.b) * params_.n;
    while (true) {
      counters_.scan_into(view);
      view[static_cast<std::size_t>(me)] = own;
      std::int64_t walk = 0;
      for (const std::int64_t c : view) walk += c;
      if (walk > barrier) return CoinValue::kHeads;
      if (walk < -barrier) return CoinValue::kTails;
      const bool flip = rt_.rng().flip();
      Hint hint;
      hint.walk_delta = flip ? 1 : -1;
      hint.counter = own;
      rt_.publish_hint(hint);
      own += flip ? 1 : -1;
      counters_.write(own, /*payload=*/flip ? 1 : -1);
      hint.walk_delta = 0;
      hint.counter = own;
      rt_.publish_hint(hint);
      walk_steps_.fetch_add(1, std::memory_order_relaxed);
      latch_max(max_magnitude_, own < 0 ? -own : own);
    }
  }

  std::uint64_t walk_steps() const {
    return walk_steps_.load(std::memory_order_relaxed);
  }

  /// The unbounded quantity: largest |counter| ever written.
  std::int64_t max_counter_magnitude() const {
    return max_magnitude_.load(std::memory_order_relaxed);
  }

 private:
  Runtime& rt_;
  CoinParams params_;
  ScannableMemory<std::int64_t> counters_;
  std::atomic<std::uint64_t> walk_steps_{0};
  std::atomic<std::int64_t> max_magnitude_{0};
};

}  // namespace bprc
