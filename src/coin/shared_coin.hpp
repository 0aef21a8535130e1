// Standalone bounded weak shared coin (Section 3).
//
// n processes each call toss() once; every toss returns heads or tails in
// finite expected time (Lemma 3.2: O((b+1)²·n²) walk steps), and with
// probability ≥ (b-1)/2b per side *all* processes return the same value,
// even against an adversary that sees each local flip before allowing the
// counter write (Lemma 3.1). The counters live in a scannable memory so
// each coin_value evaluation uses a consistent snapshot, as the paper
// requires of the random walk.
//
// This standalone object backs the coin experiments (E2–E4); the consensus
// protocol embeds the identical logic per round through the coin slots of
// Section 5.
#pragma once

#include <atomic>
#include <cstdint>

#include "coin/coin_logic.hpp"
#include "runtime/runtime.hpp"
#include "snapshot/scannable_memory.hpp"
#include "util/assert.hpp"
#include "util/latch_max.hpp"

namespace bprc {

class SharedCoin {
 public:
  SharedCoin(Runtime& rt, CoinParams params)
      : rt_(rt), params_(params), counters_(rt, std::int64_t{0}) {
    BPRC_REQUIRE(params.n == rt.nprocs(),
                 "coin params sized for a different process count");
  }

  /// Executes the full per-process coin protocol: alternate snapshot scans
  /// of the counters with local-flip walk steps until rule 1–3 of
  /// coin_value fires. Never returns kUndecided.
  CoinValue toss() {
    const ProcId me = rt_.self();
    std::int64_t own = 0;
    std::vector<std::int64_t> view;  // reused by every scan
    while (true) {
      counters_.scan_into(view);
      view[static_cast<std::size_t>(me)] = own;  // own slot is local truth
      const CoinValue v = coin_value(view, me, params_);
      if (v != CoinValue::kUndecided) {
        if (own < -params_.m || own > params_.m) {
          overflows_.fetch_add(1, std::memory_order_relaxed);
        }
        return v;
      }
      const bool flip = rt_.rng().flip();
      // Publish the flip outcome before the write: the strong adversary
      // has seen the local coin and may now delay this process.
      Hint hint;
      hint.walk_delta = flip ? 1 : -1;
      hint.counter = own;
      rt_.publish_hint(hint);
      own = walk_step(own, flip, params_);
      counters_.write(own, /*payload=*/flip ? 1 : -1);
      hint.walk_delta = 0;
      hint.counter = own;
      rt_.publish_hint(hint);
      walk_steps_.fetch_add(1, std::memory_order_relaxed);
      latch_max(max_magnitude_, own < 0 ? -own : own);
    }
  }

  const CoinParams& params() const { return params_; }

  /// Total counter increments across all processes (the step unit of
  /// Lemma 3.2).
  std::uint64_t walk_steps() const {
    return walk_steps_.load(std::memory_order_relaxed);
  }

  /// How many tosses ended through the deterministic overflow rule
  /// (the rare event of Lemmas 3.3/3.4).
  std::uint64_t overflows() const {
    return overflows_.load(std::memory_order_relaxed);
  }

  /// Largest |counter| any process ever wrote — must stay ≤ m+1 by
  /// construction (asserted by tests).
  std::int64_t max_counter_magnitude() const {
    return max_magnitude_.load(std::memory_order_relaxed);
  }

 private:
  Runtime& rt_;
  CoinParams params_;
  ScannableMemory<std::int64_t> counters_;
  std::atomic<std::uint64_t> walk_steps_{0};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::int64_t> max_magnitude_{0};
};

}  // namespace bprc
