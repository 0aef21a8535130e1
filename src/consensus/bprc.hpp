// Bounded Polynomial Randomized Consensus — the paper's algorithm (§5).
//
// Each process's register (one slot of a scannable memory) holds
//
//     { pref ∈ {0,1,⊥},  coin slots (K+1 bounded counters + pointer),
//       edge counters e_i[1..n] ∈ {0..3K-1} }
//
// — every field drawn from a domain bounded by a function of n alone.
// There is no round number anywhere in shared memory: the edge counters
// encode the K-capped *differences* between round numbers (§4), and the
// coin slots hold contributions to the K+1 most recent shared coins (§5),
// older contributions being withdrawn as the strip "shrinks" past them.
//
// Main loop (the paper's lines 1-8, with the OCR reconstruction decisions
// recorded in DESIGN.md §4):
//
//   1  scan
//   2  if pref ≠ ⊥, I am a leader, and every process that disagrees with
//      me trails by K                          → decide(pref)
//   3  elseif all leaders share a preference v ≠ ⊥
//   4                                          → pref := v;  inc
//   5  elseif pref ≠ ⊥
//   6                                          → pref := ⊥   (round kept)
//   7  elseif next_coin_value = undecided      → flip_next_coin
//   8  else                                    → pref := coin value;  inc
//
// where `inc` advances the coin-slot pointer (zeroing the recycled slot)
// and applies the guarded edge-counter increments of §4.3, and
// `next_coin_value` evaluates the §3 coin over the contributions of every
// process ahead of or tied with this one by < K rounds (processes further
// ahead have withdrawn; processes behind have not flipped yet and read
// as 0).
//
// Expected O(1) rounds against any strong adversary (disagreement per
// round ≤ 1/b + overflow noise, §6.3), polynomial total steps, and
// tolerance of up to n-1 crash failures (wait-freedom).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "coin/coin_logic.hpp"
#include "consensus/protocol.hpp"
#include "runtime/runtime.hpp"
#include "snapshot/scannable_memory.hpp"
#include "strip/coin_slots.hpp"
#include "strip/distance_graph.hpp"
#include "strip/edge_counters.hpp"
#include "util/space_budget.hpp"

namespace bprc {

struct BPRCParams {
  int n = 0;
  int K = 2;          ///< the strip constant; the paper fixes K = 2
  CoinParams coin;    ///< per-round shared-coin parameters (b, m)
  SpaceBudget space;  ///< the declared budget (K and b mirrored above)

  static BPRCParams standard(int n, int K = 2, int b = 4) {
    SpaceBudget s;
    s.K = K;
    s.slots = K + 1;
    s.b = b;
    return BPRCParams{n, K, CoinParams::standard(n, b), s};
  }

  /// The SpaceBudget path: every constant drawn from the budget. An
  /// under-provisioned budget is accepted — the protocol runs on a safe
  /// physical layout and latches the declared deficit (see the demand
  /// latch in bprc.cpp) so it surfaces as kBoundedMemory, not as junk.
  static BPRCParams from_budget(int n, const SpaceBudget& s) {
    BPRC_REQUIRE(s.validate(), "invalid space budget");
    return BPRCParams{n, s.K, CoinParams::standard(n, s.b, s.m_scale), s};
  }
};

/// The register record of one process. All fields bounded in n, and at
/// the usual sizes (n <= 16, <= 8 coin slots) all of them inline: a
/// register read or write copies one fixed-size value, heap untouched.
struct BPRCRecord {
  std::int8_t pref = kUnwritten;
  CoinSlots coins;
  EdgeCounters edges;

  friend bool operator==(const BPRCRecord& a, const BPRCRecord& b) {
    return a.pref == b.pref && a.coins == b.coins && a.edges == b.edges;
  }
};

class BPRCConsensus final : public ConsensusProtocol {
 public:
  using ArrowImpl = ScannableMemory<BPRCRecord>::ArrowImpl;

  BPRCConsensus(Runtime& rt, BPRCParams params,
                ArrowImpl arrows = ArrowImpl::kNative);

  int propose(int input) override;
  std::string name() const override { return "bprc"; }
  int decision(ProcId p) const override;
  std::int64_t decision_round(ProcId p) const override;
  MemoryFootprint footprint() const override;

  const BPRCParams& params() const { return params_; }

  /// Walk steps (local coin flips) performed across all processes.
  std::uint64_t total_flips() const {
    return flips_.load(std::memory_order_relaxed);
  }
  /// Scans performed across all processes.
  std::uint64_t total_scans() const {
    return scans_.load(std::memory_order_relaxed);
  }
  /// Largest local round any process reached (not stored in shared
  /// memory; tracked locally for the experiments).
  std::int64_t max_round_reached() const {
    return max_round_.load(std::memory_order_relaxed);
  }

 private:
  /// One proposer's scan result plus its scratch buffers, reused across
  /// the proposer's iterations so a step allocates nothing.
  struct View {
    std::vector<BPRCRecord> recs;
    DistanceGraph graph;
    std::vector<int> dists;             ///< inc_counters scratch
    std::vector<std::int64_t> counters;  ///< next_coin_value scratch (n)
  };

  void scan_view(View& view);
  bool all_disagree_trail_K(ProcId me, std::int8_t pref,
                            const View& view) const;
  std::optional<std::int8_t> leaders_agreement(const View& view) const;
  CoinValue next_coin_value(ProcId me, const BPRCRecord& mine,
                            View& view) const;
  void do_inc(ProcId me, BPRCRecord& rec, const DistanceGraph& graph,
              std::vector<int>& dists);
  void publish(ProcId me, const BPRCRecord& rec, std::int64_t round,
               int walk_delta, bool decided);

  Runtime& rt_;
  BPRCParams params_;
  /// Physical layout the instance actually runs on. Equal to the
  /// declared budget when it is sufficient; clamped up to the paper's
  /// 3K-cycle / K+1-slot layout when the budget under-provisions, in
  /// which case the demand latches below record every access the
  /// declared budget could not have served (footprint() turns a latched
  /// deficit into a kBoundedMemory verdict).
  int cycle_phys_ = 0;
  int slots_phys_ = 0;
  bool cycle_deficient_ = false;  ///< declared cycle < 2K+1
  bool slots_deficient_ = false;  ///< declared slots < K+1
  ScannableMemory<BPRCRecord> mem_;
  std::vector<std::int8_t> decisions_;        ///< per-process; -1 until decided
  std::vector<std::int64_t> decision_rounds_;
  std::atomic<std::uint64_t> flips_{0};
  std::atomic<std::uint64_t> scans_{0};
  std::atomic<std::int64_t> max_round_{0};
  std::atomic<std::int64_t> max_counter_{0};
  /// Demand latches for under-provisioned budgets: the largest edge-cycle
  /// cell count / coin-slot count some access actually needed. Stay 0
  /// while the declared budget covers every access. Mutable because
  /// next_coin_value (logically const) latches slot demand.
  mutable std::atomic<std::int64_t> cycle_demand_{0};
  mutable std::atomic<std::int64_t> slot_demand_{0};
};

}  // namespace bprc
