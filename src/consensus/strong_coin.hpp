// Consensus with an atomic shared coin-flip primitive — the CIL87 arm.
//
// Chor–Israeli–Li assumed hardware with a *powerful atomic coin flip*: an
// object every process can invoke such that all invocations for the same
// phase return one uniformly random bit. With that primitive, one flip
// replaces the entire O(n²)-step random-walk shared coin and per-phase
// disagreement vanishes; consensus finishes in a constant expected number
// of rounds with trivial constants. This arm exists to quantify, in
// experiment E7, what the strong primitive buys — i.e. the gap the paper
// closes using only read/write registers.
//
// The AtomicCoinFlip object is intentionally OUTSIDE the read/write model:
// it is provided natively by the runtime (one checkpoint per flip, like
// any primitive), not built from registers — that impossibility is the
// whole point of the line of work.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "consensus/protocol.hpp"
#include "runtime/runtime.hpp"
#include "snapshot/scannable_memory.hpp"
#include "util/rng.hpp"

namespace bprc {

/// The strong primitive: flip(phase) returns one shared uniformly random
/// bit per phase, identical for all callers. Linearizable by construction
/// (first caller of a phase draws the bit).
class AtomicCoinFlip {
 public:
  AtomicCoinFlip(Runtime& rt, std::uint64_t seed)
      : rt_(rt),
        sink_(rt.trace_sink()),
        trace_id_(sink_ != nullptr ? sink_->on_object_created() : -1),
        rng_(seed) {}

  bool flip(std::int64_t phase) {
    rt_.checkpoint({OpDesc::Kind::kRead, /*object=*/-2, phase});
    const std::scoped_lock lock(mu_);
    auto [it, inserted] = bits_.try_emplace(phase, false);
    if (inserted) it->second = rng_.flip();
    if (sink_ != nullptr && sink_->listening()) {
      // Outside the read/write model, so report via the generic event
      // hook: the digest pins (phase, bit) and the first caller of a
      // phase mutates the shared phase→bit map.
      sink_->on_event(
          rt_.self(), trace_id_,
          (static_cast<std::uint64_t>(phase) << 1) |
              static_cast<std::uint64_t>(it->second),
          inserted);
    }
    return it->second;
  }

  std::size_t phases_used() const {
    const std::scoped_lock lock(mu_);
    return bits_.size();
  }

 private:
  Runtime& rt_;
  TraceSink* const sink_;  ///< cached Runtime::trace_sink(); usually null
  const int trace_id_;
  mutable std::mutex mu_;
  Rng rng_;
  std::map<std::int64_t, bool> bits_;
};

struct StrongCoinRecord {
  std::int8_t pref = kUnwritten;
  std::int64_t round = 0;

  friend bool operator==(const StrongCoinRecord& a,
                         const StrongCoinRecord& b) {
    return a.pref == b.pref && a.round == b.round;
  }
};

class StrongCoinConsensus final : public ConsensusProtocol {
 public:
  StrongCoinConsensus(Runtime& rt, std::uint64_t coin_seed, int trail = 2);

  int propose(int input) override;
  std::string name() const override { return "strong-coin"; }
  int decision(ProcId p) const override;
  std::int64_t decision_round(ProcId p) const override;
  MemoryFootprint footprint() const override;

 private:
  Runtime& rt_;
  int trail_;
  ScannableMemory<StrongCoinRecord> mem_;
  AtomicCoinFlip coin_;
  std::vector<std::int8_t> decisions_;
  std::vector<std::int64_t> decision_rounds_;
  std::atomic<std::int64_t> max_round_{0};
};

}  // namespace bprc
