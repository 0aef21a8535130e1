// Abrahamson-style local-coin consensus — the exponential baseline [A88].
//
// The first randomized consensus from plain read/write registers used only
// *local* coin flips: a process re-randomizes its preference until some
// snapshot shows unanimity. Expected convergence requires n independent
// coins to coincide, so against a lockstep scheduler the expected number
// of phases is 2^Θ(n) — the exponential running time the paper's shared
// coin eliminates. Experiment E7's crossover is this protocol against
// BPRC.
//
// Simplification note (DESIGN.md §5): Abrahamson's full protocol layers an
// unbounded-timestamp locking mechanism over this core to obtain
// consistency with non-snapshot reads; since our substrate provides
// snapshot scans, unanimity-in-one-snapshot plus write-before-first-scan
// already yields consistency (scans are serializable, and a decided
// process's register freezes at its decision value, so two snapshots can
// never both be unanimous for different values). The exponential step
// complexity — the property the comparison is about — is unchanged.
//
// One protocol for both register lanes: LocalCoinConsensus runs on the
// simulator's ScannableMemory; the native `consensus` case
// (fault/native.cpp) runs the same template on NativeScannableMemory.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "consensus/protocol.hpp"
#include "registers/native/native_scannable.hpp"
#include "runtime/runtime.hpp"
#include "snapshot/scannable_memory.hpp"
#include "util/assert.hpp"
#include "util/latch_max.hpp"

namespace bprc {

struct LocalCoinRecord {
  std::int8_t pref = kUnwritten;
  /// Re-randomization count: instrumentation of the unbounded timestamp
  /// the full A88 protocol would store here.
  std::int64_t version = 0;

  friend bool operator==(const LocalCoinRecord& a, const LocalCoinRecord& b) {
    return a.pref == b.pref && a.version == b.version;
  }
};

/// Native payload (version << 2) | pref, pref ∈ {0, 1, ⊥=2, unwritten=3}.
/// The version is clamped to the 22 bits left (budgets cap runs far below).
template <>
struct NativePayload<LocalCoinRecord> {
  static constexpr std::int64_t kMaxVersion = (std::int64_t{1} << 22) - 1;
  static std::uint64_t pack(const LocalCoinRecord& rec) {
    return static_cast<std::uint64_t>(std::min(rec.version, kMaxVersion))
               << 2 |
           static_cast<std::uint64_t>(rec.pref & 3);
  }
  static LocalCoinRecord unpack(std::uint64_t payload) {
    return {static_cast<std::int8_t>(payload & 3),
            static_cast<std::int64_t>(payload >> 2)};
  }
};

template <class Memory>
class BasicLocalCoinConsensus final : public ConsensusProtocol {
 public:
  explicit BasicLocalCoinConsensus(Runtime& rt)
      : rt_(rt),
        mem_(rt, LocalCoinRecord{}),
        decisions_(static_cast<std::size_t>(rt.nprocs()), -1),
        decision_rounds_(static_cast<std::size_t>(rt.nprocs()), 0) {}

  int propose(int input) override {
    BPRC_REQUIRE(input == 0 || input == 1, "input must be a bit");
    const ProcId me = rt_.self();
    const int n = rt_.nprocs();

    LocalCoinRecord rec;
    rec.pref = static_cast<std::int8_t>(input);
    rec.version = 1;

    auto publish = [&](bool decided) {
      Hint hint;
      hint.round = static_cast<std::int32_t>(
          std::min<std::int64_t>(rec.version, INT32_MAX));
      hint.pref = rec.pref;
      hint.decided = decided;
      rt_.publish_hint(hint);
    };

    // Write before the first scan — consistency depends on it (see top).
    publish(false);
    mem_.write(rec);

    std::vector<LocalCoinRecord> view;
    while (true) {
      mem_.scan_into(view);

      bool unanimous = true;
      for (int j = 0; j < n && unanimous; ++j) {
        if (j == me) continue;
        const std::int8_t p = view[static_cast<std::size_t>(j)].pref;
        if (p == kUnwritten) continue;  // j has not joined yet
        if (p != rec.pref) unanimous = false;
      }
      if (unanimous) {
        decisions_[static_cast<std::size_t>(me)] = rec.pref;
        decision_rounds_[static_cast<std::size_t>(me)] = rec.version;
        publish(true);
        latch_max(max_version_, rec.version);
        return rec.pref;
      }

      // Disagreement: re-randomize the preference with a local coin.
      rec.pref = rt_.rng().flip() ? kPref1 : kPref0;
      rec.version += 1;
      publish(false);
      mem_.write(rec);
      latch_max(max_version_, rec.version);
    }
  }

  std::string name() const override { return "local-coin"; }
  int decision(ProcId p) const override {
    return decisions_[static_cast<std::size_t>(p)];
  }
  std::int64_t decision_round(ProcId p) const override {
    return decision_rounds_[static_cast<std::size_t>(p)];
  }
  MemoryFootprint footprint() const override {
    MemoryFootprint f;  // not bounded: A88 stores unbounded timestamps
    f.max_round_stored = max_version_.load(std::memory_order_relaxed);
    return f;
  }

 private:
  Runtime& rt_;
  Memory mem_;
  std::vector<std::int8_t> decisions_;
  std::vector<std::int64_t> decision_rounds_;
  std::atomic<std::int64_t> max_version_{0};
};

/// The simulated instance the registry, campaigns and the explorer run.
using LocalCoinConsensus =
    BasicLocalCoinConsensus<ScannableMemory<LocalCoinRecord>>;

}  // namespace bprc
