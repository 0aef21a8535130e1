// Sticky bits — the other universal primitive the paper's introduction
// names: "...novel universal synchronization primitives, such as the
// fetch and cons of [H88], or the sticky bits of [P89]."
//
// A sticky bit (Plotkin 1989) is a write-once object: initially ⊥; the
// first jam() to linearize sticks forever; every jam() returns the stuck
// value (not necessarily the caller's), and read() returns ⊥ until some
// stuck value is visible. Sticky bits have consensus number ∞, and with
// randomized consensus underneath they exist wait-free on plain bounded
// read/write registers — the paper's point.
//
// Implementation: one binary consensus instance arbitrates the sticky
// value; a scannable results board makes the outcome visible to pure
// readers (who never propose). StickyRegister generalizes to a
// `value_bits`-wide write-once word via multi-valued consensus.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "consensus/driver.hpp"
#include "consensus/multivalue.hpp"
#include "runtime/runtime.hpp"
#include "snapshot/scannable_memory.hpp"
#include "util/assert.hpp"

namespace bprc {

class StickyBit {
 public:
  StickyBit(Runtime& rt, const ProtocolFactory& factory)
      : rt_(rt), board_(rt, std::int8_t{-1}), bit_(factory(rt)) {}

  /// Attempts to stick `v` (0 or 1); returns the value the bit actually
  /// stuck to. Idempotent per process (later calls return the cached
  /// outcome; the underlying consensus is proposed to at most once).
  int jam(int v) {
    BPRC_REQUIRE(v == 0 || v == 1, "sticky bit takes a bit");
    const ProcId me = rt_.self();
    auto& cache = outcome_[static_cast<std::size_t>(me)];
    if (!cache.has_value()) {
      cache = bit_->propose(v);
      // Publish so that pure readers see the stuck value.
      board_.write(static_cast<std::int8_t>(*cache));
    }
    return *cache;
  }

  /// Returns the stuck value if any jam's publication is visible, ⊥
  /// (nullopt) otherwise. Never proposes — safe for processes that must
  /// not participate in the arbitration.
  std::optional<int> read() {
    for (const auto& e : board_.scan()) {
      if (e.value >= 0) return static_cast<int>(e.value);
    }
    return std::nullopt;
  }

 private:
  Runtime& rt_;
  ScannableMemory<std::int8_t> board_;
  std::unique_ptr<ConsensusProtocol> bit_;
  /// Per-process jam outcome cache (local, indexed by ProcId).
  std::array<std::optional<int>, 64> outcome_;
};

/// Write-once word: first jam() sticks a `value_bits`-wide value.
class StickyRegister {
 public:
  StickyRegister(Runtime& rt, int value_bits, const ProtocolFactory& factory)
      : rt_(rt),
        board_(rt, Slot{}),
        word_(std::make_unique<MultiValueConsensus>(rt, value_bits, factory)) {
  }

  std::uint64_t jam(std::uint64_t v) {
    const ProcId me = rt_.self();
    auto& cache = outcome_[static_cast<std::size_t>(me)];
    if (!cache.has_value()) {
      cache = word_->propose(v);
      board_.write(Slot{true, *cache});
    }
    return *cache;
  }

  std::optional<std::uint64_t> read() {
    for (const auto& e : board_.scan()) {
      if (e.value.stuck) return e.value.value;
    }
    return std::nullopt;
  }

 private:
  struct Slot {
    bool stuck = false;
    std::uint64_t value = 0;

    friend bool operator==(const Slot& a, const Slot& b) {
      return a.stuck == b.stuck && a.value == b.value;
    }
  };

  Runtime& rt_;
  ScannableMemory<Slot> board_;
  std::unique_ptr<MultiValueConsensus> word_;
  std::array<std::optional<std::uint64_t>, 64> outcome_;
};

}  // namespace bprc
