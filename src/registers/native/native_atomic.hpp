// The primitive of the native-atomics lane: one shared 64-bit word on
// std::atomic, carrying a version-stamped payload.
//
//   word = (version << 24) | payload        payload: low 24 bits
//
// The version is the write's position in the location's modification
// order, incremented on every store. It exists for the *verification
// harness*, not the algorithm: a load unpacks (version, payload) from one
// atomic word, so the recorded reads-from (rf) and modification-order
// (mo) hints are exact — no inference pass, no ambiguity between writes
// of equal payload. Algorithm code only ever compares versions for
// equality (the role the paper's bounded toggle bit plays in §2.2); it
// never branches on their magnitude, so the unbounded counter is
// recording apparatus, not a cheat of the paper's boundedness claim —
// the *payloads* stay bounded.
//
// Three access families, matching how the paper's objects use registers:
//   store_swmr — single-writer store; the owner's local shadow version
//                makes the increment race-free, so a plain store with the
//                chosen order suffices (this is the paper's SWMR V_i);
//   load       — any reader, chosen order, recorded with exact rf;
//   rmw_store / rmw_add — multi-writer update via a CAS loop, recorded
//                honestly as an RMW (used for arrows, counters, strips).
//
// Every operation checkpoints first (step accounting, budget, yield
// jitter), then performs exactly one atomic primitive, then reports to
// the cached MemActionSink — a single null check when recording is off.
//
// docs/MEMORY_ORDERS.md states the required order for every call site
// and the reordering argument behind it.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "runtime/runtime.hpp"
#include "util/assert.hpp"

namespace bprc {

class NativeLoc {
 public:
  static constexpr unsigned kPayloadBits = 24;
  static constexpr std::uint64_t kPayloadMask =
      (std::uint64_t{1} << kPayloadBits) - 1;

  static constexpr std::uint64_t pack(std::uint64_t version,
                                      std::uint64_t payload) {
    return (version << kPayloadBits) | (payload & kPayloadMask);
  }
  static constexpr std::uint64_t payload_of(std::uint64_t word) {
    return word & kPayloadMask;
  }
  static constexpr std::uint64_t version_of(std::uint64_t word) {
    return word >> kPayloadBits;
  }

  NativeLoc(Runtime& rt, const char* name, std::uint64_t initial,
            int object_id = -1)
      : rt_(rt),
        sink_(rt.mem_sink()),
        object_(object_id),
        word_(pack(0, initial)) {
    BPRC_REQUIRE(initial <= kPayloadMask, "initial payload exceeds 24 bits");
    // Native registers report no TraceSink traffic: an explorer driving
    // one would fingerprint nothing and merge distinct states.
    BPRC_REQUIRE(rt.trace_sink() == nullptr,
                 "native registers do not feed a TraceSink");
    if (sink_ != nullptr) loc_ = sink_->on_location(name, initial);
  }

  NativeLoc(const NativeLoc&) = delete;
  NativeLoc& operator=(const NativeLoc&) = delete;

  /// Single-writer store. Only the owning process may call this; the
  /// owner-local shadow version makes the version increment race-free.
  void store_swmr(std::uint64_t payload, std::memory_order order) {
    BPRC_REQUIRE(payload <= kPayloadMask, "payload exceeds 24 bits");
    rt_.checkpoint({OpDesc::Kind::kWrite, object_,
                    static_cast<std::int64_t>(payload)});
    const std::uint64_t version = ++shadow_version_;
    word_.store(pack(version, payload), order);
    if (sink_ != nullptr) {
      record(MemAction::Kind::kStore, order, payload, /*rf=*/0, version);
    }
  }

  /// Load with the chosen order; returns the full packed word so callers
  /// can compare freshness (version equality) as well as read the payload.
  std::uint64_t load_word(std::memory_order order) {
    rt_.checkpoint({OpDesc::Kind::kRead, object_, 0});
    const std::uint64_t word = word_.load(order);
    if (sink_ != nullptr) {
      record(MemAction::Kind::kLoad, order, payload_of(word),
             version_of(word), /*mo=*/0);
    }
    return word;
  }

  std::uint64_t load(std::memory_order order) {
    return payload_of(load_word(order));
  }

  /// Multi-writer unconditional store, implemented as a CAS loop so the
  /// version increment is atomic with the payload change. Recorded as an
  /// RMW (which it is — claiming it were a plain store would hand the
  /// checker an rf/mo fact the hardware never established). seq_cst: the
  /// lock-prefixed CAS is a full fence, which the Dekker-style
  /// arrow-vs-collect handshake in the scannable memory requires.
  void rmw_store(std::uint64_t payload) {
    rmw([payload](std::uint64_t) { return payload; });
  }

  /// Multi-writer transform: new payload = f(old payload). Returns
  /// (old payload, new payload).
  template <class F>
  std::pair<std::uint64_t, std::uint64_t> rmw(F&& f) {
    rt_.checkpoint({OpDesc::Kind::kWrite, object_, 0});
    std::uint64_t expected = word_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = f(payload_of(expected)) & kPayloadMask;
    } while (!word_.compare_exchange_weak(
        expected, pack(version_of(expected) + 1, next),
        std::memory_order_seq_cst, std::memory_order_relaxed));
    if (sink_ != nullptr) {
      record(MemAction::Kind::kRmw, std::memory_order_seq_cst, next,
             version_of(expected), version_of(expected) + 1);
    }
    return {payload_of(expected), next};
  }

  // --- store-buffer emulation hooks (BrokenRelaxedRegister only) ---

  /// Records a store that has NOT been made globally visible: the entry
  /// enters the caller's program-order log now (mo = 0, "unflushed"), the
  /// shared word is untouched. Returns the log index for the later
  /// patch_mo, or SIZE_MAX when recording is off.
  std::size_t record_buffered_store(std::uint64_t payload) {
    BPRC_REQUIRE(payload <= kPayloadMask, "payload exceeds 24 bits");
    rt_.checkpoint({OpDesc::Kind::kWrite, object_,
                    static_cast<std::int64_t>(payload)});
    std::size_t index = SIZE_MAX;
    if (sink_ != nullptr) {
      MemAction a;
      a.thread = rt_.self();
      a.location = loc_;
      a.kind = MemAction::Kind::kStore;
      a.order = static_cast<std::uint8_t>(std::memory_order_relaxed);
      a.value = payload;
      a.mo = 0;
      index = sink_->on_action(a);
    }
    return index;
  }

  /// Flushes a buffered store: CASes the payload in (assigning the next
  /// version) and backpatches the recorded entry's mo. No checkpoint —
  /// the step was charged when the store was buffered, and drains may run
  /// after the run has joined (outside any process body).
  void flush_buffered(ProcId thread, std::size_t index,
                      std::uint64_t payload) {
    std::uint64_t expected = word_.load(std::memory_order_relaxed);
    while (!word_.compare_exchange_weak(
        expected, pack(version_of(expected) + 1, payload),
        std::memory_order_relaxed, std::memory_order_relaxed)) {
    }
    if (sink_ != nullptr && index != SIZE_MAX) {
      sink_->patch_mo(thread, index, version_of(expected) + 1);
    }
  }

 private:
  void record(MemAction::Kind kind, std::memory_order order,
              std::uint64_t value, std::uint64_t rf, std::uint64_t mo) {
    MemAction a;
    a.thread = rt_.self();
    a.location = loc_;
    a.kind = kind;
    a.order = static_cast<std::uint8_t>(order);
    a.value = value;
    a.rf = rf;
    a.mo = mo;
    sink_->on_action(a);
  }

  Runtime& rt_;
  MemActionSink* sink_;  ///< cached at construction (see MemActionSink)
  int loc_ = -1;
  int object_;
  std::uint64_t shadow_version_ = 0;  ///< owner-local; store_swmr only
  std::atomic<std::uint64_t> word_;
};

}  // namespace bprc
