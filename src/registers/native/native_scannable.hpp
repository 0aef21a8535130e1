// Scannable memory (§2.2) on native atomics: the double-collect scan
// with arrows, running on real threads with the weakest orders the
// algorithm's correctness argument survives.
//
// Layout mirrors src/snapshot/scannable_memory.hpp:
//   * one SWMR value word per process (release store / acquire load);
//     word-version equality between the two collects plays the toggle
//     bit's freshness role;
//   * one arrow word per ordered (scanner i, writer j) pair, i ≠ j,
//     written by both i (reset) and j (raise) — CAS RMWs, whose lock
//     prefix is a full fence. That fence is load-bearing: the scan's
//     correctness is a Dekker-style handshake (writer: raise arrow THEN
//     publish value; scanner: reset arrow THEN collect values THEN read
//     arrows), and on TSO hardware the scanner's reset must drain the
//     store buffer before its collect loads, or the miss case
//     "value collected stale AND arrow observed clear" becomes reachable
//     — a genuine non-SC execution the checker would (correctly) flag.
//     See docs/MEMORY_ORDERS.md for the full table.
//
// Payloads are 24-bit (NativeLoc); records of type T cross them through
// NativePayload<T> (LocalCoinRecord's is in consensus/abrahamson.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "registers/native/native_atomic.hpp"
#include "registers/native/native_registers.hpp"
#include "runtime/runtime.hpp"
#include "util/assert.hpp"

namespace bprc {

/// `static std::uint64_t pack(const T&)` and `static T unpack(payload)`.
template <class T>
struct NativePayload;

template <>
struct NativePayload<std::uint64_t> {
  static std::uint64_t pack(std::uint64_t v) { return v; }
  static std::uint64_t unpack(std::uint64_t payload) { return payload; }
};

template <class T>
class NativeScannableMemory {
 public:
  NativeScannableMemory(Runtime& rt, const T& initial_record)
      : rt_(rt), n_(rt.nprocs()) {
    const std::uint64_t initial = NativePayload<T>::pack(initial_record);
    const auto width = static_cast<std::size_t>(n_);
    scratch_.resize(width);
    last_written_.assign(width, initial);
    values_.reserve(width);
    for (ProcId j = 0; j < n_; ++j) {
      values_.push_back(std::make_unique<NativeSWMR>(
          rt_, j, name("V", j).c_str(), initial, /*object_id=*/j));
    }
    arrows_.resize(width * width);
    for (ProcId i = 0; i < n_; ++i) {
      for (ProcId j = 0; j < n_; ++j) {
        if (i == j) continue;
        arrows_[static_cast<std::size_t>(i * n_ + j)] =
            std::make_unique<NativeStripCell>(
                rt_, 0, name("A", i, j).c_str(), /*object_id=*/n_ + i * n_ + j);
      }
    }
  }

  /// §2.2 `procedure write`: raise every scanner's arrow, then publish.
  void write(const T& v) {
    const ProcId me = rt_.self();
    const std::uint64_t payload = NativePayload<T>::pack(v);
    for (ProcId i = 0; i < n_; ++i) {
      if (i != me) arrow(i, me).write(1);
    }
    values_[static_cast<std::size_t>(me)]->write(payload);
    last_written_[static_cast<std::size_t>(me)] = payload;
  }

  /// §2.2 `function scan`: reset own arrows, double-collect, retry while
  /// any value moved or any arrow was raised. `out` is resized to n; the
  /// caller's slot holds its own most recent write.
  void scan_into(std::vector<T>& out) {
    const ProcId me = rt_.self();
    const auto width = static_cast<std::size_t>(n_);
    Scratch& scratch = scratch_[static_cast<std::size_t>(me)];
    scratch.collect1.resize(width);
    scratch.collect2.resize(width);

    while (true) {
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) arrow(me, j).write(0);
      }
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) {
          scratch.collect1[static_cast<std::size_t>(j)] =
              values_[static_cast<std::size_t>(j)]->read_word();
        }
      }
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) {
          scratch.collect2[static_cast<std::size_t>(j)] =
              values_[static_cast<std::size_t>(j)]->read_word();
        }
      }
      bool dirty = false;
      for (ProcId j = 0; j < n_ && !dirty; ++j) {
        if (j != me && arrow(me, j).read() != 0) dirty = true;
      }
      for (ProcId j = 0; j < n_ && !dirty; ++j) {
        // Version equality ⟺ no write landed between the collects.
        if (j != me && scratch.collect1[static_cast<std::size_t>(j)] !=
                           scratch.collect2[static_cast<std::size_t>(j)]) {
          dirty = true;
        }
      }
      if (!dirty) break;
      retries_.fetch_add(1, std::memory_order_relaxed);
    }

    out.resize(width);
    for (ProcId j = 0; j < n_; ++j) {
      out[static_cast<std::size_t>(j)] = NativePayload<T>::unpack(
          j == me ? last_written_[static_cast<std::size_t>(me)]
                  : NativeLoc::payload_of(
                        scratch.collect2[static_cast<std::size_t>(j)]));
    }
  }

  std::uint64_t scan_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  struct Scratch {
    std::vector<std::uint64_t> collect1;  ///< packed words, not payloads
    std::vector<std::uint64_t> collect2;
  };

  static std::string name(const char* prefix, ProcId a, ProcId b = -1) {
    std::string s = prefix;
    s += std::to_string(a);
    if (b >= 0) {
      s += "_";
      s += std::to_string(b);
    }
    return s;
  }

  NativeStripCell& arrow(ProcId i, ProcId j) {
    return *arrows_[static_cast<std::size_t>(i * n_ + j)];
  }

  Runtime& rt_;
  int n_;
  std::vector<std::uint64_t> last_written_;  ///< per-writer payload shadow
  std::vector<Scratch> scratch_;             ///< per-scanner buffers
  std::vector<std::unique_ptr<NativeSWMR>> values_;
  std::vector<std::unique_ptr<NativeStripCell>> arrows_;
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace bprc
