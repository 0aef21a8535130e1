// Wing–Gong linearizability checking for atomic-register histories.
//
// The register constructions in src/registers are *checked*, not assumed:
// tests record every high-level operation's invocation/response interval
// (logical timestamps from Runtime::now) and returned/written value, then
// ask this checker whether some linearization respects both real-time
// order and sequential register semantics.
//
// The search is the classic Wing–Gong DFS with exact memoization on
// (set-of-linearized-ops, current register value), run on an explicit
// stack so history length never bounds recursion depth. The pending ops
// are kept in a linked list in invocation order, and each level walks it
// only until the first op invoked after some walked op responded (Lowe's
// just-in-time frontier): a level costs O(concurrency), not O(history).
// The memo is probed through an incrementally maintained hash of the
// done-set, so runtime is exponential only in the history's
// *concurrency*. A sequential history, in which each op responds strictly
// before the next one is invoked, has exactly one linearization and is
// not searched: one O(n) replay checks that every read returns the latest
// write. An op whose response equals the next one's invocation overlaps
// it, so such a history is searched.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"

namespace bprc {

/// One completed high-level register operation.
struct RegOp {
  bool is_write = false;
  std::uint64_t value = 0;  ///< value written (write) or returned (read)
  std::uint64_t inv = 0;    ///< invocation timestamp
  std::uint64_t res = 0;    ///< response timestamp (inv < res)
  ProcId proc = -1;
};

/// Result of a linearizability check; on failure, `witness` explains the
/// first unlinearizable frontier the search proved empty.
struct LinResult {
  bool ok = false;
  std::string witness;
};

/// Checks whether `history` is linearizable as a single atomic register
/// with the given initial value. Histories of any length are accepted; a
/// sequential one is replayed, and one already in invocation order is
/// searched in place, without a sorted copy.
LinResult check_register_linearizable(const std::vector<RegOp>& history,
                                      std::uint64_t initial_value);

/// Convenience for tests: records operations with timestamps drawn from a
/// Runtime and builds RegOp entries.
class RegOpRecorder {
 public:
  explicit RegOpRecorder(Runtime& rt) : rt_(rt) {}

  /// Wraps a high-level read: f() performs it and returns the value.
  template <class F>
  std::uint64_t read(ProcId p, F&& f) {
    const std::uint64_t inv = rt_.now();
    const std::uint64_t v = f();
    const std::uint64_t res = rt_.now();
    append({false, v, inv, res, p});
    return v;
  }

  /// Wraps a high-level write of value v performed by f().
  template <class F>
  void write(ProcId p, std::uint64_t v, F&& f) {
    const std::uint64_t inv = rt_.now();
    f();
    const std::uint64_t res = rt_.now();
    append({true, v, inv, res, p});
  }

  std::vector<RegOp> take() { return std::move(ops_); }

 private:
  void append(const RegOp& op);

  Runtime& rt_;
  std::vector<RegOp> ops_;
};

}  // namespace bprc
