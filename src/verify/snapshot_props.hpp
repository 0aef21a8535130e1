// Checkers for the scannable-memory correctness properties of Section 2.
//
// The paper specifies three properties of scan operation executions, all
// phrased through "potential coexistence" (Definition 2.1) in a global-time
// model:
//
//   P1 (regularity): every value a scan returns was written by a write
//      that potentially coexists with the scan.
//   P2 (snapshot): any two writes whose values a scan returns potentially
//      coexist with each other (at least one direction).
//   P3 (scan serializability): the views returned by any two scans are
//      comparable component-wise (one is everywhere no newer than the
//      other).
//
// Definition 2.1 reconstructed: W_j^[a] potentially coexists with
// operation execution O iff W_j^[a] can-affect O (it was invoked before O
// responded) and no later write by the same process j responded before O
// was invoked.
//
// The tests run the scannable memory in the simulator, record every
// operation's invocation/response timestamps plus the *ghost* write index
// each returned value carries (see registers/toggle.hpp), and feed the
// history to these checkers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"

namespace bprc {

/// One completed write operation execution on the scannable memory.
/// `index` is the writer-local sequence number (the ghost index); index 0
/// denotes the initial value, which behaves as a write that precedes
/// everything.
struct SnapWriteRec {
  ProcId writer = -1;
  std::uint64_t index = 0;
  std::uint64_t inv = 0;
  std::uint64_t res = 0;
};

/// One completed scan: `view[j]` is the ghost index of the write by
/// process j whose value the scan returned.
struct SnapScanRec {
  ProcId scanner = -1;
  std::uint64_t inv = 0;
  std::uint64_t res = 0;
  std::vector<std::uint64_t> view;
};

/// A complete recorded history of one scannable-memory instance.
struct SnapshotHistory {
  int nprocs = 0;
  std::vector<SnapWriteRec> writes;
  std::vector<SnapScanRec> scans;

  void add_write(SnapWriteRec w) { writes.push_back(w); }
  void add_scan(SnapScanRec s) { scans.push_back(std::move(s)); }
};

/// Invocation/response timestamp for a snapshot object's operation: a
/// fresh Runtime::now() tick when `recorder` is installed, else 0 — an
/// unrecorded run takes no clock ticks (under ThreadRuntime each is a
/// shared atomic increment).
inline std::uint64_t record_tick(Runtime& rt, const SnapshotHistory* recorder) {
  return recorder != nullptr ? rt.now() : 0;
}

/// Each checker returns std::nullopt on success or a human-readable
/// description of the first violation found.
std::optional<std::string> check_p1_regularity(const SnapshotHistory& h);
std::optional<std::string> check_p2_snapshot(const SnapshotHistory& h);
std::optional<std::string> check_p3_serializability(const SnapshotHistory& h);

/// Strengthening beyond the paper's literal P3 (its prose motivates it:
/// "later scans will obtain later snapshot views"): if scan A responded
/// before scan B was invoked, A's view must be component-wise no newer
/// than B's.
std::optional<std::string> check_realtime_scan_order(const SnapshotHistory& h);

/// Runs all checks (P1, P2, P3, real-time order).
std::optional<std::string> check_snapshot_properties(const SnapshotHistory& h);

}  // namespace bprc
