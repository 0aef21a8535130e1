// Checkpointed DFS frontiers (`.bprc-frontier` files).
//
// A frontier freezes everything the exploration driver needs to continue
// a bounded sweep in a later invocation: the backtracking trail (the
// branch currently being unwound, including each node's candidate /
// sleep masks and pending ops), the cumulative stats (schedule_digest
// included — resume extends the same fold), the violations collected so
// far, and the full seen-state cache (required: a resumed run must make
// the identical merge decisions, or its digest diverges from the
// uninterrupted run's).
//
// A keyed-line record (grammar, strictness and atomic save:
// util/record_text.hpp); unknown keys are skipped for forward
// compatibility:
//
//   bprc-frontier v1
//   fingerprint 1f2e3d4c5b6a7988    # fold of target identity + limits +
//                                   # seed; resume refuses a mismatch
//   complete 0
//   stat executions 1234
//   stat digest 60f38cfeecad3890
//   ...
//   trail 2
//   node s 1 2 000000000000000f 000000000000000f 3 2 0 1 1 4 0 0 -1 0
//                  # schedule point: chosen taken candidates sleep nops
//                  # (kind object payload)×nops
//   node c 1 2                            # coin point: value taken
//   node t 1 3 2                          # stale-read point: value
//                                         # options taken (weakened
//                                         # register semantics only)
//   violations 1
//   violation consistency
//   vschedule 0 1 0 1
//   vflips 1 0
//   vstales 1 0                           # forced stale-read choices
//                                         # (omitted when empty)
//   vnote decisions=0,1
//   cache 2
//   seen 9e3779b97f4a7c15 0
//   seen 1badb002deadbeef 3
//   end
//
// The saved trail is always a *post-execution* snapshot (the run loop
// checkpoints between executions, after the grading pipeline drained);
// resume backtracks once and continues, which is exactly what the
// uninterrupted loop would have done next.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "explore/explorer.hpp"

namespace bprc::explore {

/// One choice point on the explorer's DFS trail. Schedule nodes branch
/// over runnable processes; coin nodes branch a local flip over {false,
/// true}; stale nodes (weakened register semantics) branch an overlapping
/// read over every servable value [0, stale_options).
struct FrontierNode {
  bool is_coin = false;
  bool coin_value = false;  ///< current branch of a coin node
  bool is_stale = false;
  int stale_value = 0;      ///< current branch of a stale node
  int stale_options = 0;    ///< choice count recorded at creation
  ProcId chosen = -1;       ///< current branch of a schedule node
  int taken = 0;            ///< branches explored so far (stats)
  std::uint64_t candidates = 0;  ///< runnable set at this point
  /// Working sleep set: entry sleep plus already-explored siblings. A
  /// candidate in here commutes with some explored branch — its subtree
  /// is a permutation of one already visited.
  std::uint64_t sleep = 0;
  std::vector<OpDesc> ops;  ///< pending op per process (dependence check)
};

struct Frontier {
  int version = 1;
  std::uint64_t fingerprint = 0;  ///< config guard, see explorer.cpp
  bool complete = false;          ///< tree exhausted; nothing left to resume
  ExploreStats stats;
  std::vector<FrontierNode> trail;
  std::vector<ExploreViolation> violations;
  std::vector<std::pair<std::uint64_t, std::uint8_t>> cache;
};

std::string serialize_frontier(const Frontier& frontier);

/// Parses serialize_frontier output; nullopt + `err` on malformed input
/// (user-supplied files must not abort the process).
std::optional<Frontier> parse_frontier(const std::string& text,
                                       std::string* err);

/// File wrappers over record::read_file / record::write_file (atomic).
bool save_frontier(const std::string& path, const Frontier& frontier);
std::optional<Frontier> load_frontier(const std::string& path,
                                      std::string* err);

}  // namespace bprc::explore
