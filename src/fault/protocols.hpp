// Name-keyed protocol registry for the torture harness.
//
// Campaigns, repro artifacts, and the CLI all refer to protocols by
// stable string names, so a `.bprc-repro` file written today replays
// against the same protocol tomorrow. The registry covers the four
// protocols of the library (BPRC plus the three baselines) and, behind a
// `broken` flag, the deliberately-buggy test hooks of fault/broken.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "consensus/driver.hpp"
#include "util/space_budget.hpp"

namespace bprc::fault {

struct ProtocolSpec {
  std::string name;
  bool broken = false;  ///< test-hook protocol with a seeded bug
  /// Whether the protocol tolerates crash failures (wait-freedom). The
  /// simplified local-coin baseline does NOT: it decides on unanimity
  /// over every written preference, so crashed processes that froze
  /// conflicting preferences livelock all survivors — the very first
  /// torture campaign caught this (see docs/TESTING.md), and the flag
  /// keeps crash-injecting cells out of its matrix.
  bool crash_tolerant = true;
  /// Whether termination is guaranteed when the adversary resolves reads
  /// that race a write (regular/safe register semantics,
  /// docs/REGISTER_SEMANTICS.md). The paper's faithful protocols prove
  /// expected termination over *atomic* registers only, and the torture
  /// campaign confirmed the gap is real: an adversary that keeps serving
  /// the old value of every racing read starves their random walks
  /// forever (budget-independent livelock, found under the round-robin
  /// strategy's rotating resolution). Safety still holds and is still
  /// graded; with this flag false, a budget/deadline stop under weakened
  /// semantics is counted as an abort, not reported as a failure — the
  /// same downgrade the explorer applies to budget-truncated leaves.
  bool live_under_stale_reads = true;
  /// Whether the protocol can run at all under safe semantics, where a
  /// racing read may return any value the register previously held. BPRC
  /// itself cannot: its always-on edge-counter decode invariant
  /// (BPRC_REQUIRE, util/assert.hpp) fires on cross-register views no
  /// atomic execution can produce, and aborts the process by design
  /// rather than grading statistics from junk reads. With this flag
  /// false, kSafe cells are skipped and counted (the crash-cell
  /// precedent) instead of taking down the campaign.
  bool tolerates_safe_reads = true;
  /// Builds a factory for an n-process instance; `seed` feeds protocol
  /// internals that want independent randomness (e.g. the strong coin);
  /// `space` is the campaign's SpaceBudget, which only space-sensitive
  /// protocols consume (the others are built from their own constants
  /// and skipped at non-default budgets — see the campaign's
  /// skipped_space_cells counter).
  std::function<ProtocolFactory(int n, std::uint64_t seed,
                                const SpaceBudget& space)>
      make;
  /// Whether the protocol's layout actually responds to a SpaceBudget.
  /// True for the paper's protocol (every knob) and Aspnes–Herlihy (the
  /// barrier b; its counters are unbounded so m is moot). Campaigns
  /// sweeping non-default budgets skip insensitive protocols rather
  /// than re-run identical instances under a misleading label.
  bool space_sensitive = false;
  /// The protocol can kill the OS process executing it (the shard
  /// supervisor's acceptance target, fault/broken.hpp). Excluded from
  /// every name listing — protocol_names() never returns it, even with
  /// include_broken — so sweeps that enumerate "all protocols" (explorer
  /// smoke, default campaigns) never take down their own process. Only
  /// an explicit name lookup (protocol_spec / --protocol) reaches it.
  bool crashes_process = false;
};

/// Every protocol the harness can drive; real protocols first.
const std::vector<ProtocolSpec>& protocol_registry();

/// Names only, in registry order.
std::vector<std::string> protocol_names(bool include_broken = false);

/// Looks up `name` in the full registry, crashes_process protocols too;
/// nullptr if unknown. CLIs and artifact parsers check user input with it.
const ProtocolSpec* find_protocol(const std::string& name);

/// Looks up `name`; BPRC_REQUIRE on unknown names (campaign configs are
/// programmer input, not user input — the CLI validates before calling).
const ProtocolSpec& protocol_spec(const std::string& name);

/// Shorthand: factory for `name` at the given size and seed, at the
/// paper's default space budget.
ProtocolFactory make_protocol(const std::string& name, int n,
                              std::uint64_t seed);

/// Same, at an explicit space budget.
ProtocolFactory make_protocol(const std::string& name, int n,
                              std::uint64_t seed, const SpaceBudget& space);

}  // namespace bprc::fault
