// Offline sequential-consistency checking over recorded action lists, in
// the style of CDSChecker/scfence.
//
// Given a Recording, the checker decides whether the execution's
// happens-before relation, the union of four edge families, is acyclic:
//
//   po — sequenced-before: consecutive actions of the same thread;
//   rf — reads-from: the write of version v on a location precedes every
//        read that observed version v;
//   mo — modification order: version v precedes version v+1;
//   fr — from-read: a read that observed version v precedes the write of
//        version v+1 (it demonstrably executed before that write).
//
// The execution is explainable by a sequentially consistent total order
// iff po ∪ rf ∪ mo ∪ fr is acyclic (Shasha–Snir). The checker finds that
// order without building the relation, in one sweep over the per-thread
// logs (as CDSChecker's scfence builds its SC list): only thread heads
// can be ready, a load once its version is emitted, a write once the
// previous version and every load of it are. A blocked head waits on a
// wake list keyed by the condition it lacks, so no head is re-examined
// per emitted action. For n actions of T threads on L locations the
// sweep costs O(n + L + T), plus, per emitted action, two
// count-trailing-zero steps per 4096 threads to find the lowest-numbered
// ready thread: O(1) up to the artifact loader's cap,
// kMaxArtifactThreads = 4096. Ids are thread-major, so the order is the
// one a smallest-id-first Kahn sort of the relation gives, and the sweep
// orders every action iff there is no cycle.
//
// When the sweep is total its order is the SC total order, which is
// re-validated through the existing Wing–Gong linearizability checker:
// each location's actions become a sequential RegOp history
// (read-your-latest-write semantics), so native runs are graded by
// exactly the oracle the simulator uses. When the sweep stalls, and only
// then, the relation among the actions it left unordered is built as one
// flat CSR edge array; a strongly-connected-component pass picks the
// first edge a→b (by source id, then edge order) whose endpoints share a
// component, and the checker reports the cycle path b ⇝ a → b as a
// human-readable witness.
//
// Scope: this is a *dynamic* analysis of one observed execution, like
// TSAN — it proves this run SC or exhibits this run's violation; it does
// not enumerate the other executions the C++ memory model would allow.
// The deliberately-broken register makes the violation deterministic so
// the negative test does not depend on hardware reordering luck.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/weakmem/recorder.hpp"

namespace bprc::weakmem {

/// Verdict of the offline analysis.
struct SCResult {
  bool sc = false;          ///< po ∪ rf ∪ mo ∪ fr acyclic
  bool coherent = false;    ///< per-location Wing–Gong check of the total
                            ///< order (vacuously true when !sc)
  bool well_formed = false; ///< version fields internally consistent
  std::string witness;      ///< cycle / violation description when failed

  /// The SC total order (global indices into a flattened action array,
  /// thread-major) when sc holds; empty otherwise.
  std::vector<std::size_t> order;

  bool ok() const { return well_formed && sc && coherent; }
};

/// Runs the full analysis on a recording.
SCResult check_sc(const Recording& rec);

/// Renders one action as "T2#5 W x=3 @v7(release)" for witnesses.
std::string describe_action(const Recording& rec, const MemAction& a);

}  // namespace bprc::weakmem
