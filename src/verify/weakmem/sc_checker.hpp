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
// sweep costs O(n + L + T), plus, per switch to another thread, two
// count-trailing-zero steps per 4096 threads to find the lowest-numbered
// ready thread: O(1) up to the artifact loader's cap,
// kMaxArtifactThreads = 4096. A thread keeps emitting without that
// search while its next action is ready and the emission woke no
// lower-numbered thread. Ids are thread-major, so the order is the one a
// smallest-id-first Kahn sort of the relation gives, and the sweep
// orders every action iff there is no cycle. Validation before it, of
// the logs and the version fields, is three linear passes.
//
// When the sweep is total its order is the SC total order, and that is
// the whole verdict: no second oracle re-grades it. Each location's
// history in that order is already a legal register history (every read
// returns the latest write): a load of version v is emitted while v is
// its location's latest emitted version, since the write of v + 1 waits
// for every load of v, and validation has checked that the load returned
// the value of the write of v (or the initial value when v = 0); an RMW
// writes version rf + 1, so it too reads the latest write.
//
// When the sweep stalls, and only then, the checker runs it backwards
// over the m actions it left unordered: from the back of each thread it
// peels every action that reaches no cycle. That is Kahn's sort of the
// reversed relation, again without building it: a load of version v
// goes once the write of v + 1 is gone, a write of v once that write and
// every unordered load of v are, so writes go in decreasing version
// order and one version per location, a wake list per version and a
// drain slot per location track it. What is left is the core, the k
// actions on a cycle or on a path into one (a handful when the cycle is
// early and the rest of the run follows it). Only the core is numbered
// densely and its relation built, as one flat CSR edge array of 32-bit
// ids (at most 3k edges; one scratch allocation of about 10k ids holds
// it and the passes over it); a strongly-connected-component pass picks
// the first edge a→b (by source id, then edge order) whose endpoints
// share a component, and the checker reports the cycle path b ⇝ a → b as
// a human-readable witness. The peel removes only actions that lie on no
// cycle and on no path between two actions of one, so that edge and
// path are the ones the whole unordered region gives. That costs O(m)
// for the peel and O(k) for the witness graph.
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
  bool well_formed = false; ///< version fields internally consistent
  std::string witness;      ///< cycle / violation description when failed

  /// The SC total order (global indices into a flattened action array,
  /// thread-major) when sc holds; empty otherwise.
  std::vector<std::size_t> order;

  bool ok() const { return well_formed && sc; }
};

/// Runs the full analysis on a recording.
SCResult check_sc(const Recording& rec);

/// Renders one action as "T2#5 W x=3 @v7 (release)" for witnesses.
std::string describe_action(const Recording& rec, const MemAction& a);

}  // namespace bprc::weakmem
