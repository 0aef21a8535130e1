// Abstract execution environment for n asynchronous processes.
//
// The paper's model: n completely asynchronous processes, scheduled by a
// strong (adaptive) adversary, communicating only through atomic registers.
// A Runtime realizes that model. Algorithm code is written once against
// this interface and runs unchanged on:
//   * SimRuntime    — deterministic single-threaded fiber scheduler where a
//                     pluggable Adversary picks who moves at every shared-
//                     memory operation (the strong-adversary model, exactly);
//   * ThreadRuntime — std::jthread preemptive execution (the OS scheduler
//                     plays the adversary).
//
// The unit of time is one primitive shared-memory operation ("step"), the
// complexity measure used by the paper's lemmas.
#pragma once

#include <cstdint>
#include <exception>
#include <string>

#include "util/rng.hpp"

namespace bprc {

using ProcId = int;

/// Lamport's register hierarchy, weakest-to-strongest ordering inverted:
/// the knob *weakens* the registers the runtime hands to algorithm code.
///   * kAtomic  — reads linearize with writes (the default; every result
///                before PR 9 assumed this);
///   * kRegular — a read concurrent with a write may return the old value
///                or the new one (either choice per read, so successive
///                reads may observe new-then-old: the "new/old inversion"
///                regular registers permit and atomic ones forbid);
///   * kSafe    — a read concurrent with a write may return *any* value
///                the register ever legally held (approximated by the
///                recent write history; see docs/REGISTER_SEMANTICS.md).
/// The adversary — not a PRNG — resolves every weakened read, so the
/// explorer can branch over the choices and replays are bit-identical.
enum class RegisterSemantics : std::uint8_t { kAtomic = 0, kRegular, kSafe };

inline const char* to_string(RegisterSemantics s) {
  switch (s) {
    case RegisterSemantics::kAtomic:  return "atomic";
    case RegisterSemantics::kRegular: return "regular";
    case RegisterSemantics::kSafe:    return "safe";
  }
  return "?";
}

/// Parses a semantics name; false on anything unrecognized (artifact
/// parsers must reject, not guess).
inline bool register_semantics_from_string(const std::string& name,
                                           RegisterSemantics* out) {
  for (const RegisterSemantics s :
       {RegisterSemantics::kAtomic, RegisterSemantics::kRegular,
        RegisterSemantics::kSafe}) {
    if (name == to_string(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

/// One weakened read awaiting resolution: process `reader` is reading
/// `object` while `writer` has a write to it in flight (announced at its
/// checkpoint, not yet executed). The runtime asks the adversary for a
/// choice in [0, options):
///   0          — the last committed value: what an atomic read returns;
///   1          — the in-flight write's value (the "new" value a regular
///                register may serve to an overlapping read);
///   k in [2, options) — the (k-1)-th most recent *older* committed value
///                (kSafe only; see docs/REGISTER_SEMANTICS.md).
struct StaleRead {
  int object = -1;    ///< OpDesc-style object id (-1 when unassigned)
  ProcId reader = -1;
  ProcId writer = -1;
  int options = 2;    ///< number of selectable values, >= 2
};

/// Description of the shared-memory operation a process is about to
/// perform. Published at every checkpoint, and visible to the adversary —
/// the "strong" adversary of the randomized-consensus literature sees the
/// value a process is about to write (it has already observed the local
/// coin flip) and may delay the write arbitrarily.
struct OpDesc {
  enum class Kind : std::uint8_t { kNone, kRead, kWrite };
  Kind kind = Kind::kNone;
  int object = -1;           ///< component-assigned shared-object id
  std::int64_t payload = 0;  ///< value being written, when meaningful
};

/// Digest of a process's protocol state, published at checkpoints for
/// adaptive adversaries. Everything in here is information the strong
/// adversary legitimately has (full knowledge of all process states and
/// past coin flips).
struct Hint {
  std::int32_t round = 0;    ///< protocol round (local view)
  std::int8_t pref = -1;     ///< 0/1 preference, 2 = ⊥ ("undecided"), -1 = n/a
  std::int8_t walk_delta = 0;///< ±1 when the pending write moves a walk counter
  std::int64_t counter = 0;  ///< this process's current walk-counter value
  bool decided = false;      ///< process has irrevocably decided
};

/// Observer for shared-memory traffic, consumed by the exploration driver
/// (src/explore/) to fingerprint global states for its seen-state cache.
/// Registers query Runtime::trace_sink() at *construction* and call the
/// hooks after each completed primitive operation; a runtime that returns
/// nullptr (the default, and every runtime outside exploration) pays a
/// single cached null check per register. Install a sink before
/// constructing the shared objects that should report to it.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Called once per shared object at construction; returns the object's
  /// dense trace id (a fresh sequential int). Unlike OpDesc::object —
  /// which components may leave at -1 or reuse across instances — trace
  /// ids are unique per object per run, which is what state
  /// fingerprinting needs.
  virtual int on_object_created() = 0;

  /// A completed atomic read/write of the object with trace id `object`
  /// by process `p`.
  virtual void on_read(ProcId p, int object) = 0;
  virtual void on_write(ProcId p, int object) = 0;

  /// Escape hatch for primitives outside the read/write model (e.g. the
  /// strong-coin AtomicCoinFlip): `digest` summarizes the operation and
  /// its result, `mutates` says whether shared state changed.
  virtual void on_event(ProcId p, int object, std::uint64_t digest,
                        bool mutates) = 0;
};

/// One recorded native shared-memory operation (src/registers/native/).
/// The offline weak-memory analysis (src/verify/weakmem/) consumes
/// per-thread lists of these: program order comes from (thread, seq),
/// reads-from and modification order from the version fields, which the
/// native registers derive exactly by packing a per-location write version
/// next to the payload inside the atomic word.
struct MemAction {
  enum class Kind : std::uint8_t { kLoad, kStore, kRmw };
  ProcId thread = -1;
  std::uint32_t seq = 0;      ///< program-order index within `thread`
  int location = -1;          ///< dense id from MemActionSink::on_location
  Kind kind = Kind::kLoad;
  /// static_cast of the std::memory_order the operation used. Recorded so
  /// artifacts state the order under analysis, not just the outcome.
  std::uint8_t order = 0;
  std::uint64_t value = 0;    ///< payload read (loads) or written (stores)
  /// Version of the write this operation read from; 0 = initial value.
  /// Meaningful for kLoad and kRmw.
  std::uint64_t rf = 0;
  /// Version this operation wrote — its position in the location's
  /// modification order (1-based; 0 = "not yet flushed", see patch_mo).
  /// Meaningful for kStore and kRmw.
  std::uint64_t mo = 0;
};

/// Observer for native atomic traffic, the weak-memory analogue of
/// TraceSink. Native registers cache the pointer at construction
/// (Runtime::mem_sink()); a null sink — the default, and every run
/// outside the native verification lane — costs one cached null check
/// per operation.
///
/// Threading contract: on_action is called from the acting process's
/// thread; implementations keep one log per thread so recording is
/// lock-free. patch_mo touches only entries of the named thread and is
/// called either from that thread or after the run has joined.
class MemActionSink {
 public:
  virtual ~MemActionSink() = default;

  /// Called once per native shared location at construction; returns its
  /// dense location id. `initial` is the location's initial payload
  /// (what version-0 reads observe); `name` is for human-readable
  /// reports and artifacts.
  virtual int on_location(const char* name, std::uint64_t initial) = 0;

  /// Appends a completed operation to `a.thread`'s log; returns the
  /// index of the entry in that log (for patch_mo).
  virtual std::size_t on_action(const MemAction& a) = 0;

  /// Late modification-order assignment for buffered stores: the
  /// deliberately-broken relaxed register records its store in program
  /// order but only learns the write's position in the location's
  /// modification order when the emulated store buffer flushes.
  virtual void patch_mo(ProcId thread, std::size_t index,
                        std::uint64_t mo) = 0;
};

/// Thrown out of checkpoint() to unwind a process that the runtime is
/// shutting down (crashed by the adversary, or the step budget is
/// exhausted). Algorithm code must let it propagate — RAII-only cleanup.
class ProcessStopped : public std::exception {
 public:
  const char* what() const noexcept override {
    return "bprc process stopped by runtime";
  }
};

/// Why a run() returned.
struct RunResult {
  enum class Reason {
    kAllDone,   ///< every non-crashed process finished its body
    kBudget,    ///< the step budget was exhausted first
    kNoRunnable,///< every unfinished process was crashed
    kDeadline   ///< the wall-clock watchdog fired (livelock guard)
  };
  Reason reason = Reason::kAllDone;
  std::uint64_t steps = 0;  ///< total primitive operations executed
};

inline const char* to_string(RunResult::Reason r) {
  switch (r) {
    case RunResult::Reason::kAllDone:    return "all-done";
    case RunResult::Reason::kBudget:     return "budget";
    case RunResult::Reason::kNoRunnable: return "no-runnable";
    case RunResult::Reason::kDeadline:   return "deadline";
  }
  return "?";
}

class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual int nprocs() const = 0;

  /// True when process bodies may run on distinct OS threads, i.e. shared
  /// objects need real synchronization. The fiber simulator returns false
  /// — its registers then skip their internal mutexes, which otherwise
  /// cost an uncontended lock/unlock pair on every primitive operation.
  /// Components must treat the value as fixed for the runtime's lifetime.
  virtual bool concurrent() const { return true; }

  /// Id of the calling process. Only valid from inside a process body.
  virtual ProcId self() const = 0;

  /// Scheduling point, called by every register primitive immediately
  /// before its atomic action. May throw ProcessStopped.
  virtual void checkpoint(const OpDesc& op) = 0;

  /// Strictly increasing logical clock; each call returns a fresh tick.
  /// Used by components to timestamp operation intervals for the
  /// verification library.
  virtual std::uint64_t now() = 0;

  /// The calling process's private deterministic random source (its local
  /// coin). Only valid from inside a process body.
  virtual Rng& rng() = 0;

  /// Publishes the caller's protocol-state digest (see Hint).
  virtual void publish_hint(const Hint& hint) = 0;

  /// Primitive operations executed by process p so far.
  virtual std::uint64_t steps(ProcId p) const = 0;

  /// Primitive operations executed by all processes so far.
  virtual std::uint64_t total_steps() const = 0;

  /// Register semantics this runtime enforces. Registers cache the value
  /// at construction (like trace_sink), so set it before building shared
  /// state. The default — and the only value non-simulated runtimes ever
  /// report — is atomic: the weakened overlay needs the simulator's
  /// step accounting to define write-in-flight windows.
  virtual RegisterSemantics register_semantics() const {
    return RegisterSemantics::kAtomic;
  }

  /// Resolves one weakened concurrent read (see StaleRead). The simulator
  /// forwards to its adversary; the default picks 0 — the atomic answer.
  virtual int resolve_stale_read(const StaleRead& sr) {
    (void)sr;
    return 0;
  }

  /// The installed shared-memory observer, or nullptr (default). Shared
  /// objects cache this at construction; see TraceSink.
  virtual TraceSink* trace_sink() const { return nullptr; }

  /// The installed native-atomics observer, or nullptr (default). Native
  /// registers cache this at construction; see MemActionSink.
  virtual MemActionSink* mem_sink() const { return nullptr; }
};

}  // namespace bprc
