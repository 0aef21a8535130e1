// Native atomic registers.
//
// The paper's base objects are atomic single-writer-multi-reader (SWMR)
// read/write registers plus two-writer-two-reader (2W2R) registers for the
// scan "arrows". These native implementations are internally synchronized
// (trivially linearizable: the lock-protected access is the linearization
// point) and pass every operation through the runtime checkpoint, which is
// where the simulator's adversary takes control. A bounded *construction*
// of the 2W2R register from SWMR registers — honoring the paper's
// citation lineage — lives in bloom_2w2r.hpp.
//
// Step accounting: one checkpoint per read/write, so `Runtime::steps`
// counts primitive register operations, the complexity unit of the paper.
//
// Register semantics: by default reads and writes are atomic. When the
// owning runtime reports kRegular/kSafe (Runtime::register_semantics,
// cached at construction), reads that overlap an in-flight write are
// weakened per Lamport's hierarchy, with the scheduler adversary — not a
// PRNG — choosing the returned value so the explorer and the shrinker can
// enumerate and replay the choices. See docs/REGISTER_SEMANTICS.md.
#pragma once

#include <memory>
#include <mutex>

#include "runtime/runtime.hpp"
#include "util/assert.hpp"

namespace bprc {

namespace detail {

/// Adversary-controlled weakening overlay for the Register template
/// below (docs/REGISTER_SEMANTICS.md). Allocated only when the owning
/// runtime reports kRegular/kSafe at register construction — under
/// atomic semantics a register carries one extra null pointer and one
/// predictable branch per operation, nothing else.
///
/// The fiber simulator has exactly one observable read/write concurrency
/// window: a write that has been *announced* (its checkpoint published a
/// kWrite and parked the writer) but not yet executed. The writer's code
/// between checkpoint return and the store runs without yielding, so from
/// every other process's viewpoint the write commits atomically the
/// moment the writer is rescheduled. The overlay therefore brackets the
/// checkpoint: announce() opens the window and snapshots the in-flight
/// value, commit() closes it and retires the replaced value into a short
/// history ring. A writer crashed (or budget-stopped) while parked never
/// reaches commit() — its window stays open for the rest of the run, the
/// faithful crash-mid-write under which a regular register may keep
/// serving either value forever.
///
/// With several writers racing on an MRMW register the single
/// pending-value slot tracks the latest announcement only; earlier
/// still-in-flight writes collapse to the atomic answer (a documented
/// under-approximation — every value served is still one the weakened
/// semantics allow).
template <class T>
class WeakRegisterState {
 public:
  /// The ring is seeded with copies of `initial` purely to avoid
  /// requiring T be default-constructible; len_ = 0 keeps them
  /// unservable until real values retire into the ring.
  explicit WeakRegisterState(const T& initial)
      : pending_value_(initial), hist_{initial, initial, initial, initial} {}

  /// Write announced: called immediately before the write's checkpoint.
  void announce(ProcId writer, const T& v) {
    pending_writer_ = writer;
    pending_value_ = v;
    open_ = true;
  }

  /// Write executed: called after the checkpoint returned, with the value
  /// being replaced. Closes the window and retires `replaced`.
  void commit(const T& replaced) {
    open_ = false;
    hist_[head_] = replaced;
    head_ = (head_ + 1) % kHist;
    if (len_ < kHist) ++len_;
  }

  /// Resolves one read under weakened semantics. Returns nullptr when the
  /// read must serve the committed value — no write in flight (all three
  /// semantics agree) or the adversary chose the atomic answer — else a
  /// pointer to the value to serve (valid until the next operation).
  const T* resolve(Runtime& rt, RegisterSemantics sem, int object) {
    if (!open_) return nullptr;
    const int options = sem == RegisterSemantics::kSafe ? 2 + len_ : 2;
    StaleRead sr;
    sr.object = object;
    sr.reader = rt.self();
    sr.writer = pending_writer_;
    sr.options = options;
    const int choice = rt.resolve_stale_read(sr);
    BPRC_REQUIRE(choice >= 0 && choice < options,
                 "stale-read choice out of range");
    if (choice == 0) return nullptr;
    if (choice == 1) return &pending_value_;
    // choice - 2 steps back into the ring; 0 = most recently replaced.
    const int back = choice - 2;
    return &hist_[(head_ + kHist - 1 - back) % kHist];
  }

 private:
  static constexpr int kHist = 4;
  ProcId pending_writer_ = -1;
  bool open_ = false;
  int head_ = 0;  ///< next ring slot to fill
  int len_ = 0;   ///< filled ring slots, <= kHist
  T pending_value_;
  T hist_[kHist];
};

}  // namespace detail

/// Locks a register mutex only when the owning runtime is concurrent
/// (Runtime::concurrent()). Under the single-threaded fiber simulator the
/// mutex is pure overhead — an uncontended lock/unlock pair on every
/// primitive operation — so registers cache the flag at construction and
/// skip it.
class MaybeLock {
 public:
  MaybeLock(std::mutex& mu, bool locked) : mu_(mu), locked_(locked) {
    if (locked_) mu_.lock();
  }
  ~MaybeLock() {
    if (locked_) mu_.unlock();
  }
  MaybeLock(const MaybeLock&) = delete;
  MaybeLock& operator=(const MaybeLock&) = delete;

 private:
  std::mutex& mu_;
  const bool locked_;
};

/// Atomic read/write register. A single-writer one (`SWMRRegister`)
/// names the only process allowed to write; a multi-writer one
/// (`MRMWRegister`, used for native 2W2R arrows and test scaffolding —
/// the paper's protocols never need more than two writers per register)
/// lets every process write. Every process may read either.
template <class T, bool kSingleWriter>
class Register {
 public:
  Register(Runtime& rt, ProcId owner, T initial, int object_id = -1)
    requires kSingleWriter
      : Register(rt, Who{owner, object_id}, std::move(initial)) {}
  Register(Runtime& rt, T initial, int object_id = -1)
    requires(!kSingleWriter)
      : Register(rt, Who{-1, object_id}, std::move(initial)) {}

  Register(const Register&) = delete;
  Register& operator=(const Register&) = delete;

  /// Atomic read by any process. Under weakened semantics (cached at
  /// construction, like the trace sink) a read overlapping an in-flight
  /// write serves whichever legal value the adversary chooses.
  T read() {
    return read_with([](const T& served) { return served; });
  }

  /// Atomic read that copy-assigns into `out` instead of returning a
  /// temporary. For T with heap-owning members (vectors), a steady-state
  /// caller buffer makes the read allocation-free — the hot-loop variant.
  void read_into(T& out) {
    read_with([&out](const T& served) { out = served; });
  }

  /// The one read primitive: checkpoint, then `visit(served)` with the
  /// served value (see read()) under the register's lock, returning what
  /// `visit` returns. Lets a caller inspect the value in place — compare
  /// it, copy part of it — without copying the whole record out.
  template <class Visit>
  decltype(auto) read_with(Visit&& visit) {
    rt_.checkpoint({OpDesc::Kind::kRead, id_, 0});
    const MaybeLock lock(mu_, locked_);
    return visit(serve());
  }

  /// Atomic write; a single-writer register's caller must be the owner.
  /// `payload` is a digest of the written value shown to the adversary
  /// (see OpDesc).
  void write(const T& v, std::int64_t payload = 0) {
    if constexpr (kSingleWriter) {
      BPRC_REQUIRE(rt_.self() == owner_, "non-owner write to SWMR register");
    }
    if (weak_ != nullptr) weak_->announce(rt_.self(), v);
    rt_.checkpoint({OpDesc::Kind::kWrite, id_, payload});
    const MaybeLock lock(mu_, locked_);
    if (sink_ != nullptr && sink_->listening()) {
      sink_->on_write(rt_.self(), trace_id_);
    }
    if (weak_ != nullptr) weak_->commit(value_);
    value_ = v;
  }

  /// Non-linearizable peek for post-run inspection and debugging only —
  /// never called from algorithm code (no checkpoint, no step). Always
  /// reports the committed value, never an in-flight or stale one.
  T peek() const {
    const MaybeLock lock(mu_, locked_);
    return value_;
  }

 private:
  struct Who {
    ProcId owner;
    int object_id;
  };
  Register(Runtime& rt, Who who, T&& initial)
      : rt_(rt),
        owner_(who.owner),
        id_(who.object_id),
        sink_(rt.trace_sink()),
        trace_id_(sink_ != nullptr ? sink_->on_object_created() : -1),
        locked_(rt.concurrent()),
        sem_(rt.register_semantics()),
        value_(std::move(initial)),
        weak_(sem_ == RegisterSemantics::kAtomic
                  ? nullptr
                  : std::make_unique<detail::WeakRegisterState<T>>(value_)) {}

  /// The value a read returns, with `mu_` held: the committed one, or the
  /// weakened alternative the adversary chose.
  const T& serve() {
    if (sink_ != nullptr && sink_->listening()) {
      sink_->on_read(rt_.self(), trace_id_);
    }
    if (weak_ != nullptr) {
      if (const T* alt = weak_->resolve(rt_, sem_, stale_object())) {
        return *alt;
      }
    }
    return value_;
  }

  /// Object id reported in StaleRead: the dense trace id when a sink is
  /// installed (unique per object), else the component-assigned id.
  int stale_object() const { return trace_id_ >= 0 ? trace_id_ : id_; }

  Runtime& rt_;
  ProcId owner_;  ///< the only writer when kSingleWriter; else -1
  int id_;
  TraceSink* const sink_;  ///< cached Runtime::trace_sink(); usually null
  const int trace_id_;     ///< sink-assigned dense id; -1 without a sink
  const bool locked_;
  const RegisterSemantics sem_;  ///< cached Runtime::register_semantics()
  mutable std::mutex mu_;
  T value_;
  /// Weakening overlay; null under atomic semantics (the usual case).
  const std::unique_ptr<detail::WeakRegisterState<T>> weak_;
};

template <class T>
using SWMRRegister = Register<T, true>;
template <class T>
using MRMWRegister = Register<T, false>;

}  // namespace bprc
