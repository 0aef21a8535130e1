// Stackful fibers: the execution substrate of the deterministic simulator.
//
// The simulator multiplexes n simulated processes onto one OS thread (so
// a run is deterministic and its adversary sees every process between
// steps), switching between them at shared-memory checkpoints. A switch saves/restores only the callee-saved registers and
// the stack pointer (System V x86-64), taking ~20ns — three orders of
// magnitude cheaper than gating OS threads with condition variables, which
// is what makes 10^8-step Monte-Carlo experiments feasible.
//
// A ucontext-based fallback (CMake option BPRC_FIBER_UCONTEXT) exists for
// non-x86-64 hosts; it is functionally identical but pays a sigprocmask
// syscall per switch.
#pragma once

#include <cstddef>
#include <functional>

#if defined(BPRC_FIBER_USE_UCONTEXT)
#include <ucontext.h>
#endif

namespace bprc {

/// Recycles fiber stacks across Fiber lifetimes. A 256 KiB allocation sits
/// above glibc's mmap threshold, so constructing and destroying one fiber
/// per simulated process per Monte-Carlo trial costs an mmap/munmap pair
/// plus fresh page faults every run; the pool keeps a bounded free list of
/// warm stacks instead. Thread-local — fibers are created and destroyed on
/// the thread that runs them.
class FiberStackPool {
 public:
  /// A stack of Fiber::kStackSize bytes, recycled when available.
  static char* acquire();

  /// Returns a stack to the pool (freed outright once the pool is full).
  static void release(char* stack);

  /// Frees every cached stack. Useful for leak-checked teardown.
  static void clear();

  /// Number of stacks currently cached on this thread.
  static std::size_t cached();

 private:
  static constexpr std::size_t kMaxCached = 64;
};

/// A cooperatively scheduled stackful coroutine. Not movable: the running
/// fiber's stack frames hold pointers into this object.
class Fiber {
 public:
  static constexpr std::size_t kStackSize = 256 * 1024;

  /// Creates a suspended fiber that will execute `body` when first resumed.
  /// The body must not outlive the Fiber and must not throw.
  explicit Fiber(std::function<void()> body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfers control from the scheduler to this fiber. Returns when the
  /// fiber next yields or finishes. Must be called from scheduler context
  /// (never from inside another fiber's resume).
  void resume();

  /// Transfers control from inside this fiber back to whoever resumed it.
  /// Must be called from within the fiber's body.
  void yield();

  /// True when switch_to() is available: direct fiber→fiber transfer
  /// without bouncing through the scheduler, halving the switch cost of a
  /// reschedule. Compiled out under AddressSanitizer (its fake-stack
  /// annotations assume strictly nested scheduler↔fiber switches) and in
  /// the ucontext fallback; callers must then park and let the scheduler
  /// resume the target — observably identical, one swap slower.
  static constexpr bool kDirectHandoff =
#if defined(__SANITIZE_ADDRESS__) || defined(BPRC_FIBER_USE_UCONTEXT)
      false;
#else
      true;
#endif

  /// Switches from inside this (running) fiber directly into `next`
  /// (suspended), handing over the link back to the scheduler: when `next`
  /// later yields or finishes, control returns to whoever resumed *this*.
  /// Returns when something switches back into this fiber. Only when
  /// kDirectHandoff.
  void switch_to(Fiber& next);

  /// True once `body` has returned. A finished fiber must not be resumed.
  bool finished() const { return finished_; }

 private:
  std::function<void()> body_;
  char* stack_;  ///< owned; returned to FiberStackPool on destruction
  bool finished_ = false;
  bool running_ = false;

#if defined(__SANITIZE_ADDRESS__)
  // AddressSanitizer must be told about every stack switch
  // (__sanitizer_start_switch_fiber / finish_switch_fiber), else its
  // fake-stack bookkeeping misfires when exceptions unwind fiber stacks.
  void* asan_fiber_fake_ = nullptr;   ///< fiber-side fake-stack save
  void* asan_sched_fake_ = nullptr;   ///< scheduler-side fake-stack save
  const void* asan_sched_bottom_ = nullptr;
  std::size_t asan_sched_size_ = 0;
 public:
  /// Internal (trampoline) hooks — do not call.
  void asan_on_first_entry();
 private:
#endif

#if defined(BPRC_FIBER_USE_UCONTEXT)
  ucontext_t self_ctx_;
  ucontext_t return_ctx_;
#else
  void* self_sp_ = nullptr;    // fiber's saved stack pointer while suspended
  void* return_sp_ = nullptr;  // scheduler's saved stack pointer while fiber runs
#endif
};

}  // namespace bprc
