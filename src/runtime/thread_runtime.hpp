// Preemptive runtime: real OS threads, the kernel scheduler as adversary.
//
// Complements the deterministic simulator with genuinely concurrent
// execution: register implementations must be linearizable under real
// data races, not just under the simulator's serialized steps. Optional
// random yields at checkpoints coax the kernel into more diverse
// interleavings than it produces on its own.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace bprc {

class ThreadRuntime final : public Runtime {
 public:
  /// `yield_prob` is the probability that a checkpoint calls
  /// std::this_thread::yield() — interleaving jitter for a 1-core host.
  ThreadRuntime(int nprocs, std::uint64_t seed, double yield_prob = 0.05);

  /// Registers the body of process p. Must be called before run().
  void spawn(ProcId p, std::function<void()> body);

  /// Starts one jthread per spawned process and joins them all. When the
  /// step budget is exhausted, checkpoints start throwing ProcessStopped
  /// and remaining threads unwind.
  ///
  /// `deadline` arms a watchdog thread: once the wall-clock budget
  /// elapses, every subsequent checkpoint throws ProcessStopped and the
  /// run returns Reason::kDeadline instead of hanging CI forever. The
  /// watchdog can only interrupt code that still reaches checkpoints (a
  /// thread wedged inside a primitive is beyond rescue without kill());
  /// protocol code checkpoints at every shared-memory operation, which is
  /// exactly where livelocks spin. Zero disables the watchdog.
  RunResult run(std::uint64_t max_steps,
                std::chrono::nanoseconds deadline = std::chrono::nanoseconds::zero());

  /// Parked checkpoint: blocks the calling process until `expected`
  /// processes (itself included) are parked here, then releases them all
  /// at once. Native litmus workloads use it as a start gate so the
  /// contending operations genuinely overlap instead of running in spawn
  /// order. The wait is stop-aware: the watchdog's deadline, the step
  /// budget, and run teardown all wake parked processes, which then
  /// unwind via ProcessStopped — a parked process can never outlive its
  /// run (regression-tested in test_thread_runtime).
  void rendezvous(int expected);

  /// Installs (or clears, with nullptr) the native-atomics observer.
  /// Must be set before the shared objects that should report to it are
  /// constructed — they cache the pointer (see MemActionSink).
  void set_mem_sink(MemActionSink* sink) { mem_sink_ = sink; }

  // --- Runtime interface ---
  int nprocs() const override { return static_cast<int>(procs_.size()); }
  ProcId self() const override;
  void checkpoint(const OpDesc& op) override;
  std::uint64_t now() override { return now_.fetch_add(1) + 1; }
  Rng& rng() override;
  void publish_hint(const Hint& hint) override;
  std::uint64_t steps(ProcId p) const override;
  std::uint64_t total_steps() const override { return total_steps_.load(); }
  MemActionSink* mem_sink() const override { return mem_sink_; }

 private:
  struct Proc {
    std::function<void()> body;
    Rng rng{0};
    std::atomic<std::uint64_t> steps{0};
    Hint hint;  ///< guarded by hint_mutex_
  };

  std::size_t checked(ProcId p) const;

  /// Sets stop_ and wakes every process parked in rendezvous(). All paths
  /// that begin teardown (budget exhaustion, watchdog deadline) go through
  /// here so a parked process cannot sleep through the shutdown.
  void raise_stop();

  std::vector<Proc> procs_;
  double yield_prob_;
  std::atomic<std::uint64_t> total_steps_{0};
  std::atomic<std::uint64_t> now_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> deadline_hit_{false};
  std::uint64_t max_steps_ = 0;
  mutable std::mutex hint_mutex_;
  bool ran_ = false;
  MemActionSink* mem_sink_ = nullptr;

  // rendezvous() barrier state, guarded by park_mu_.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::uint64_t park_gen_ = 0;
  int park_waiting_ = 0;
};

}  // namespace bprc
