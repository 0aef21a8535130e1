// TrialExecutor: the one trial loop every sweep in the repo runs on.
//
// A sweep is a deterministic *generator* of specs plus a single-threaded
// *sink* of outcomes. The calling thread of run_ordered() is the
// coordinator: it pulls specs from the generator in order, pushes them
// into a bounded window, and delivers outcomes to the sink **strictly in
// generation order**. A pool of worker threads — one SimReuse pinned per
// worker, so the simulator's recycled fiber stacks and process tables
// never cross a thread — only claims specs from the window, executes
// them, and stores the outcomes. Consequences:
//
//   * determinism: the sink observes the identical (index, spec, outcome)
//     sequence at any --jobs level, so campaign logs, failure lists,
//     table rows, and .bprc-repro artifacts are byte-identical whether a
//     sweep ran on 1 worker or 64 (tests/test_engine.cpp pins this);
//   * early stop: a sink returning false stops the sweep after a
//     deterministic prefix — workers may have speculatively executed
//     later specs, but those outcomes are discarded undelivered;
//   * bounded memory: at most `window` specs are in flight, so a
//     million-trial campaign never materializes a million outcomes.
//
// jobs <= 1 runs the exact serial path of the pre-engine harnesses: no
// threads are spawned, the generator/executor/sink alternate on the
// calling thread with one calling-thread SimReuse. Replay tooling must
// use this mode (docs/TESTING.md): parallelism never changes results,
// but it reorders *wall-clock* interleaving, which the watchdog reads.
//
// At every jobs level the generator and the sink run on the calling
// thread, one call at a time, outside the executor lock: they may own
// thread-affine state (the explorer's DFS drives its own SimRuntime from
// the generator) and may take as long as they need while the workers
// keep executing. Only the execute stage runs on the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "engine/trial.hpp"

namespace bprc::engine {

/// Ceiling on a requested worker count (--jobs, --workers, BPRC_JOBS):
/// a larger number is a typo, and honoring it would start that many
/// threads or processes.
inline constexpr unsigned kMaxJobs = 1024;

/// Worker-thread count for jobs=0 ("use the machine").
inline unsigned default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct ExecutorConfig {
  unsigned jobs = 0;       ///< worker threads; 0 = default_jobs(), 1 = serial
  std::size_t window = 0;  ///< max specs in flight; 0 = 4 * jobs
};

class TrialExecutor {
 public:
  explicit TrialExecutor(ExecutorConfig config = {}) : config_(config) {
    if (config_.jobs == 0) config_.jobs = default_jobs();
    if (config_.window == 0) config_.window = 4 * config_.jobs;
    if (config_.window < config_.jobs) config_.window = config_.jobs;
  }

  unsigned jobs() const { return config_.jobs; }

  /// Generic ordered sweep: `next` yields specs (nullopt = end of
  /// stream), `execute` runs one spec on a worker (its thread-pinned
  /// SimReuse supplied), `sink` consumes outcomes in generation order
  /// (return false to stop); `next` and `sink` run on the calling
  /// thread. Spec/Outcome are arbitrary movable types — the consensus
  /// pipeline below is one instantiation, the coin-toss bench another.
  template <typename Spec, typename Outcome>
  void run_ordered(
      const std::function<std::optional<Spec>()>& next,
      const std::function<Outcome(const Spec&, SimReuse&)>& execute,
      const std::function<bool(std::size_t, const Spec&, Outcome&&)>& sink)
      const {
    if (config_.jobs <= 1) {
      // The exact serial path: generate, execute, deliver, repeat.
      SimReuse reuse;
      for (std::size_t index = 0;; ++index) {
        std::optional<Spec> spec = next();
        if (!spec.has_value()) return;
        Outcome out = execute(*spec, reuse);
        if (!sink(index, *spec, std::move(out))) return;
      }
    }
    run_parallel<Spec, Outcome>(next, execute, sink);
  }

  /// The consensus-trial instantiation: run_trial over TrialSpecs.
  void run_trials(
      const std::function<std::optional<TrialSpec>()>& next,
      const std::function<bool(std::size_t, const TrialSpec&, TrialOutcome&&)>&
          sink) const {
    run_ordered<TrialSpec, TrialOutcome>(
        next,
        [](const TrialSpec& spec, SimReuse& reuse) {
          return run_trial(spec, &reuse);
        },
        sink);
  }

  /// Index-range sweep with resume: executes `spec_at(i)` for every i in
  /// [begin, end), delivering outcomes to the sink keyed by the *global*
  /// index i, in order. Because a sweep's matrix is enumerated up front
  /// and specs are pure functions of their index, any sub-range is
  /// independently executable — this is the primitive the shard layer
  /// (src/shard/) builds on: shard i/k runs one contiguous range, and a
  /// respawned worker resumes from its predecessor's first undelivered
  /// index with nothing lost and nothing repeated.
  void run_trials_range(
      const std::function<TrialSpec(std::size_t)>& spec_at, std::size_t begin,
      std::size_t end,
      const std::function<bool(std::size_t, const TrialSpec&, TrialOutcome&&)>&
          sink) const {
    std::size_t next = begin;
    run_trials(
        [&]() -> std::optional<TrialSpec> {
          if (next >= end) return std::nullopt;
          return spec_at(next++);
        },
        [&](std::size_t local, const TrialSpec& spec, TrialOutcome&& out) {
          return sink(begin + local, spec, std::move(out));
        });
  }

 private:
  template <typename Spec, typename Outcome>
  void run_parallel(
      const std::function<std::optional<Spec>()>& next,
      const std::function<Outcome(const Spec&, SimReuse&)>& execute,
      const std::function<bool(std::size_t, const Spec&, Outcome&&)>& sink)
      const {
    struct Slot {
      Spec spec;
      std::optional<Outcome> outcome;
    };
    std::mutex m;
    std::condition_variable work_cv;  ///< a spec was pushed, or stop
    std::condition_variable done_cv;  ///< a worker stored an outcome
    // In-flight window. std::deque keeps element references stable across
    // push_back/pop_front, so a worker can hold its claimed slot across
    // the unlocked execute stage.
    std::deque<Slot> window;
    std::size_t window_base = 0;  ///< generation index of window.front()
    std::size_t claimed = 0;      ///< generation index of the next claim
    bool stop = false;            ///< sweep over: workers exit

    auto worker = [&] {
      SimReuse reuse;  // pinned to this worker thread for its lifetime
      std::unique_lock<std::mutex> lk(m);
      for (;;) {
        work_cv.wait(lk, [&] {
          return stop || claimed < window_base + window.size();
        });
        if (stop) return;
        // Specs are claimed in generation order, so the unclaimed ones
        // are the window's tail.
        Slot& slot = window[claimed++ - window_base];
        lk.unlock();
        Outcome out = execute(slot.spec, reuse);
        lk.lock();
        slot.outcome.emplace(std::move(out));
        done_cv.notify_one();
      }
    };

    std::vector<std::thread> pool;
    // Every way out of the coordinator stops and joins the pool, an
    // exception from the generator or the sink included.
    auto stop_workers = [&] {
      {
        const std::lock_guard<std::mutex> guard(m);
        stop = true;
      }
      work_cv.notify_all();
      for (std::thread& t : pool) t.join();
    };
    try {
      pool.reserve(config_.jobs);
      for (unsigned i = 0; i < config_.jobs; ++i) pool.emplace_back(worker);

      // The coordinator: deliver the completed prefix, else refill the
      // window, else wait for a worker. The sink and the generator run
      // unlocked, so the workers keep claiming meanwhile.
      bool exhausted = false;  ///< generator returned nullopt
      std::unique_lock<std::mutex> lk(m);
      for (;;) {
        if (!window.empty() && window.front().outcome.has_value()) {
          Slot front = std::move(window.front());
          window.pop_front();
          const std::size_t index = window_base++;
          lk.unlock();
          const bool more =
              sink(index, front.spec, std::move(*front.outcome));
          lk.lock();
          if (!more) break;
          continue;
        }
        if (!exhausted && window.size() < config_.window) {
          lk.unlock();
          std::optional<Spec> spec = next();
          lk.lock();
          if (!spec.has_value()) {
            exhausted = true;
          } else {
            window.push_back(Slot{std::move(*spec), std::nullopt});
            work_cv.notify_one();
          }
          continue;
        }
        if (window.empty()) break;  // exhausted and fully delivered
        done_cv.wait(lk);
      }
    } catch (...) {
      stop_workers();
      throw;
    }
    stop_workers();
  }

  ExecutorConfig config_;
};

}  // namespace bprc::engine
