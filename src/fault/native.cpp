#include "fault/native.hpp"

#include <memory>
#include <utility>

#include "consensus/abrahamson.hpp"
#include "registers/native/native_registers.hpp"
#include "registers/native/native_scannable.hpp"
#include "runtime/thread_runtime.hpp"
#include "util/assert.hpp"
#include "verify/weakmem/recorder.hpp"

namespace bprc {

namespace {

/// Common scaffolding: build a ThreadRuntime, optionally attach a
/// recorder, run `setup` to construct the shared objects and spawn
/// bodies, then join, drain, check, and persist.
struct Harness {
  explicit Harness(const NativeRunOptions& opts, const std::string& name)
      : opts_(opts), name_(name), rt_(opts.nprocs, opts.seed, opts.yield_prob) {
    if (opts.check_sc) {
      recorder_ = std::make_unique<weakmem::WeakMemRecorder>(opts.nprocs);
      recorder_->recording().case_name = name;
      rt_.set_mem_sink(recorder_.get());
    }
  }

  ThreadRuntime& rt() { return rt_; }

  /// Joins the run, runs `drain` (post-join store-buffer drains), then
  /// the checker, then writes the artifact if requested.
  template <class Drain>
  NativeOutcome finish(Drain&& drain) {
    NativeOutcome out;
    out.run = rt_.run(opts_.max_steps, opts_.deadline);
    drain();
    if (recorder_ != nullptr) {
      out.sc = weakmem::check_sc(recorder_->recording());
      out.checked = true;
      if (!out.sc.ok() && !opts_.artifact_path.empty()) {
        if (weakmem::save_recording(recorder_->recording(),
                                    opts_.artifact_path)) {
          out.artifact = opts_.artifact_path;
        }
      }
      out.recording = std::move(recorder_->recording());
    }
    return out;
  }

  const NativeRunOptions& opts_;
  std::string name_;
  ThreadRuntime rt_;
  std::unique_ptr<weakmem::WeakMemRecorder> recorder_;
};

/// Body that runs body(i) for iters iterations (ProcessStopped unwinds
/// through it to the runtime's handler).
template <class Body>
std::function<void()> iterate(int iters, Body body) {
  return [iters, body] {
    for (int i = 0; i < iters; ++i) body(i);
  };
}

NativeOutcome run_swmr_collect(const NativeRunOptions& opts) {
  Harness h(opts, "swmr-collect");
  std::vector<std::unique_ptr<NativeSWMR>> regs;
  for (ProcId p = 0; p < opts.nprocs; ++p) {
    regs.push_back(std::make_unique<NativeSWMR>(
        h.rt(), p, ("swmr" + std::to_string(p)).c_str(), 0, p));
  }
  for (ProcId p = 0; p < opts.nprocs; ++p) {
    const int n = opts.nprocs;
    h.rt().spawn(p, iterate(opts.iters, [&regs, p, n](int i) {
      // Everyone is at once the single writer of its own register and a
      // reader of all others — the paper's V_i communication pattern.
      regs[static_cast<std::size_t>(p)]->write(
          static_cast<std::uint64_t>(i + 1));
      for (ProcId j = 0; j < n; ++j) {
        regs[static_cast<std::size_t>(j)]->read();
      }
    }));
  }
  return h.finish([&] {});
}

NativeOutcome run_counter_walk(const NativeRunOptions& opts) {
  Harness h(opts, "counter-walk");
  NativeBoundedCounter counter(h.rt(), /*bound=*/8, "ctr", 0);
  for (ProcId p = 0; p < opts.nprocs; ++p) {
    h.rt().spawn(p, iterate(opts.iters, [&counter, &rt = h.rt()](int) {
      // The paper's random-walk usage: ±1 steps, clamped at the bound,
      // interleaved with reads.
      counter.add(rt.rng().flip() ? 1 : -1);
      const std::int64_t v = counter.read();
      BPRC_REQUIRE(v >= -counter.bound() && v <= counter.bound(),
                   "counter escaped its bound");
    }));
  }
  return h.finish([&] {});
}

NativeOutcome run_strip_handoff(const NativeRunOptions& opts) {
  Harness h(opts, "strip-handoff");
  NativeStripCell cell(h.rt(), 0, "strip", 0);
  for (ProcId p = 0; p < opts.nprocs; ++p) {
    const auto symbol = static_cast<std::uint64_t>(p + 1);
    const auto alphabet = static_cast<std::uint64_t>(opts.nprocs + 1);
    h.rt().spawn(p, iterate(opts.iters, [&cell, symbol, alphabet](int) {
      cell.write(symbol);
      const std::uint64_t seen = cell.read();
      BPRC_REQUIRE(seen < alphabet, "strip symbol outside the alphabet");
    }));
  }
  return h.finish([&] {});
}

NativeOutcome run_scan_storm(const NativeRunOptions& opts) {
  Harness h(opts, "scan-storm");
  NativeScannableMemory<std::uint64_t> mem(h.rt(), 0);
  for (ProcId p = 0; p < opts.nprocs; ++p) {
    h.rt().spawn(p, [&mem, p, iters = opts.iters] {
      std::vector<std::uint64_t> view;
      for (int i = 0; i < iters; ++i) {
        mem.write(static_cast<std::uint64_t>(i + 1));
        mem.scan_into(view);
        // The scanner's own slot must reflect its own latest write —
        // the snapshot property a stale collect would break.
        BPRC_REQUIRE(view[static_cast<std::size_t>(p)] ==
                         static_cast<std::uint64_t>(i + 1),
                     "scan lost the scanner's own write");
      }
    });
  }
  return h.finish([&] {});
}

NativeOutcome run_native_consensus(const NativeRunOptions& opts) {
  Harness h(opts, "consensus");
  BasicLocalCoinConsensus<NativeScannableMemory<LocalCoinRecord>> protocol(
      h.rt());
  std::vector<int> inputs(static_cast<std::size_t>(opts.nprocs));
  for (ProcId p = 0; p < opts.nprocs; ++p) {
    inputs[static_cast<std::size_t>(p)] = p % 2;  // split inputs: the
    // adversaryless thread schedule still has to reach agreement
    h.rt().spawn(p, [&protocol, input = inputs[static_cast<std::size_t>(p)]] {
      protocol.propose(input);
    });
  }
  NativeOutcome out = h.finish([&] {});
  const std::vector<bool> crashed(static_cast<std::size_t>(opts.nprocs), false);
  out.consensus =
      evaluate_consensus(protocol, inputs, h.rt(), out.run, crashed);
  out.graded_consensus = true;
  return out;
}

NativeOutcome run_broken_relaxed(const NativeRunOptions& opts) {
  // The store-buffering litmus (§docs/MEMORY_ORDERS.md): two threads,
  // two registers, W(x) R(y) ∥ W(y) R(x). The emulated store buffers
  // keep both writes invisible until after the join, so both reads see
  // the initial value on every host — a deterministic po ∪ fr cycle the
  // checker must reject.
  BPRC_REQUIRE(opts.nprocs >= 2, "broken-relaxed needs two processes");
  Harness h(opts, "broken-relaxed");
  BrokenRelaxedRegister x(h.rt(), "x", 0, 0);
  BrokenRelaxedRegister y(h.rt(), "y", 0, 1);
  h.rt().spawn(0, [&] {
    h.rt().rendezvous(2);
    x.write(1);
    (void)y.read();
  });
  h.rt().spawn(1, [&] {
    h.rt().rendezvous(2);
    y.write(1);
    (void)x.read();
  });
  return h.finish([&] {
    x.drain_all();
    y.drain_all();
  });
}

}  // namespace

const std::vector<NativeCaseSpec>& native_cases() {
  static const std::vector<NativeCaseSpec> cases = {
      {"swmr-collect", false,
       "n SWMR registers, every process writes its own and collects all"},
      {"counter-walk", false,
       "one bounded counter, random ±1 walks from every process"},
      {"strip-handoff", false,
       "one strip cell, CAS writes of per-process symbols"},
      {"scan-storm", false,
       "scannable memory, every process alternates write and scan"},
      {"consensus", false,
       "local-coin consensus on native scannable memory, split inputs"},
      {"broken-relaxed", true,
       "store-buffering litmus on the deliberately relaxed register"},
  };
  return cases;
}

const NativeCaseSpec* find_native_case(const std::string& name) {
  for (const NativeCaseSpec& spec : native_cases()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

NativeOutcome run_native_case(const std::string& name,
                              const NativeRunOptions& opts) {
  const NativeCaseSpec* spec = find_native_case(name);
  BPRC_REQUIRE(spec != nullptr, "unknown native case");
  if (name == "swmr-collect") return run_swmr_collect(opts);
  if (name == "counter-walk") return run_counter_walk(opts);
  if (name == "strip-handoff") return run_strip_handoff(opts);
  if (name == "scan-storm") return run_scan_storm(opts);
  if (name == "consensus") return run_native_consensus(opts);
  if (name == "broken-relaxed") return run_broken_relaxed(opts);
  BPRC_REQUIRE(false, "native case listed but not dispatched");
  return {};
}

}  // namespace bprc
