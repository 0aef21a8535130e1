#include "consensus/driver.hpp"

#include <algorithm>

#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bprc {

/// Collects results and evaluates the correctness properties after a run.
ConsensusRunResult evaluate_consensus(const ConsensusProtocol& protocol,
                                      const std::vector<int>& inputs,
                                      const Runtime& rt, RunResult run,
                                      const std::vector<bool>& crashed) {
  const int n = static_cast<int>(inputs.size());
  ConsensusRunResult out;
  out.total_steps = run.steps;
  out.reason = run.reason;
  out.footprint = protocol.footprint();

  out.decisions.resize(static_cast<std::size_t>(n), -1);
  out.decision_rounds.resize(static_cast<std::size_t>(n), 0);
  out.proc_steps.resize(static_cast<std::size_t>(n), 0);
  out.all_decided = true;
  out.consistent = true;
  int decided_value = -1;
  for (ProcId p = 0; p < n; ++p) {
    const int d = protocol.decision(p);
    out.decisions[static_cast<std::size_t>(p)] = d;
    out.decision_rounds[static_cast<std::size_t>(p)] =
        protocol.decision_round(p);
    out.proc_steps[static_cast<std::size_t>(p)] = rt.steps(p);
    out.max_proc_steps = std::max(out.max_proc_steps, rt.steps(p));
    if (d == -1) {
      if (!crashed[static_cast<std::size_t>(p)]) out.all_decided = false;
      continue;
    }
    BPRC_REQUIRE(d == 0 || d == 1, "protocol decided a non-bit value");
    out.max_round = std::max(out.max_round,
                             out.decision_rounds[static_cast<std::size_t>(p)]);
    if (decided_value == -1) {
      decided_value = d;
    } else if (decided_value != d) {
      out.consistent = false;  // the cardinal sin
    }
  }

  // Validity: unanimous input forces that decision. Also require that any
  // decision equals some process's input (holds for binary consensus
  // whenever any two inputs differ, and pins the unanimous case).
  out.valid = true;
  const bool unanimous =
      std::all_of(inputs.begin(), inputs.end(),
                  [&](int v) { return v == inputs.front(); });
  if (decided_value != -1) {
    if (unanimous && decided_value != inputs.front()) out.valid = false;
    if (std::find(inputs.begin(), inputs.end(), decided_value) ==
        inputs.end()) {
      out.valid = false;
    }
  }

  // Bounded memory: a protocol claiming boundedness must keep its largest
  // stored counter within the static bound it declares for itself.
  out.bounded_ok = !(out.footprint.bounded && out.footprint.static_bound > 0 &&
                     out.footprint.max_counter > out.footprint.static_bound);
  return out;
}

const char* to_string(FailureClass f) {
  switch (f) {
    case FailureClass::kNone:          return "none";
    case FailureClass::kConsistency:   return "consistency";
    case FailureClass::kValidity:      return "validity";
    case FailureClass::kBoundedMemory: return "bounded-memory";
    case FailureClass::kTermination:   return "termination";
    case FailureClass::kWorkerCrash:   return "worker-crash";
  }
  return "?";
}

FailureClass failure_class_from_string(const std::string& name) {
  for (const FailureClass f :
       {FailureClass::kConsistency, FailureClass::kValidity,
        FailureClass::kBoundedMemory, FailureClass::kTermination,
        FailureClass::kWorkerCrash}) {
    if (name == to_string(f)) return f;
  }
  return FailureClass::kNone;
}

SimReuse::SimReuse() = default;
SimReuse::~SimReuse() = default;

SimRuntime& SimReuse::acquire(int nprocs,
                              std::unique_ptr<Adversary> adversary,
                              std::uint64_t seed) {
  // Single-owner contract: the pooled fiber stacks are thread-local, so
  // a SimReuse touched from two threads would corrupt the pool silently.
  // Fail loudly instead.
  if (owner_ == std::thread::id{}) {
    owner_ = std::this_thread::get_id();
  } else {
    BPRC_REQUIRE(owner_ == std::this_thread::get_id(),
                 "SimReuse acquired from a second thread; it is "
                 "single-owner — use one SimReuse per worker thread");
  }
  if (runtime_ == nullptr) {
    runtime_ =
        std::make_unique<SimRuntime>(nprocs, std::move(adversary), seed);
  } else {
    runtime_->reset(nprocs, std::move(adversary), seed);
  }
  return *runtime_;
}

ConsensusRunResult run_consensus_sim(const ProtocolFactory& factory,
                                     const std::vector<int>& inputs,
                                     std::unique_ptr<Adversary> adversary,
                                     std::uint64_t seed,
                                     std::uint64_t max_steps,
                                     std::chrono::nanoseconds deadline,
                                     SimReuse* reuse,
                                     const std::vector<bool>* forced_flips,
                                     RegisterSemantics semantics,
                                     ScheduleRecord* record) {
  const int n = static_cast<int>(inputs.size());
  // Recycled or freshly built, the runtime behaves identically; the
  // protocol instance is always fresh and dies with this call.
  std::unique_ptr<SimRuntime> local;
  if (reuse == nullptr) {
    local = std::make_unique<SimRuntime>(n, std::move(adversary), seed);
  }
  SimRuntime& rt =
      reuse != nullptr ? reuse->acquire(n, std::move(adversary), seed) : *local;
  // Before the factory: the protocol's registers cache the semantics at
  // construction. reset() reverts a pooled runtime to atomic, so this
  // must be re-applied per trial.
  rt.set_register_semantics(semantics);
  rt.set_record(record);
  const std::unique_ptr<ConsensusProtocol> protocol = factory(rt);
  for (ProcId p = 0; p < n; ++p) {
    const int input = inputs[static_cast<std::size_t>(p)];
    rt.spawn(p, [&protocol, input] { protocol->propose(input); });
  }
  ScriptedFlipTape tape(forced_flips != nullptr ? *forced_flips
                                                : std::vector<bool>{});
  if (forced_flips != nullptr) rt.set_flip_tape(&tape);
  const RunResult run = rt.run(max_steps, deadline);
  // The tape dies with this call; never leave a pooled runtime pointing
  // at it (nor at the record).
  if (forced_flips != nullptr) rt.set_flip_tape(nullptr);
  rt.set_record(nullptr);
  std::vector<bool> crashed(static_cast<std::size_t>(n), false);
  for (ProcId p = 0; p < n; ++p) crashed[static_cast<std::size_t>(p)] = rt.crashed(p);
  return evaluate_consensus(*protocol, inputs, rt, run, crashed);
}

ConsensusRunResult run_consensus_threads(const ProtocolFactory& factory,
                                         const std::vector<int>& inputs,
                                         std::uint64_t seed,
                                         std::uint64_t max_steps,
                                         double yield_prob,
                                         std::chrono::nanoseconds deadline) {
  const int n = static_cast<int>(inputs.size());
  ThreadRuntime rt(n, seed, yield_prob);
  const std::unique_ptr<ConsensusProtocol> protocol = factory(rt);
  for (ProcId p = 0; p < n; ++p) {
    const int input = inputs[static_cast<std::size_t>(p)];
    rt.spawn(p, [&protocol, input] { protocol->propose(input); });
  }
  const RunResult run = rt.run(max_steps, deadline);
  const std::vector<bool> crashed(static_cast<std::size_t>(n), false);
  return evaluate_consensus(*protocol, inputs, rt, run, crashed);
}

std::vector<std::vector<int>> standard_input_patterns(int n,
                                                      std::uint64_t seed) {
  std::vector<std::vector<int>> patterns;
  patterns.emplace_back(static_cast<std::size_t>(n), 0);  // unanimous 0
  patterns.emplace_back(static_cast<std::size_t>(n), 1);  // unanimous 1
  if (n >= 2) {
    std::vector<int> split(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n / 2; ++i) split[static_cast<std::size_t>(i)] = 1;
    patterns.push_back(split);  // half/half
    std::vector<int> lone(static_cast<std::size_t>(n), 0);
    lone[0] = 1;
    patterns.push_back(lone);  // single dissenter
  }
  Rng rng(seed);
  std::vector<int> random(static_cast<std::size_t>(n));
  for (auto& v : random) v = rng.flip() ? 1 : 0;
  patterns.push_back(random);
  return patterns;
}

}  // namespace bprc
