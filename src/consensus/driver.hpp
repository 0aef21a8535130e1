// Experiment driver: runs one consensus instance end to end and checks
// the paper's correctness properties on the spot.
//
//   consistency — no two processes decided different values;
//   validity    — if all inputs were equal, the decision is that input;
//   decision ∈ inputs — the decided value is some process's input
//                 (implied by validity for unanimous inputs; checked
//                 always, it holds for every protocol here);
//   termination — every non-crashed process decided within the budget.
//
// Every run is parameterized by (protocol factory, inputs, adversary,
// seed, step budget) and is bit-for-bit reproducible in the simulator.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consensus/protocol.hpp"
#include "runtime/adversary.hpp"
#include "runtime/runtime.hpp"

namespace bprc {

class SimRuntime;

/// Builds a protocol instance bound to the given runtime.
using ProtocolFactory =
    std::function<std::unique_ptr<ConsensusProtocol>(Runtime&)>;

/// Cross-trial simulator scratch, and the one way the library's run paths
/// (run_consensus_sim, the trial executor's workers, the explorer)
/// obtain a simulator. Holds one SimRuntime and recycles it (fiber
/// stacks, process tables) across runs instead of constructing a fresh
/// one per trial. Strictly an allocator-level optimization: results are
/// bit-identical with and without reuse (tests/test_replay.cpp pins
/// this).
///
/// A SimReuse is SINGLE-OWNER: exactly one thread may ever acquire() it
/// (the fiber stacks it pools are thread-local, and the runtime is not
/// synchronized). The owner is the first thread to call acquire(), and
/// the contract is asserted on every subsequent acquire so misuse fails
/// loudly instead of racing. Parallel sweeps get one SimReuse per worker
/// thread — engine/executor.hpp does exactly that.
class SimReuse {
 public:
  SimReuse();
  ~SimReuse();
  SimReuse(const SimReuse&) = delete;
  SimReuse& operator=(const SimReuse&) = delete;

  /// A runtime re-armed for (nprocs, adversary, seed); constructed on
  /// first use, reset() thereafter. BPRC_REQUIREs that every call comes
  /// from the same thread as the first.
  SimRuntime& acquire(int nprocs, std::unique_ptr<Adversary> adversary,
                      std::uint64_t seed);

 private:
  std::unique_ptr<SimRuntime> runtime_;
  std::thread::id owner_;  ///< set by the first acquire()
};

/// Which correctness property a run violated, in decreasing severity.
/// Distinct from RunResult::Reason on purpose: the reason says how the
/// run *ended* (all done / step budget / watchdog), the failure class
/// says which *claim of the paper* broke. A budget-exhausted run is a
/// kTermination failure with reason kBudget; a watchdog abort is
/// kTermination with reason kDeadline; a consistency violation is
/// kConsistency whatever the reason.
enum class FailureClass : std::uint8_t {
  kNone = 0,
  kConsistency,    ///< two processes decided different values
  kValidity,       ///< decision outside the inputs / non-unanimous echo
  kBoundedMemory,  ///< a bounded protocol exceeded its static bound
  kTermination,    ///< a correct process failed to decide
  /// The trial killed the OS process executing it (segfault, abort, …).
  /// Never produced by ConsensusRunResult::failure() — the run never
  /// came back to be graded; the shard coordinator (src/shard/) assigns
  /// it when a spec index crashes its worker past the respawn budget.
  kWorkerCrash,
};

const char* to_string(FailureClass f);

/// Parses the names produced by to_string(FailureClass); kNone on mismatch.
FailureClass failure_class_from_string(const std::string& name);

struct ConsensusRunResult {
  bool all_decided = false;   ///< every non-crashed process decided
  bool consistent = false;    ///< no two decisions differ
  bool valid = false;         ///< unanimous input => that decision
  bool bounded_ok = true;     ///< footprint respects the protocol's own
                              ///< static bound (trivially true when the
                              ///< protocol claims no bound)
  std::vector<int> decisions; ///< per process; -1 = none (crashed/budget)
  std::vector<std::int64_t> decision_rounds;
  std::uint64_t total_steps = 0;
  std::uint64_t max_proc_steps = 0;
  std::vector<std::uint64_t> proc_steps;  ///< per process
  std::int64_t max_round = 0;  ///< max decision round over deciders
  MemoryFootprint footprint;
  RunResult::Reason reason = RunResult::Reason::kAllDone;

  /// True iff every correctness property holds (termination of crashed
  /// processes excepted, naturally).
  bool ok() const { return all_decided && consistent && valid && bounded_ok; }

  /// The most severe violated property, kNone when ok().
  FailureClass failure() const {
    if (!consistent) return FailureClass::kConsistency;
    if (!valid) return FailureClass::kValidity;
    if (!bounded_ok) return FailureClass::kBoundedMemory;
    if (!all_decided) return FailureClass::kTermination;
    return FailureClass::kNone;
  }
};

/// Evaluates the correctness properties of a finished (or truncated) run:
/// fills a ConsensusRunResult from the protocol's decisions, the run
/// outcome, and the crash record. Exposed so harnesses that drive the
/// runtime themselves — the exploration driver foremost — grade runs with
/// exactly the same oracle as run_consensus_sim.
ConsensusRunResult evaluate_consensus(const ConsensusProtocol& protocol,
                                      const std::vector<int>& inputs,
                                      const Runtime& rt, RunResult run,
                                      const std::vector<bool>& crashed);

/// Runs one instance in the deterministic simulator. `deadline` (zero =
/// off) arms the simulator's wall-clock watchdog; see SimRuntime::run.
/// `reuse` (optional) recycles a simulator across calls — pass the same
/// SimReuse to every trial of a sweep to skip per-trial fiber-stack and
/// process-table allocation; null runs on a SimReuse local to the call.
/// The result is bit-identical either way.
/// `forced_flips` (optional) replays a recorded local-coin flip prefix
/// through a ScriptedFlipTape — the replay half of the exploration
/// driver's coin branching; null leaves the coins untouched.
/// `semantics` weakens the registers the protocol is built on (applied to
/// the runtime before the factory runs — registers cache it); the
/// adversary's resolve_read arbitrates every read that overlaps an
/// in-flight write. `record` (optional) receives the run's picks, crashes
/// and stale-read choices (SimRuntime::set_record).
ConsensusRunResult run_consensus_sim(
    const ProtocolFactory& factory, const std::vector<int>& inputs,
    std::unique_ptr<Adversary> adversary, std::uint64_t seed,
    std::uint64_t max_steps,
    std::chrono::nanoseconds deadline = std::chrono::nanoseconds::zero(),
    SimReuse* reuse = nullptr, const std::vector<bool>* forced_flips = nullptr,
    RegisterSemantics semantics = RegisterSemantics::kAtomic,
    ScheduleRecord* record = nullptr);

/// Runs one instance on real threads (kernel scheduler as adversary).
/// `deadline` (zero = off) arms the watchdog; see ThreadRuntime::run.
ConsensusRunResult run_consensus_threads(
    const ProtocolFactory& factory, const std::vector<int>& inputs,
    std::uint64_t seed, std::uint64_t max_steps, double yield_prob = 0.05,
    std::chrono::nanoseconds deadline = std::chrono::nanoseconds::zero());

/// Input patterns the test matrix sweeps.
std::vector<std::vector<int>> standard_input_patterns(int n,
                                                      std::uint64_t seed);

}  // namespace bprc
