#include "explore/explorer.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <utility>

#include "engine/executor.hpp"
#include "explore/frontier.hpp"
#include "explore/leaf_grader.hpp"
#include "explore/seen_cache.hpp"
#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/assert.hpp"
#include "util/record_text.hpp"

namespace bprc::explore {

namespace {

constexpr std::uint64_t bit_of(ProcId p) {
  return std::uint64_t{1} << static_cast<unsigned>(p);
}

/// Independence relation for the sleep sets, read off pending OpDescs.
/// Conservative (sound) in both unknowns: an op with no object id (-1, or
/// the strong-coin's -2) conflicts with everything except pure local
/// computation, and any two ops on the same object conflict unless both
/// are reads. Kind::kNone means the process is before its first shared
/// operation — pure local computation, independent of everything.
bool independent(const OpDesc& a, const OpDesc& b) {
  if (a.kind == OpDesc::Kind::kNone || b.kind == OpDesc::Kind::kNone) {
    return true;
  }
  if (a.object < 0 || b.object < 0) return false;
  if (a.object != b.object) return true;
  return a.kind == OpDesc::Kind::kRead && b.kind == OpDesc::Kind::kRead;
}

class Explorer;

/// The backtracking adversary handed to the runtime: SimRuntime insists on
/// owning its adversary, so each execution gets a fresh forwarding shim.
class ExploreShim final : public Adversary {
 public:
  explicit ExploreShim(Explorer& explorer) : explorer_(explorer) {}
  ProcId pick(SimCtl& ctl) override;
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override;
  std::string name() const override { return "explore"; }

 private:
  Explorer& explorer_;
};

/// One choice point on the DFS trail — exactly what a frontier saves.
using Node = FrontierNode;

/// One enumerated execution on its way to deliver(). A cut leaf (batched
/// grading) carries only its replay prefix and is graded on an executor
/// worker; every other execution was settled on the DFS thread — graded
/// inline, pruned, or quarantined — and the execute stage hands
/// `settled` back.
struct Leaf {
  LeafSpec spec;
  std::optional<LeafOutcome> settled;
  /// The enumeration-side ExploreStats fields as they stood once this
  /// leaf was generated: a sweep stopped at this leaf's delivery reports
  /// these, not those of a DFS that ran up to a window ahead.
  ExploreStats enumerated;
};

/// The isolated crash verdict reads each child's exit status. An
/// inherited SIG_IGN for SIGCHLD (the disposition survives execve) makes
/// the kernel reap children itself, and waitpid() would then only ever
/// fail with ECHILD, so isolate mode resets it to SIG_DFL.
void make_children_waitable() {
  struct sigaction current {};
  BPRC_REQUIRE(::sigaction(SIGCHLD, nullptr, &current) == 0,
               "sigaction() failed reading the SIGCHLD disposition");
  if (current.sa_handler != SIG_IGN) return;
  BPRC_REQUIRE(::signal(SIGCHLD, SIG_DFL) != SIG_ERR,
               "signal() failed resetting SIGCHLD to SIG_DFL");
}

class Explorer final : public FlipTape, public TraceSink {
 public:
  Explorer(ExploreTarget& target, const ExploreLimits& limits,
           std::uint64_t seed, const FrontierOptions* frontier)
      : target_(target),
        limits_(limits),
        seed_(seed),
        nprocs_(target.nprocs()),
        frontier_(frontier != nullptr ? *frontier : FrontierOptions{}),
        cut_leaves_(limits.grade_jobs > 1),
        seen_(SeenCache::Layout::kCompact, limits.max_cache_bytes) {
    BPRC_REQUIRE(nprocs_ > 0, "explore target needs at least one process");
    BPRC_REQUIRE(nprocs_ <= kRunnableMaskBits,
                 "explorer masks cap the process count");
    BPRC_REQUIRE(!limits_.state_cache ||
                     limits_.branch_depth <= kMaxCachedBranchDepth,
                 "seen-state depth tags are 8-bit: branch_depth <= 255");
    BPRC_REQUIRE(!limits_.isolate_leaves || limits_.grade_jobs <= 1,
                 "isolated exploration forks: grade_jobs must be 1");
    if (limits_.split_count > 1) {
      BPRC_REQUIRE(limits_.split_index < limits_.split_count,
                   "frontier split index out of range");
      BPRC_REQUIRE(limits_.branch_depth >= 1,
                   "frontier split needs a branch region");
    }
    if (limits_.isolate_leaves) make_children_waitable();
    config_fp_ = config_fingerprint();
  }

  ExploreResult run() {
    t0_ = std::chrono::steady_clock::now();
    bool pending_backtrack = false;
    if (frontier_.resume != nullptr) {
      const Frontier& f = *frontier_.resume;
      BPRC_REQUIRE(f.fingerprint == config_fp_,
                   "frontier does not match this exploration configuration");
      if (f.complete) {
        // Nothing left to explore: the saved result is the result.
        return ExploreResult{f.stats, f.violations};
      }
      restore(f);
      pending_backtrack = true;  // saved trail is a post-execution snapshot
    }

    // One loop at every jobs level: the DFS runs here as the executor's
    // generator, the sink folds each execution into the result in
    // generation order, and at grade_jobs > 1 the workers grade the cut
    // leaves. A checkpoint boundary ends one run_ordered() call with
    // everything delivered; the next call resumes by backtracking.
    // The DFS is the slowest stage once a few workers grade, and it
    // waits whenever a full window's front leaf is still being graded,
    // so its window is twice the executor's default.
    const unsigned jobs = cut_leaves_ ? limits_.grade_jobs : 1;
    const engine::TrialExecutor executor(
        engine::ExecutorConfig{jobs, 8 * std::size_t{jobs}});
    Stop stop = Stop::kNone;
    ExploreStats stopped_at;  // Leaf::enumerated of a violation stop
    do {
      stop = Stop::kNone;
      executor.run_ordered<Leaf, LeafOutcome>(
          [&]() -> std::optional<Leaf> {
            if (stop != Stop::kNone) return std::nullopt;
            if (pending_backtrack && !backtrack()) return std::nullopt;
            pending_backtrack = true;
            Leaf leaf = execute_once();
            leaf.enumerated = enumeration_stats();
            if ((limits_.max_executions != 0 &&
                 enumerated_ >= limits_.max_executions) ||
                (limits_.max_states != 0 &&
                 stats_.states_visited >= limits_.max_states)) {
              stop = Stop::kValve;
            } else if (frontier_.checkpoint_every != 0 &&
                       !frontier_.checkpoint_path.empty() &&
                       enumerated_ % frontier_.checkpoint_every == 0) {
              stop = Stop::kCheckpoint;
            }
            return leaf;
          },
          [this](const Leaf& leaf, SimReuse& reuse) -> LeafOutcome {
            if (leaf.settled.has_value()) return *leaf.settled;
            return grade_leaf(target_, limits_, seed_, leaf.spec, reuse);
          },
          [&](std::size_t, const Leaf& leaf, LeafOutcome&& out) {
            deliver(leaf.spec, out);
            if (violations_.size() < limits_.max_violations) return true;
            // Stop after a deterministic prefix. With cut leaves the DFS
            // may have run up to a window ahead; the digest, the
            // violation list and, restored below, the enumeration-side
            // counters have not.
            stop = Stop::kViolations;
            stopped_at = leaf.enumerated;
            return false;
          });
      if (stop == Stop::kCheckpoint) save_checkpoint(/*complete=*/false);
    } while (stop == Stop::kCheckpoint);
    if (stop != Stop::kNone) stats_.complete = false;
    // The trail of a DFS that ran ahead of its deliveries describes no
    // delivered prefix, so no checkpoint can be taken from it.
    const bool checkpoint_safe = !(cut_leaves_ && stop == Stop::kViolations);

    finalize_stats(stop == Stop::kViolations ? stopped_at
                                             : enumeration_stats());
    if (!frontier_.checkpoint_path.empty() && checkpoint_safe) {
      save_checkpoint(stats_.complete);
    }
    return ExploreResult{stats_, std::move(violations_)};
  }

  // --- scheduling callback (via ExploreShim) ---
  ProcId pick(SimCtl& ctl) {
    const std::uint64_t runnable = ctl.runnable_mask();
    if (runnable == 0) return -1;  // defensive; run loop checks first

    if (cursor_ < trail_.size()) return replay_pick(runnable);

    if (past_frontier()) {
      if (cut_leaves_) {
        // The leaf is fully determined by its prefix: cut here and let
        // an executor worker replay prefix + deterministic tail.
        cut_ = true;
        return -1;
      }
      // Deterministic completion: with seed-derived coins every leaf is a
      // finished run the full oracle can grade.
      const ProcId p = round_robin_after(runnable, last_pick_, nprocs_);
      record_pick(p);
      return p;
    }

    // Frontier. Seen-state check first: a state already expanded at this
    // depth or shallower has had its whole (bounded) subtree explored.
    if (limits_.state_cache) {
      std::uint64_t key = fingerprint(ctl);
      key = fnv_mix(key, cur_sleep_);
      key = fnv_mix(key, coins_used_);
      if (limits_.semantics != RegisterSemantics::kAtomic) {
        // The remaining stale-read branching budget shapes the subtree
        // just like the coin budget does. Folded only when weakened, so
        // atomic-mode keys (and their pinned digests) are untouched.
        key = fnv_mix(key, stales_used_ + 1);
      }
      if (key == 0) key = kSeenZeroKey;  // 0 marks empty compact slots
      const SeenCache::Visit visit =
          seen_.visit(key, static_cast<std::uint8_t>(depth_));
      if (visit == SeenCache::Visit::kMerged) {
        ++stats_.states_merged;
        pruned_ = true;
        return -1;
      }
    }

    Node node;
    node.candidates = runnable;
    if (limits_.split_count > 1 && trail_.empty()) {
      node.candidates = split_candidates(runnable);
      if (node.candidates == 0) {
        // This slice owns none of the root's branches.
        pruned_ = true;
        return -1;
      }
    }
    node.sleep = limits_.sleep_sets ? (cur_sleep_ & node.candidates) : 0;
    node.ops.resize(static_cast<std::size_t>(nprocs_));
    for (ProcId p = 0; p < nprocs_; ++p) {
      node.ops[static_cast<std::size_t>(p)] = ctl.view(p).pending;
    }
    const std::uint64_t open = node.candidates & ~node.sleep;
    if (open == 0) {
      // Every enabled move commutes with an explored sibling of some
      // ancestor: this whole state is a permutation of a visited one.
      ++stats_.sleep_blocked;
      pruned_ = true;
      return -1;
    }
    node.chosen = static_cast<ProcId>(std::countr_zero(open));
    node.taken = 1;
    ++stats_.states_visited;
    cur_sleep_ = child_sleep(node, node.chosen);
    trail_.push_back(std::move(node));
    ++cursor_;
    record_pick(trail_.back().chosen);
    return trail_.back().chosen;
  }

  // --- FlipTape ---
  bool on_flip(bool drawn) override {
    if (cursor_ < trail_.size()) {
      Node& node = trail_[cursor_];
      if (node.is_coin) {
        ++cursor_;
        ++coins_used_;
        record_flip(node.coin_value, /*forced=*/true);
        return node.coin_value;
      }
      // The next recorded choice is a scheduling point, so when this
      // prefix was first executed the present flip drew from the seeded
      // generator (no coin node was created). Both branching gates are
      // monotone along an execution, so that must still be the case —
      // anything else is a replay divergence.
      BPRC_REQUIRE(past_frontier() || coins_used_ >= limits_.max_coin_flips,
                   "exploration diverged: unforced flip inside the branch "
                   "region during replay");
      record_flip(drawn, /*forced=*/false);
      return drawn;
    }
    // Branch a fresh coin only inside the branch region and budget; both
    // conditions are monotone along an execution, so the forced flips
    // always form a prefix of the run's flip sequence — exactly what
    // ScriptedFlipTape re-forces on replay.
    if (!past_frontier() && coins_used_ < limits_.max_coin_flips) {
      Node node;
      node.is_coin = true;
      node.coin_value = false;
      node.taken = 1;
      trail_.push_back(std::move(node));
      ++cursor_;
      ++coins_used_;
      ++stats_.coin_branches;
      record_flip(false, /*forced=*/true);
      return false;
    }
    record_flip(drawn, /*forced=*/false);
    return drawn;
  }

  // --- stale-read branching (via ExploreShim::resolve_read; weakened
  // semantics only — the runtime never asks under atomic) ---
  int on_stale(const StaleRead& sr) {
    if (cursor_ < trail_.size()) {
      Node& node = trail_[cursor_];
      if (node.is_stale) {
        BPRC_REQUIRE(node.stale_options == sr.options,
                     "exploration diverged: stale-read option count changed "
                     "under replay");
        ++cursor_;
        ++stales_used_;
        record_stale(sr.reader, node.stale_value, /*forced=*/true);
        return node.stale_value;
      }
      // The next recorded choice point is of another kind, so when this
      // prefix was first executed the present read was unforced (resolved
      // to the atomic answer without a node). Both gates are monotone
      // along an execution, so that must still be the case.
      BPRC_REQUIRE(past_frontier() || stales_used_ >= limits_.max_stale_reads,
                   "exploration diverged: unforced stale read inside the "
                   "branch region during replay");
      record_stale(sr.reader, 0, /*forced=*/false);
      return 0;
    }
    // Branch a fresh stale read only inside the branch region and budget;
    // monotone gates keep the forced choices a prefix of the run's
    // stale-read sequence — exactly what ScriptedAdversary re-forces.
    if (!past_frontier() && stales_used_ < limits_.max_stale_reads) {
      Node node;
      node.is_stale = true;
      node.stale_value = 0;
      node.stale_options = sr.options;
      node.taken = 1;
      trail_.push_back(std::move(node));
      ++cursor_;
      ++stales_used_;
      ++stats_.stale_branches;
      record_stale(sr.reader, 0, /*forced=*/true);
      return 0;
    }
    record_stale(sr.reader, 0, /*forced=*/false);
    return 0;
  }

  // --- TraceSink (state fingerprinting) ---
  int on_object_created() override {
    const int id = next_object_++;
    if (static_cast<std::size_t>(id) >= object_last_.size()) {
      object_last_.resize(static_cast<std::size_t>(id) + 1, 0);
    }
    object_last_[static_cast<std::size_t>(id)] = 0;
    objects_fold_ ^= entry_hash(id, 0);
    return id;
  }

  // Past the branch region the sink is quiet (see record_pick): no
  // fingerprint is taken there, so these hooks are not even called.
  void on_read(ProcId p, int object) override {
    // Folding the *last-writer identity* of the object into the reader's
    // history hash grounds the value read: written values are
    // deterministic functions of the writer's local history, so equal
    // histories + equal last-writer identities imply equal contents —
    // no hashing of arbitrary value types needed.
    auto& h = proc_hash_[static_cast<std::size_t>(p)];
    h = fnv_mix(h, 0x52);
    h = fnv_mix(h, static_cast<std::uint64_t>(object));
    h = fnv_mix(h, object_last_[static_cast<std::size_t>(object)]);
  }

  void on_write(ProcId p, int object) override {
    auto& h = proc_hash_[static_cast<std::size_t>(p)];
    h = fnv_mix(h, 0x57);
    h = fnv_mix(h, static_cast<std::uint64_t>(object));
    const std::uint64_t writes = ++proc_writes_[static_cast<std::size_t>(p)];
    update_last(object,
                (static_cast<std::uint64_t>(p) << 40) ^ writes);
  }

  void on_event(ProcId p, int object, std::uint64_t digest,
                bool mutates) override {
    auto& h = proc_hash_[static_cast<std::size_t>(p)];
    h = fnv_mix(h, 0x45);
    h = fnv_mix(h, static_cast<std::uint64_t>(object));
    h = fnv_mix(h, digest);
    if (mutates) update_last(object, fnv_mix(kFnvOffset, digest));
  }

 private:
  enum : std::uint64_t { kDigestRunEnd = 0xE0D };
  /// Why one run_ordered() call ended early.
  enum class Stop { kNone, kCheckpoint, kValve, kViolations };

  /// True once this execution has reached the branching depth. Depth
  /// only grows within an execution and fingerprints are taken only at
  /// frontier nodes, so the tail's reads and writes need no hashing.
  bool past_frontier() const { return depth_ >= limits_.branch_depth; }

  /// Root slice for --frontier-split: keep the candidates whose rank
  /// (position among set bits) lands on this slice.
  std::uint64_t split_candidates(std::uint64_t runnable) const {
    std::uint64_t out = 0;
    std::uint32_t rank = 0;
    std::uint64_t rest = runnable;
    while (rest != 0) {
      const int p = std::countr_zero(rest);
      rest &= rest - 1;
      if (rank % limits_.split_count == limits_.split_index) {
        out |= bit_of(static_cast<ProcId>(p));
      }
      ++rank;
    }
    return out;
  }

  std::uint64_t entry_hash(int object, std::uint64_t last) const {
    return fnv_mix(fnv_mix(kFnvOffset, static_cast<std::uint64_t>(object) + 1),
                   last);
  }

  void update_last(int object, std::uint64_t last) {
    auto& slot = object_last_[static_cast<std::size_t>(object)];
    objects_fold_ ^= entry_hash(object, slot);
    slot = last;
    objects_fold_ ^= entry_hash(object, slot);
  }

  /// Sleep set the child inherits after taking `p` at `node`: the moves
  /// still asleep are those that commute with p's pending op (reordering
  /// them past p reaches a state some other branch covers).
  std::uint64_t child_sleep(const Node& node, ProcId p) const {
    if (!limits_.sleep_sets) return 0;
    std::uint64_t out = 0;
    std::uint64_t rest = node.sleep;
    const OpDesc& op = node.ops[static_cast<std::size_t>(p)];
    while (rest != 0) {
      const int q = std::countr_zero(rest);
      rest &= rest - 1;
      if (independent(node.ops[static_cast<std::size_t>(q)], op)) {
        out |= bit_of(q);
      }
    }
    return out;
  }

  std::uint64_t fingerprint(const SimCtl& ctl) const {
    std::uint64_t h = kFnvOffset;
    for (ProcId p = 0; p < nprocs_; ++p) {
      const SimCtl::ProcView& v = ctl.view(p);
      h = fnv_mix(h, proc_hash_[static_cast<std::size_t>(p)]);
      h = fnv_mix(h, (static_cast<std::uint64_t>(v.finished) << 2) |
                         (static_cast<std::uint64_t>(v.crashed) << 1) |
                         static_cast<std::uint64_t>(v.runnable));
      h = fnv_mix(h, v.steps);
      h = fnv_mix(h, static_cast<std::uint64_t>(v.pending.kind));
      h = fnv_mix(h, static_cast<std::uint64_t>(v.pending.object + 2));
      h = fnv_mix(h, static_cast<std::uint64_t>(v.pending.payload));
    }
    h = fnv_mix(h, objects_fold_);
    h = fnv_mix(h, instance_->state_probe());
    return h;
  }

  ProcId replay_pick(std::uint64_t runnable) {
    Node& node = trail_[cursor_];
    BPRC_REQUIRE(!node.is_coin && !node.is_stale,
                 "exploration diverged: schedule point where a flip or "
                 "stale read was recorded");
    if (limits_.split_count > 1 && cursor_ == 0) {
      // The root node holds this slice's candidates, a subset of the
      // runnable set.
      BPRC_REQUIRE((node.candidates & ~runnable) == 0,
                   "exploration diverged: runnable set changed under replay");
    } else {
      BPRC_REQUIRE(node.candidates == runnable,
                   "exploration diverged: runnable set changed under replay");
    }
    ++cursor_;
    cur_sleep_ = child_sleep(node, node.chosen);
    record_pick(node.chosen);
    return node.chosen;
  }

  /// Tail picks land only in the event stream: the replay prefix is the
  /// trail's, and a violation's full schedule is decoded from the events.
  void record_pick(ProcId p) {
    ++depth_;
    last_pick_ = p;
    exec_events_.push_back(static_cast<std::uint8_t>(p + 1));
    set_quiet(past_frontier());
  }

  void record_flip(bool value, bool forced) {
    if (forced) exec_flips_.push_back(value);
    const ProcId p = runtime_->self();
    auto& h = proc_hash_[static_cast<std::size_t>(p)];
    h = fnv_mix(h, value ? 0x431 : 0x430);
    exec_events_.push_back(value ? kEventFlipTrue : kEventFlipFalse);
  }

  /// Every resolved stale read lands in the event stream and the reader's
  /// history hash (the value observed depends on the choice, which the
  /// last-writer fold of on_read cannot see); only forced choices join
  /// the replay prefix.
  void record_stale(ProcId reader, int choice, bool forced) {
    if (forced) exec_stales_.push_back(choice);
    auto& h = proc_hash_[static_cast<std::size_t>(reader)];
    h = fnv_mix(h, 0x520 + static_cast<std::uint64_t>(choice));
    exec_events_.push_back(
        static_cast<std::uint8_t>(kEventStaleBase + choice));
  }

  /// Folds one graded execution into the result — digest, counters,
  /// violation list — in generation order. Every execution funnels
  /// through here from the executor's ordered sink — graded inline, by a
  /// worker, pruned or quarantined alike — which is what makes jobs
  /// levels byte-identical.
  void deliver(const LeafSpec& spec, LeafOutcome& out) {
    for (const std::uint8_t b : out.events) {
      stats_.schedule_digest = fnv_mix(stats_.schedule_digest, b);
    }
    stats_.schedule_digest = fnv_mix(stats_.schedule_digest, kDigestRunEnd);
    ++stats_.executions;
    stats_.total_steps += out.steps;
    if (out.pruned) {
      ++stats_.pruned_runs;
    } else if (out.crashed) {
      ++stats_.worker_crashes;
    } else if (out.complete) {
      ++stats_.complete_runs;
    } else {
      ++stats_.truncated_runs;
    }
    if (out.violation.has_value()) {
      ExploreViolation v;
      v.failure = out.violation->failure;
      v.note = std::move(out.violation->note);
      // The full pick sequence (prefix + graded tail) comes back in the
      // event stream; a crashed worker never reported one, so its
      // artifact carries the prefix that provokes the crash.
      v.schedule = out.crashed ? spec.schedule : decode_schedule(out.events);
      v.flips = spec.flips;
      v.stales = spec.stales;
      violations_.push_back(std::move(v));
    }
  }

  /// Runs the DFS's next execution and packages it for the executor.
  Leaf execute_once() {
    if (limits_.isolate_leaves) {
      int status = 0;
      if (!probe_survives(&status)) return quarantine(status);
    }
    const RunResult run = run_core();
    ++enumerated_;
    stats_.max_trail_depth =
        std::max(stats_.max_trail_depth,
                 static_cast<std::uint64_t>(trail_.size()));

    Leaf leaf;
    leaf.spec.flips = exec_flips_;
    leaf.spec.stales = exec_stales_;
    if (cut_leaves_ && !pruned_) {
      // Cut at the branch boundary: every pick so far was a trail node.
      for (const Node& node : trail_) {
        if (!node.is_coin && !node.is_stale) {
          leaf.spec.schedule.push_back(node.chosen);
        }
      }
      instance_.reset();
      return leaf;
    }
    LeafOutcome& out = leaf.settled.emplace();
    // Handed over, not copied; the next execution refills a buffer of
    // the same size.
    out.events.swap(exec_events_);
    exec_events_.reserve(out.events.size());
    out.steps = run.steps;
    if (pruned_) {
      out.pruned = true;
    } else {
      out.complete = run.reason == RunResult::Reason::kAllDone;
      out.violation = instance_->check(*runtime_, run, out.complete);
    }
    instance_.reset();  // destroy shared state before the next reset()
    return leaf;
  }

  /// Runs one execution on the simulator: runtime setup, the run itself,
  /// and the end-reason checks. The DFS side effects (trail extension,
  /// cache visits, event recording) happen in the pick()/on_flip()
  /// callbacks this triggers.
  RunResult run_core() {
    runtime_ =
        &reuse_.acquire(nprocs_, std::make_unique<ExploreShim>(*this), seed_);
    SimRuntime& rt = *runtime_;

    next_object_ = 0;
    object_last_.clear();
    objects_fold_ = 0;
    proc_hash_.assign(static_cast<std::size_t>(nprocs_),
                      fnv_mix(kFnvOffset, seed_));
    proc_writes_.assign(static_cast<std::size_t>(nprocs_), 0);

    rt.set_trace_sink(this);
    // Before instantiate(): registers cache the semantics at construction
    // (reset() reverts a reused runtime to atomic).
    rt.set_register_semantics(limits_.semantics);
    instance_ = target_.instantiate(rt);
    BPRC_REQUIRE(instance_ != nullptr, "explore target produced no instance");
    rt.set_flip_tape(this);

    cursor_ = 0;
    coins_used_ = 0;
    stales_used_ = 0;
    cur_sleep_ = 0;  // the root has an empty sleep set
    pruned_ = false;
    cut_ = false;
    depth_ = 0;
    last_pick_ = -1;
    set_quiet(past_frontier());
    exec_flips_.clear();
    exec_stales_.clear();
    exec_events_.clear();

    const RunResult run = rt.run(limits_.max_run_steps);
    rt.set_flip_tape(nullptr);
    rt.set_trace_sink(nullptr);

    if (pruned_ || cut_) {
      BPRC_REQUIRE(run.reason == RunResult::Reason::kNoRunnable,
                   "pruned execution ended for an unexpected reason");
    } else {
      BPRC_REQUIRE(run.reason == RunResult::Reason::kAllDone ||
                       run.reason == RunResult::Reason::kBudget,
                   "exploration run ended for an unexpected reason");
    }
    return run;
  }

  /// --isolate: the whole execution (enumeration run *and* grading) runs
  /// first in a fork()ed child, so a protocol that kills its host process
  /// (e.g. broken-segv, which dies on the first propose() step, inside the
  /// branch region) cannot take the DFS coordinator down. The child only
  /// proves the execution survives: one byte on the pipe, then exit 0.
  /// The byte tells a finished child apart from a protocol that called
  /// exit(0). The execution is a deterministic function of the trail,
  /// seed and limits fork() copied, so the parent then runs it inline and
  /// its DFS state evolves exactly as the child's did. `status` receives
  /// the child's wait status.
  bool probe_survives(int* status) {
    int fds[2];
    BPRC_REQUIRE(::pipe(fds) == 0, "pipe() failed for isolated exploration");
    const pid_t pid = ::fork();
    BPRC_REQUIRE(pid >= 0, "fork() failed for isolated exploration");
    if (pid == 0) {
      ::close(fds[0]);
      const RunResult run = run_core();
      if (!pruned_) {
        (void)instance_->check(*runtime_, run,
                               run.reason == RunResult::Reason::kAllDone);
      }
      const char done = 1;
      _exit(record::write_all(fds[1], &done, 1) ? 0 : 3);
    }
    ::close(fds[1]);
    char done = 0;
    const bool reported = record::read_all(fds[0], &done, 1);
    ::close(fds[0]);
    while (::waitpid(pid, status, 0) < 0) {
      BPRC_REQUIRE(errno == EINTR, "waitpid() failed for isolated exploration");
    }
    return reported && WIFEXITED(*status) && WEXITSTATUS(*status) == 0;
  }

  /// A probe died: the parent cannot know how the child extended the trail
  /// (computing that would mean executing the killer protocol here), so it
  /// quarantines the whole current branch as one kWorkerCrash finding: the
  /// replay prefix it *does* know — the trail's chosen picks, coin values
  /// and stale choices, in trail order — becomes the artifact, and
  /// backtrack() moves past the poisoned subtree.
  Leaf quarantine(int status) {
    ++enumerated_;
    Leaf leaf;
    LeafSpec& spec = leaf.spec;
    LeafOutcome& out = leaf.settled.emplace();
    for (const Node& node : trail_) {
      if (node.is_coin) {
        out.events.push_back(node.coin_value ? kEventFlipTrue
                                             : kEventFlipFalse);
        spec.flips.push_back(node.coin_value);
      } else if (node.is_stale) {
        out.events.push_back(
            static_cast<std::uint8_t>(kEventStaleBase + node.stale_value));
        spec.stales.push_back(node.stale_value);
      } else {
        out.events.push_back(static_cast<std::uint8_t>(node.chosen + 1));
        spec.schedule.push_back(node.chosen);
      }
    }
    out.events.push_back(kEventWorkerCrash);
    out.crashed = true;
    Violation v;
    v.failure = FailureClass::kWorkerCrash;
    v.note = "exploration worker died (";
    if (WIFSIGNALED(status)) {
      v.note += "signal " + std::to_string(WTERMSIG(status));
    } else if (WIFEXITED(status)) {
      v.note += "exit " + std::to_string(WEXITSTATUS(status));
    } else {
      v.note += "unknown";
    }
    v.note += ")";
    out.violation = std::move(v);
    stats_.max_trail_depth =
        std::max(stats_.max_trail_depth,
                 static_cast<std::uint64_t>(trail_.size()));
    return leaf;
  }

  /// Advances the trail to the next unexplored branch; false = done.
  bool backtrack() {
    while (!trail_.empty()) {
      Node& node = trail_.back();
      if (node.is_coin) {
        if (!node.coin_value) {
          node.coin_value = true;
          ++node.taken;
          return true;
        }
        trail_.pop_back();
        continue;
      }
      if (node.is_stale) {
        if (node.stale_value + 1 < node.stale_options) {
          ++node.stale_value;
          ++node.taken;
          return true;
        }
        trail_.pop_back();
        continue;
      }
      node.sleep |= bit_of(node.chosen);  // explored: siblings may skip it
      const std::uint64_t open = node.candidates & ~node.sleep;
      if (open != 0) {
        node.chosen = static_cast<ProcId>(std::countr_zero(open));
        ++node.taken;
        return true;
      }
      stats_.sleep_pruned += static_cast<std::uint64_t>(
          std::popcount(node.candidates)) - static_cast<std::uint64_t>(node.taken);
      trail_.pop_back();
    }
    return false;
  }

  // --- checkpoint / resume ---

  std::uint64_t config_fingerprint() const {
    std::uint64_t h = kFnvOffset;
    h = fnv_mix(h, frontier_.target_fingerprint);
    h = fnv_mix(h, seed_);
    h = fnv_mix(h, static_cast<std::uint64_t>(nprocs_));
    h = fnv_mix(h, limits_.branch_depth);
    h = fnv_mix(h, limits_.max_coin_flips);
    h = fnv_mix(h, limits_.max_run_steps);
    h = fnv_mix(h, static_cast<std::uint64_t>(limits_.max_violations));
    h = fnv_mix(h, static_cast<std::uint64_t>(limits_.sleep_sets));
    h = fnv_mix(h, static_cast<std::uint64_t>(limits_.state_cache));
    // The retired cache-layout switch, folded as its old default so
    // frontiers written before its removal still resume.
    h = fnv_mix(h, 1);
    h = fnv_mix(h, limits_.max_cache_bytes);
    h = fnv_mix(h, static_cast<std::uint64_t>(limits_.isolate_leaves));
    h = fnv_mix(h, limits_.split_index);
    h = fnv_mix(h, limits_.split_count);
    if (limits_.semantics != RegisterSemantics::kAtomic) {
      // Folded only when weakened so atomic-mode fingerprints (and every
      // `.bprc-frontier` file already on disk) keep their values.
      h = fnv_mix(h, static_cast<std::uint64_t>(limits_.semantics));
      h = fnv_mix(h, limits_.max_stale_reads);
    }
    return h;
  }

  void restore(const Frontier& f) {
    stats_ = f.stats;
    stats_.complete = true;  // recomputed by this continuation
    base_seconds_ = f.stats.seconds;
    stats_.seconds = 0.0;
    base_evictions_ = f.stats.cache_evictions;
    base_peak_bytes_ = f.stats.peak_cache_bytes;
    violations_ = f.violations;
    enumerated_ = f.stats.executions;
    trail_ = f.trail;
    seen_.restore(f.cache);
  }

  /// stats_ with the cache's counters folded in. finalize_stats() takes
  /// only its enumeration-side counters, those the DFS advances rather
  /// than the deliveries.
  ExploreStats enumeration_stats() const {
    ExploreStats e = stats_;
    e.cache_entries = seen_.entries();
    e.peak_cache_bytes = std::max(base_peak_bytes_, seen_.peak_bytes());
    e.cache_evictions = base_evictions_ + seen_.evictions();
    return e;
  }

  /// Stamps the wall time and the enumeration-side counters `e` (see
  /// enumeration_stats) into stats_.
  void finalize_stats(const ExploreStats& e) {
    stats_.seconds =
        base_seconds_ +
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
    stats_.states_visited = e.states_visited;
    stats_.states_merged = e.states_merged;
    stats_.sleep_pruned = e.sleep_pruned;
    stats_.sleep_blocked = e.sleep_blocked;
    stats_.coin_branches = e.coin_branches;
    stats_.stale_branches = e.stale_branches;
    stats_.max_trail_depth = e.max_trail_depth;
    stats_.cache_entries = e.cache_entries;
    stats_.peak_cache_bytes = e.peak_cache_bytes;
    stats_.cache_evictions = e.cache_evictions;
  }

  void save_checkpoint(bool complete) {
    Frontier f;
    f.fingerprint = config_fp_;
    f.complete = complete;
    finalize_stats(enumeration_stats());
    f.stats = stats_;
    f.stats.complete = complete;
    f.trail = trail_;
    f.violations = violations_;
    seen_.snapshot(&f.cache);
    BPRC_REQUIRE(save_frontier(frontier_.checkpoint_path, f),
                 "cannot write frontier checkpoint");
  }

  ExploreTarget& target_;
  const ExploreLimits limits_;
  const std::uint64_t seed_;
  const int nprocs_;
  const FrontierOptions frontier_;
  /// Batched grading: cut each leaf at the branch boundary and let the
  /// executor's workers replay and grade it.
  const bool cut_leaves_;
  std::uint64_t config_fp_ = 0;

  SimReuse reuse_;                  ///< the DFS thread's simulator
  SimRuntime* runtime_ = nullptr;   ///< reuse_'s, once acquired
  std::unique_ptr<ExploreTarget::Instance> instance_;

  // DFS state (persists across executions).
  std::vector<Node> trail_;
  SeenCache seen_;  ///< fingerprint → shallowest expansion depth

  // Per-execution state.
  std::size_t cursor_ = 0;          ///< next trail node to replay
  std::uint64_t coins_used_ = 0;    ///< coin nodes passed on this path
  std::uint64_t stales_used_ = 0;   ///< stale nodes passed on this path
  std::uint64_t cur_sleep_ = 0;     ///< sleep set inherited by the frontier
  bool pruned_ = false;
  bool cut_ = false;                ///< cut at the branch boundary
  std::uint64_t depth_ = 0;         ///< picks made (scheduling depth)
  ProcId last_pick_ = -1;           ///< the latest pick; -1 before any
  std::vector<bool> exec_flips_;
  std::vector<int> exec_stales_;    ///< forced stale choices (replay prefix)
  std::vector<std::uint8_t> exec_events_;  ///< leaf_grader.hpp encoding

  // Fingerprint state (reset per execution).
  int next_object_ = 0;
  std::vector<std::uint64_t> object_last_;  ///< last-writer identity per object
  std::uint64_t objects_fold_ = 0;          ///< XOR of entry hashes
  std::vector<std::uint64_t> proc_hash_;    ///< per-process history hash
  std::vector<std::uint64_t> proc_writes_;

  // Enumeration-side progress (== stats_.executions once drained).
  std::uint64_t enumerated_ = 0;

  // Resume bases (stats_ fields restart from the restored snapshot).
  double base_seconds_ = 0.0;
  std::uint64_t base_evictions_ = 0;
  std::uint64_t base_peak_bytes_ = 0;
  std::chrono::steady_clock::time_point t0_;

  ExploreStats stats_;
  std::vector<ExploreViolation> violations_;
};

ProcId ExploreShim::pick(SimCtl& ctl) { return explorer_.pick(ctl); }

int ExploreShim::resolve_read(SimCtl&, const StaleRead& sr) {
  return explorer_.on_stale(sr);
}

}  // namespace

ExploreResult explore(ExploreTarget& target, const ExploreLimits& limits,
                      std::uint64_t seed, const FrontierOptions* frontier) {
  Explorer explorer(target, limits, seed, frontier);
  return explorer.run();
}

}  // namespace bprc::explore
