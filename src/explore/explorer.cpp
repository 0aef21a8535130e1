#include "explore/explorer.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "engine/executor.hpp"
#include "explore/frontier.hpp"
#include "explore/leaf_grader.hpp"
#include "explore/seen_cache.hpp"
#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/assert.hpp"

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

/// One choice point on the DFS trail. Schedule nodes branch over runnable
/// processes; coin nodes branch a local flip over {false, true}; stale
/// nodes (weakened register semantics) branch an overlapping read over
/// every servable value [0, stale_options).
struct Node {
  bool is_coin = false;
  bool coin_value = false;  ///< current branch of a coin node
  bool is_stale = false;
  int stale_value = 0;      ///< current branch of a stale node
  int stale_options = 0;    ///< choice count recorded at creation
  ProcId chosen = -1;       ///< current branch of a schedule node
  int taken = 0;            ///< branches explored so far (stats)
  std::uint64_t candidates = 0;  ///< runnable set at this point
  /// Working sleep set: entry sleep plus already-explored siblings. A
  /// candidate in here commutes with some explored branch — its subtree
  /// is a permutation of one already visited.
  std::uint64_t sleep = 0;
  std::vector<OpDesc> ops;  ///< pending op per process (dependence check)
};

/// Bounded handoff between the enumerating coordinator and the grading
/// pump (the TrialExecutor's generator pops from here). Backpressure on
/// push keeps at most capacity + executor-window leaves in flight.
class LeafQueue {
 public:
  explicit LeafQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Blocks while full; false once abort()ed (sink stopped the sweep).
  bool push(LeafSpec&& spec) {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return aborted_ || q_.size() < capacity_; });
    if (aborted_) return false;
    q_.push_back(std::move(spec));
    cv_.notify_all();
    return true;
  }

  /// Blocks while empty; nullopt once closed-and-drained or abort()ed.
  std::optional<LeafSpec> pop() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return aborted_ || closed_ || !q_.empty(); });
    if (aborted_ || q_.empty()) return std::nullopt;
    LeafSpec spec = std::move(q_.front());
    q_.pop_front();
    cv_.notify_all();
    return spec;
  }

  void close() {
    std::lock_guard<std::mutex> lk(m_);
    closed_ = true;
    cv_.notify_all();
  }

  void abort() {
    std::lock_guard<std::mutex> lk(m_);
    aborted_ = true;
    q_.clear();
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::deque<LeafSpec> q_;
  std::size_t capacity_;
  bool closed_ = false;
  bool aborted_ = false;
};

// --- pipe wire helpers for the isolated (fork-per-execution) mode ---

void pipe_write(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w <= 0) _exit(3);  // parent treats a short report as a crash
    p += w;
    len -= static_cast<std::size_t>(w);
  }
}

bool pipe_read(int fd, void* data, std::size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t r = ::read(fd, p, len);
    if (r <= 0) return false;
    p += r;
    len -= static_cast<std::size_t>(r);
  }
  return true;
}

template <typename T>
void pipe_write_pod(int fd, const T& v) {
  pipe_write(fd, &v, sizeof v);
}

template <typename T>
bool pipe_read_pod(int fd, T* v) {
  return pipe_read(fd, v, sizeof *v);
}

/// Everything an isolated child must hand back so the parent's DFS state
/// evolves exactly as if it had executed the run itself: the outcome, the
/// trail extension, the seen-cache visits (replayed on the parent's
/// cache), and the tree-shape counter deltas.
struct IsolatedReport {
  bool pruned = false;
  bool complete = false;
  std::optional<Violation> violation;
  std::uint64_t steps = 0;
  std::vector<std::uint8_t> events;
  std::vector<bool> flips;
  std::vector<int> stales;
  std::vector<Node> new_nodes;
  std::vector<std::pair<std::uint64_t, std::uint8_t>> visits;
  std::uint64_t d_states_visited = 0;
  std::uint64_t d_states_merged = 0;
  std::uint64_t d_sleep_blocked = 0;
  std::uint64_t d_coin_branches = 0;
};

void send_report(int fd, const IsolatedReport& rep, int nprocs) {
  std::uint8_t flags = 0;
  if (rep.pruned) flags |= 1;
  if (rep.complete) flags |= 2;
  if (rep.violation.has_value()) flags |= 4;
  pipe_write_pod(fd, flags);
  const std::uint8_t failure = static_cast<std::uint8_t>(
      rep.violation ? rep.violation->failure : FailureClass::kNone);
  pipe_write_pod(fd, failure);
  const std::uint32_t note_len = static_cast<std::uint32_t>(
      rep.violation ? rep.violation->note.size() : 0);
  pipe_write_pod(fd, note_len);
  if (note_len > 0) pipe_write(fd, rep.violation->note.data(), note_len);
  pipe_write_pod(fd, rep.steps);
  pipe_write_pod<std::uint64_t>(fd, rep.events.size());
  if (!rep.events.empty()) pipe_write(fd, rep.events.data(), rep.events.size());
  pipe_write_pod<std::uint64_t>(fd, rep.flips.size());
  for (const bool b : rep.flips) {
    pipe_write_pod<std::uint8_t>(fd, b ? 1 : 0);
  }
  pipe_write_pod<std::uint64_t>(fd, rep.stales.size());
  for (const int c : rep.stales) {
    pipe_write_pod<std::int32_t>(fd, c);
  }
  pipe_write_pod<std::uint64_t>(fd, rep.new_nodes.size());
  for (const Node& node : rep.new_nodes) {
    // Kind byte: 0 = schedule, 1 = coin, 2 = stale.
    const std::uint8_t kind = node.is_coin ? 1 : (node.is_stale ? 2 : 0);
    pipe_write_pod(fd, kind);
    if (node.is_coin) continue;  // created coin nodes are (false, taken=1)
    if (node.is_stale) {
      // Created stale nodes are (value=0, taken=1); only the option count
      // varies.
      pipe_write_pod<std::int32_t>(fd, node.stale_options);
      continue;
    }
    pipe_write_pod<std::int32_t>(fd, node.chosen);
    pipe_write_pod(fd, node.candidates);
    pipe_write_pod(fd, node.sleep);
    for (int p = 0; p < nprocs; ++p) {
      const OpDesc& op = node.ops[static_cast<std::size_t>(p)];
      pipe_write_pod<std::uint8_t>(fd, static_cast<std::uint8_t>(op.kind));
      pipe_write_pod<std::int32_t>(fd, op.object);
      pipe_write_pod<std::int64_t>(fd, op.payload);
    }
  }
  pipe_write_pod<std::uint64_t>(fd, rep.visits.size());
  for (const auto& [key, depth] : rep.visits) {
    pipe_write_pod(fd, key);
    pipe_write_pod(fd, depth);
  }
  pipe_write_pod(fd, rep.d_states_visited);
  pipe_write_pod(fd, rep.d_states_merged);
  pipe_write_pod(fd, rep.d_sleep_blocked);
  pipe_write_pod(fd, rep.d_coin_branches);
}

bool recv_report(int fd, IsolatedReport* rep, int nprocs) {
  std::uint8_t flags = 0;
  std::uint8_t failure = 0;
  std::uint32_t note_len = 0;
  if (!pipe_read_pod(fd, &flags)) return false;
  if (!pipe_read_pod(fd, &failure)) return false;
  if (!pipe_read_pod(fd, &note_len)) return false;
  if (note_len > (1u << 20)) return false;  // corrupt length = crash
  std::string note(note_len, '\0');
  if (note_len > 0 && !pipe_read(fd, note.data(), note_len)) return false;
  if (!pipe_read_pod(fd, &rep->steps)) return false;
  std::uint64_t count = 0;
  if (!pipe_read_pod(fd, &count) || count > (1ull << 30)) return false;
  rep->events.resize(static_cast<std::size_t>(count));
  if (count > 0 && !pipe_read(fd, rep->events.data(), rep->events.size())) {
    return false;
  }
  if (!pipe_read_pod(fd, &count) || count > (1ull << 20)) return false;
  rep->flips.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < rep->flips.size(); ++i) {
    std::uint8_t b = 0;
    if (!pipe_read_pod(fd, &b)) return false;
    rep->flips[i] = b != 0;
  }
  if (!pipe_read_pod(fd, &count) || count > (1ull << 20)) return false;
  rep->stales.resize(static_cast<std::size_t>(count));
  for (int& c : rep->stales) {
    std::int32_t v = 0;
    if (!pipe_read_pod(fd, &v)) return false;
    c = v;
  }
  if (!pipe_read_pod(fd, &count) || count > (1ull << 20)) return false;
  rep->new_nodes.resize(static_cast<std::size_t>(count));
  for (Node& node : rep->new_nodes) {
    std::uint8_t kind = 0;
    if (!pipe_read_pod(fd, &kind)) return false;
    if (kind > 2) return false;
    node.is_coin = kind == 1;
    node.is_stale = kind == 2;
    node.taken = 1;
    if (node.is_coin) continue;
    if (node.is_stale) {
      std::int32_t options = 0;
      if (!pipe_read_pod(fd, &options)) return false;
      node.stale_options = options;
      continue;
    }
    std::int32_t chosen = 0;
    if (!pipe_read_pod(fd, &chosen)) return false;
    node.chosen = static_cast<ProcId>(chosen);
    if (!pipe_read_pod(fd, &node.candidates)) return false;
    if (!pipe_read_pod(fd, &node.sleep)) return false;
    node.ops.resize(static_cast<std::size_t>(nprocs));
    for (int p = 0; p < nprocs; ++p) {
      OpDesc& op = node.ops[static_cast<std::size_t>(p)];
      std::uint8_t kind = 0;
      std::int32_t object = 0;
      std::int64_t payload = 0;
      if (!pipe_read_pod(fd, &kind)) return false;
      if (!pipe_read_pod(fd, &object)) return false;
      if (!pipe_read_pod(fd, &payload)) return false;
      op.kind = static_cast<OpDesc::Kind>(kind);
      op.object = object;
      op.payload = payload;
    }
  }
  if (!pipe_read_pod(fd, &count) || count > (1ull << 30)) return false;
  rep->visits.resize(static_cast<std::size_t>(count));
  for (auto& [key, depth] : rep->visits) {
    if (!pipe_read_pod(fd, &key)) return false;
    if (!pipe_read_pod(fd, &depth)) return false;
  }
  if (!pipe_read_pod(fd, &rep->d_states_visited)) return false;
  if (!pipe_read_pod(fd, &rep->d_states_merged)) return false;
  if (!pipe_read_pod(fd, &rep->d_sleep_blocked)) return false;
  if (!pipe_read_pod(fd, &rep->d_coin_branches)) return false;
  if ((flags & 4) != 0) {
    Violation v;
    v.failure = static_cast<FailureClass>(failure);
    v.note = std::move(note);
    rep->violation = std::move(v);
  }
  rep->pruned = (flags & 1) != 0;
  rep->complete = (flags & 2) != 0;
  return true;
}

class Explorer final : public FlipTape, public TraceSink {
 public:
  Explorer(ExploreTarget& target, const ExploreLimits& limits,
           std::uint64_t seed, bool reuse_runtime,
           const FrontierOptions* frontier)
      : target_(target),
        limits_(limits),
        seed_(seed),
        reuse_(reuse_runtime),
        nprocs_(target.nprocs()),
        frontier_(frontier != nullptr ? *frontier : FrontierOptions{}),
        seen_(limits.compact_cache ? SeenCache::Layout::kCompact
                                   : SeenCache::Layout::kMap,
              limits.max_cache_bytes) {
    BPRC_REQUIRE(nprocs_ > 0, "explore target needs at least one process");
    BPRC_REQUIRE(nprocs_ <= kRunnableMaskBits,
                 "explorer masks cap the process count");
    BPRC_REQUIRE(!limits_.state_cache || limits_.branch_depth <= 255,
                 "seen-state depth tags are 8-bit: branch_depth <= 255");
    BPRC_REQUIRE(!limits_.isolate_leaves || limits_.grade_jobs <= 1,
                 "isolated leaf grading forks: grade_jobs must be 1");
    if (limits_.split_count > 1) {
      BPRC_REQUIRE(limits_.split_index < limits_.split_count,
                   "frontier split index out of range");
      BPRC_REQUIRE(limits_.branch_depth >= 1,
                   "frontier split needs a branch region");
    }
    if (limits_.isolate_leaves) {
      mode_ = Mode::kIsolate;
    } else if (limits_.grade_jobs > 1) {
      mode_ = Mode::kBatched;
    }
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

    if (mode_ == Mode::kBatched) start_pump();
    bool more = true;
    if (pending_backtrack) more = backtrack();
    while (more) {
      execute_once();
      const bool stopped_by_violations =
          mode_ == Mode::kBatched
              ? stop_requested_.load(std::memory_order_relaxed)
              : violations_.size() >= limits_.max_violations;
      if (stopped_by_violations ||
          (limits_.max_executions != 0 &&
           enumerated_ >= limits_.max_executions) ||
          (limits_.max_states != 0 &&
           stats_.states_visited >= limits_.max_states)) {
        stats_.complete = false;
        break;
      }
      if (frontier_.checkpoint_every != 0 &&
          !frontier_.checkpoint_path.empty() &&
          enumerated_ % frontier_.checkpoint_every == 0) {
        if (mode_ == Mode::kBatched) drain_pump();
        save_checkpoint(/*complete=*/false);
        if (mode_ == Mode::kBatched) start_pump();
      }
      more = backtrack();
    }
    if (mode_ == Mode::kBatched) drain_pump();
    if (checkpoint_unsafe_) stats_.complete = false;

    finalize_stats();
    if (!frontier_.checkpoint_path.empty() && !checkpoint_unsafe_) {
      save_checkpoint(stats_.complete);
    }
    return ExploreResult{stats_, std::move(violations_)};
  }

  // --- scheduling callback (via ExploreShim) ---
  ProcId pick(SimCtl& ctl) {
    const std::uint64_t runnable = runnable_set(ctl);
    if (runnable == 0) return -1;  // defensive; run loop checks first

    if (cursor_ < trail_.size()) return replay_pick(runnable);

    const std::uint64_t depth = exec_schedule_.size();
    if (depth >= limits_.branch_depth) {
      if (mode_ == Mode::kBatched) {
        // The leaf is fully determined by its prefix: cut here and let
        // the grading pipeline replay prefix + deterministic tail.
        cut_ = true;
        return -1;
      }
      return tail_pick(runnable);
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
      if (visit_log_ != nullptr) {
        visit_log_->emplace_back(key, static_cast<std::uint8_t>(depth));
      }
      const SeenCache::Visit visit =
          seen_.visit(key, static_cast<std::uint8_t>(depth));
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
      BPRC_REQUIRE(exec_schedule_.size() >= limits_.branch_depth ||
                       coins_used_ >= limits_.max_coin_flips,
                   "exploration diverged: unforced flip inside the branch "
                   "region during replay");
      record_flip(drawn, /*forced=*/false);
      return drawn;
    }
    // Branch a fresh coin only inside the branch region and budget; both
    // conditions are monotone along an execution, so the forced flips
    // always form a prefix of the run's flip sequence — exactly what
    // ScriptedFlipTape re-forces on replay.
    if (exec_schedule_.size() < limits_.branch_depth &&
        coins_used_ < limits_.max_coin_flips) {
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
      BPRC_REQUIRE(exec_schedule_.size() >= limits_.branch_depth ||
                       stales_used_ >= limits_.max_stale_reads,
                   "exploration diverged: unforced stale read inside the "
                   "branch region during replay");
      record_stale(sr.reader, 0, /*forced=*/false);
      return 0;
    }
    // Branch a fresh stale read only inside the branch region and budget;
    // monotone gates keep the forced choices a prefix of the run's
    // stale-read sequence — exactly what ScriptedAdversary re-forces.
    if (exec_schedule_.size() < limits_.branch_depth &&
        stales_used_ < limits_.max_stale_reads) {
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

  void on_read(ProcId p, int object) override {
    // Folding the *last-writer identity* of the object into the reader's
    // history hash grounds the value read: written values are
    // deterministic functions of the writer's local history, so equal
    // histories + equal last-writer identities imply equal contents —
    // no hashing of arbitrary value types needed.
    if (past_frontier()) return;
    auto& h = proc_hash_[static_cast<std::size_t>(p)];
    h = fnv_mix(h, 0x52);
    h = fnv_mix(h, static_cast<std::uint64_t>(object));
    h = fnv_mix(h, object_last_[static_cast<std::size_t>(object)]);
  }

  void on_write(ProcId p, int object) override {
    if (past_frontier()) return;
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
  enum class Mode { kInline, kBatched, kIsolate };

  /// True once this execution has reached the branching depth. Depth
  /// only grows within an execution and fingerprints are taken only at
  /// frontier nodes, so the tail's reads and writes need no hashing.
  bool past_frontier() const {
    return exec_schedule_.size() >= limits_.branch_depth;
  }

  std::uint64_t runnable_set(const SimCtl& ctl) const {
    if (const std::uint64_t* mask = ctl.runnable_mask()) return *mask;
    std::uint64_t out = 0;
    for (ProcId p = 0; p < nprocs_; ++p) {
      if (ctl.view(p).runnable) out |= bit_of(p);
    }
    return out;
  }

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

  /// Deterministic completion past the branch region: round-robin from
  /// the last scheduled process. With seed-derived coins this makes every
  /// leaf a finished run the full oracle can grade. The parallel grading
  /// path replays exactly this tail (leaf_grader.cpp's LeafAdversary).
  ProcId tail_pick(std::uint64_t runnable) {
    const ProcId last = exec_schedule_.empty() ? -1 : exec_schedule_.back();
    for (int i = 1; i <= nprocs_; ++i) {
      const ProcId p = static_cast<ProcId>((last + i) % nprocs_);
      if ((runnable & bit_of(p)) != 0) {
        record_pick(p);
        return p;
      }
    }
    return -1;  // unreachable: runnable != 0
  }

  void record_pick(ProcId p) {
    exec_schedule_.push_back(p);
    exec_events_.push_back(static_cast<std::uint8_t>(p + 1));
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
  /// violation list — in generation order. Every mode funnels through
  /// here, which is what makes jobs levels byte-identical: the serial
  /// path delivers inline, the batched path from the engine's ordered
  /// sink, the isolated path after each fork.
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

  void execute_once() {
    if (mode_ == Mode::kIsolate) {
      execute_isolated();
      return;
    }
    const RunResult run = run_core();
    ++enumerated_;
    stats_.max_trail_depth =
        std::max(stats_.max_trail_depth,
                 static_cast<std::uint64_t>(trail_.size()));

    if (mode_ == Mode::kInline) {
      LeafSpec spec;
      spec.flips = exec_flips_;
      spec.stales = exec_stales_;
      LeafOutcome out;
      out.events = std::move(exec_events_);
      out.steps = run.steps;
      if (pruned_) {
        out.pruned = true;
      } else {
        out.complete = run.reason == RunResult::Reason::kAllDone;
        out.violation = instance_->check(*runtime_, run, out.complete);
      }
      instance_.reset();  // destroy shared state before the next reset()
      deliver(spec, out);
      exec_events_ = std::move(out.events);  // keep the buffer's capacity
      return;
    }

    instance_.reset();
    LeafSpec spec;
    spec.pruned = pruned_;
    spec.steps = run.steps;
    spec.events = std::move(exec_events_);
    if (!pruned_) {
      spec.schedule = exec_schedule_;
      spec.flips = exec_flips_;
      spec.stales = exec_stales_;
    }
    if (!queue_->push(std::move(spec))) {
      // abort()ed: the sink stopped the sweep; the run loop breaks on
      // stop_requested_ right after this call.
    }
  }

  /// Runs one execution on the simulator: runtime setup, the run itself,
  /// and the end-reason checks. The DFS side effects (trail extension,
  /// cache visits, event recording) happen in the pick()/on_flip()
  /// callbacks this triggers.
  RunResult run_core() {
    auto shim = std::make_unique<ExploreShim>(*this);
    if (runtime_ == nullptr) {
      runtime_ = std::make_unique<SimRuntime>(nprocs_, std::move(shim), seed_);
    } else if (reuse_) {
      runtime_->reset(nprocs_, std::move(shim), seed_);
    } else {
      runtime_.reset();  // old instance died at the end of the last call
      runtime_ = std::make_unique<SimRuntime>(nprocs_, std::move(shim), seed_);
    }
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
    exec_schedule_.clear();
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

  static LeafOutcome passthrough(const LeafSpec& spec) {
    LeafOutcome out;
    out.pruned = true;
    out.events = spec.events;
    out.steps = spec.steps;
    return out;
  }

  /// kIsolate: the whole execution — enumeration run *and* grading — in a
  /// fork()ed child, so a protocol that kills its host process (e.g.
  /// broken-segv, which dies on the first propose() step, inside the
  /// branch region) cannot take the DFS coordinator down. The child hands
  /// back everything the parent needs to evolve its DFS state exactly as
  /// if it had run the execution itself; a dead child quarantines its
  /// whole current branch as one kWorkerCrash finding and the sweep
  /// backtracks past it.
  void execute_isolated() {
    int fds[2];
    BPRC_REQUIRE(::pipe(fds) == 0, "pipe() failed for isolated exploration");
    const pid_t pid = ::fork();
    BPRC_REQUIRE(pid >= 0, "fork() failed for isolated exploration");
    if (pid == 0) {
      ::close(fds[0]);
      child_run_and_report(fds[1]);  // _exits
    }
    ::close(fds[1]);
    IsolatedReport rep;
    const bool reported = recv_report(fds[0], &rep, nprocs_);
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
    }
    ++enumerated_;
    const bool clean =
        reported && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (clean) {
      for (Node& node : rep.new_nodes) trail_.push_back(std::move(node));
      for (const auto& [key, depth] : rep.visits) seen_.visit(key, depth);
      stats_.states_visited += rep.d_states_visited;
      stats_.states_merged += rep.d_states_merged;
      stats_.sleep_blocked += rep.d_sleep_blocked;
      stats_.coin_branches += rep.d_coin_branches;
      stats_.max_trail_depth =
          std::max(stats_.max_trail_depth,
                   static_cast<std::uint64_t>(trail_.size()));
      LeafSpec spec;
      spec.flips = std::move(rep.flips);
      spec.stales = std::move(rep.stales);
      LeafOutcome out;
      out.events = std::move(rep.events);
      out.steps = rep.steps;
      out.pruned = rep.pruned;
      out.complete = rep.complete;
      out.violation = std::move(rep.violation);
      deliver(spec, out);
      return;
    }

    // The child died before reporting. The parent cannot know how the
    // child extended the trail (computing that would mean executing the
    // killer protocol here), so it quarantines the whole current branch:
    // the replay prefix it *does* know — the trail's chosen picks and
    // coin values, in trail order — becomes the artifact, and backtrack()
    // moves past the poisoned subtree.
    LeafSpec spec;
    LeafOutcome out;
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
    out.crash_signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
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
    deliver(spec, out);
  }

  /// Child side of execute_isolated: run + grade inline, report the DFS
  /// delta, and exit without running any parent-side teardown.
  [[noreturn]] void child_run_and_report(int fd) {
    const std::size_t base_nodes = trail_.size();
    std::vector<std::pair<std::uint64_t, std::uint8_t>> visits;
    visit_log_ = &visits;
    const ExploreStats before = stats_;
    const RunResult run = run_core();
    IsolatedReport rep;
    rep.pruned = pruned_;
    rep.steps = run.steps;
    rep.events = std::move(exec_events_);
    rep.flips = std::move(exec_flips_);
    rep.stales = std::move(exec_stales_);
    if (!pruned_) {
      rep.complete = run.reason == RunResult::Reason::kAllDone;
      rep.violation = instance_->check(*runtime_, run, rep.complete);
    }
    rep.new_nodes.assign(trail_.begin() + static_cast<std::ptrdiff_t>(base_nodes),
                         trail_.end());
    rep.visits = std::move(visits);
    rep.d_states_visited = stats_.states_visited - before.states_visited;
    rep.d_states_merged = stats_.states_merged - before.states_merged;
    rep.d_sleep_blocked = stats_.sleep_blocked - before.sleep_blocked;
    rep.d_coin_branches = stats_.coin_branches - before.coin_branches;
    send_report(fd, rep, nprocs_);
    _exit(0);
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

  // --- grading pump (kBatched): TrialExecutor on a helper thread, fed
  // from the bounded queue, delivering to deliver() in generation order.
  void start_pump() {
    const std::size_t window = 4 * static_cast<std::size_t>(limits_.grade_jobs);
    queue_ = std::make_unique<LeafQueue>(window);
    pump_ = std::thread([this] { pump_main(); });
  }

  void pump_main() {
    const engine::TrialExecutor executor(
        engine::ExecutorConfig{limits_.grade_jobs, 0});
    executor.run_ordered<LeafSpec, LeafOutcome>(
        [this]() -> std::optional<LeafSpec> { return queue_->pop(); },
        [this](const LeafSpec& spec, SimReuse& reuse) -> LeafOutcome {
          if (spec.pruned) return passthrough(spec);
          return grade_leaf(target_, limits_, seed_, spec, reuse);
        },
        [this](std::size_t, const LeafSpec& spec, LeafOutcome&& out) {
          deliver(spec, out);
          if (violations_.size() >= limits_.max_violations) {
            // Stop after a deterministic prefix — same cutoff the serial
            // loop applies. Enumeration-side counters may have run a
            // window ahead; the digest and violation list have not.
            stop_requested_.store(true, std::memory_order_relaxed);
            checkpoint_unsafe_ = true;
            queue_->abort();
            return false;
          }
          return true;
        });
  }

  void drain_pump() {
    if (!pump_.joinable()) return;
    queue_->close();
    pump_.join();
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
    h = fnv_mix(h, static_cast<std::uint64_t>(limits_.compact_cache));
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
    trail_.clear();
    trail_.reserve(f.trail.size());
    for (const FrontierNode& fn : f.trail) {
      Node node;
      node.is_coin = fn.is_coin;
      node.coin_value = fn.coin_value;
      node.is_stale = fn.is_stale;
      node.stale_value = fn.stale_value;
      node.stale_options = fn.stale_options;
      node.chosen = fn.chosen;
      node.taken = fn.taken;
      node.candidates = fn.candidates;
      node.sleep = fn.sleep;
      node.ops = fn.ops;
      trail_.push_back(std::move(node));
    }
    seen_.restore(f.cache);
  }

  void finalize_stats() {
    stats_.seconds =
        base_seconds_ +
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
    stats_.cache_entries = seen_.entries();
    stats_.peak_cache_bytes = std::max(base_peak_bytes_, seen_.peak_bytes());
    stats_.cache_evictions = base_evictions_ + seen_.evictions();
  }

  void save_checkpoint(bool complete) {
    Frontier f;
    f.fingerprint = config_fp_;
    f.complete = complete;
    finalize_stats();
    f.stats = stats_;
    f.stats.complete = complete;
    f.trail.reserve(trail_.size());
    for (const Node& node : trail_) {
      FrontierNode fn;
      fn.is_coin = node.is_coin;
      fn.coin_value = node.coin_value;
      fn.is_stale = node.is_stale;
      fn.stale_value = node.stale_value;
      fn.stale_options = node.stale_options;
      fn.chosen = node.chosen;
      fn.taken = node.taken;
      fn.candidates = node.candidates;
      fn.sleep = node.sleep;
      fn.ops = node.ops;
      f.trail.push_back(std::move(fn));
    }
    f.violations = violations_;
    seen_.snapshot(&f.cache);
    BPRC_REQUIRE(save_frontier(frontier_.checkpoint_path, f),
                 "cannot write frontier checkpoint");
  }

  ExploreTarget& target_;
  const ExploreLimits limits_;
  const std::uint64_t seed_;
  const bool reuse_;
  const int nprocs_;
  const FrontierOptions frontier_;
  Mode mode_ = Mode::kInline;
  std::uint64_t config_fp_ = 0;

  std::unique_ptr<SimRuntime> runtime_;
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
  bool cut_ = false;                ///< leaf shipped to the grading pipeline
  std::vector<ProcId> exec_schedule_;
  std::vector<bool> exec_flips_;
  std::vector<int> exec_stales_;    ///< forced stale choices (replay prefix)
  std::vector<std::uint8_t> exec_events_;  ///< leaf_grader.hpp encoding
  /// When set (isolated child), every seen-cache visit is logged so the
  /// parent can replay it on its own cache.
  std::vector<std::pair<std::uint64_t, std::uint8_t>>* visit_log_ = nullptr;

  // Fingerprint state (reset per execution).
  int next_object_ = 0;
  std::vector<std::uint64_t> object_last_;  ///< last-writer identity per object
  std::uint64_t objects_fold_ = 0;          ///< XOR of entry hashes
  std::vector<std::uint64_t> proc_hash_;    ///< per-process history hash
  std::vector<std::uint64_t> proc_writes_;

  // Grading pump (kBatched).
  std::unique_ptr<LeafQueue> queue_;
  std::thread pump_;
  std::atomic<bool> stop_requested_{false};
  bool checkpoint_unsafe_ = false;  ///< trail ran ahead of deliveries

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
                      std::uint64_t seed, bool reuse_runtime,
                      const FrontierOptions* frontier) {
  Explorer explorer(target, limits, seed, reuse_runtime, frontier);
  return explorer.run();
}

}  // namespace bprc::explore
