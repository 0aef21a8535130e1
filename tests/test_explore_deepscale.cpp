// Tests for the explorer's deep-scale layers (src/explore/): engine-
// batched leaf grading (digest byte-equality across jobs levels), the
// compact seen-state cache (map parity, budgeted eviction), frontier
// checkpoint/resume (resumed digest == uninterrupted digest), frontier
// splitting, and fork-isolated grading of process-killing protocols.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "explore/consensus_explore.hpp"
#include "explore/explorer.hpp"
#include "explore/frontier.hpp"
#include "explore/seen_cache.hpp"
#include "fault/repro.hpp"

namespace bprc::explore {
namespace {

ExploreLimits cell_limits(std::uint64_t depth, std::uint64_t coins = 2) {
  ExploreLimits limits;
  limits.branch_depth = depth;
  limits.max_coin_flips = coins;
  limits.max_run_steps = 200'000;
  limits.max_violations = 64;
  return limits;
}

ConsensusExploreReport run_cell(const std::string& protocol,
                                std::vector<int> inputs,
                                const ExploreLimits& limits,
                                const FrontierOptions* frontier = nullptr,
                                std::uint64_t seed = 1) {
  ConsensusExploreConfig config;
  config.protocol = protocol;
  config.inputs = std::move(inputs);
  config.seed = seed;
  config.limits = limits;
  return explore_consensus(config, frontier);
}

// ---------------------------------------------------------------------------
// Batched grading: byte-identical digests at every jobs level
// ---------------------------------------------------------------------------

TEST(DeepScale, DigestIsInvariantAcrossJobsAndCacheLayout) {
  // Serial vs batched grading must land on the same stats, and they are
  // pinned: they are the values the retired unordered_map cache layout
  // produced too, so dropping it changed no merge decision. The second
  // cell runs without sleep sets so the state cache does merge.
  struct Pinned {
    bool sleep_sets;
    std::uint64_t depth, digest, executions, states, merged;
  };
  for (const Pinned& pin : {Pinned{true, 12, 0x2506cf466fa9d04aULL, 218, 505, 0},
                            Pinned{false, 10, 0x81dd65f54c330d1fULL, 501, 250,
                                   276}}) {
    for (const unsigned jobs : {1u, 4u}) {
      ExploreLimits limits = cell_limits(pin.depth);
      limits.sleep_sets = pin.sleep_sets;
      limits.grade_jobs = jobs;
      const ConsensusExploreReport report =
          run_cell("bprc", {0, 1, 1}, limits);
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE(report.stats.complete);
      const std::string where = "depth=" + std::to_string(pin.depth) +
                                " jobs=" + std::to_string(jobs);
      EXPECT_EQ(report.stats.schedule_digest, pin.digest) << where;
      EXPECT_EQ(report.stats.executions, pin.executions) << where;
      EXPECT_EQ(report.stats.states_visited, pin.states) << where;
      EXPECT_EQ(report.stats.states_merged, pin.merged) << where;
    }
  }
}

TEST(DeepScale, BatchedGradingFindsTheSameViolationsInOrder) {
  // broken-racy at n=2: the batched pipeline must report the identical
  // violation sequence (count, schedules, flips) the serial DFS finds —
  // generation-order delivery is what makes the digest contract hold.
  ExploreLimits serial = cell_limits(8, 3);
  ExploreLimits batched = serial;
  batched.grade_jobs = 4;
  const ConsensusExploreReport a = run_cell("broken-racy", {0, 1}, serial);
  const ConsensusExploreReport b = run_cell("broken-racy", {0, 1}, batched);
  ASSERT_GT(a.violations.size(), 0u);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.stats.schedule_digest, b.stats.schedule_digest);
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].schedule, b.violations[i].schedule) << i;
    EXPECT_EQ(a.violations[i].flips, b.violations[i].flips) << i;
    EXPECT_EQ(a.violations[i].failure, b.violations[i].failure) << i;
  }
}

TEST(DeepScale, EarlyStopPicksTheSameFirstViolation) {
  // max_violations=1 stops the sweep at the first finding; with batched
  // grading the pipeline may have speculated past it, but the *reported*
  // first violation must still be the serial DFS's first violation.
  ExploreLimits serial = cell_limits(8, 3);
  serial.max_violations = 1;
  ExploreLimits batched = serial;
  batched.grade_jobs = 4;
  const ConsensusExploreReport a = run_cell("broken-racy", {0, 1}, serial);
  const ConsensusExploreReport b = run_cell("broken-racy", {0, 1}, batched);
  ASSERT_EQ(a.violations.size(), 1u);
  ASSERT_EQ(b.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].schedule, b.violations[0].schedule);
  EXPECT_EQ(a.violations[0].flips, b.violations[0].flips);
}

TEST(DeepScale, ViolationStopStatsAreJobsInvariant) {
  // bprc_explore --protocol broken-racy --n 3 --depth 12: every cell stops
  // at its eighth violation. With batched grading the DFS runs up to a
  // window past that leaf, yet the reported stats — enumeration-side
  // counters included — must be the serial sweep's, all but the wall time.
  ExploreLimits limits = cell_limits(12, 3);
  limits.max_violations = 8;
  for (int bits = 0; bits < 8; ++bits) {
    const std::vector<int> inputs = {bits & 1, (bits >> 1) & 1,
                                     (bits >> 2) & 1};
    limits.grade_jobs = 1;
    const ExploreStats serial = run_cell("broken-racy", inputs, limits).stats;
    for (const unsigned jobs : {2u, 4u}) {
      limits.grade_jobs = jobs;
      const ExploreStats s = run_cell("broken-racy", inputs, limits).stats;
      const std::string where = "inputs " + std::to_string(bits) +
                                " jobs " + std::to_string(jobs);
      EXPECT_EQ(s.executions, serial.executions) << where;
      EXPECT_EQ(s.complete_runs, serial.complete_runs) << where;
      EXPECT_EQ(s.truncated_runs, serial.truncated_runs) << where;
      EXPECT_EQ(s.pruned_runs, serial.pruned_runs) << where;
      EXPECT_EQ(s.states_visited, serial.states_visited) << where;
      EXPECT_EQ(s.states_merged, serial.states_merged) << where;
      EXPECT_EQ(s.sleep_pruned, serial.sleep_pruned) << where;
      EXPECT_EQ(s.sleep_blocked, serial.sleep_blocked) << where;
      EXPECT_EQ(s.coin_branches, serial.coin_branches) << where;
      EXPECT_EQ(s.stale_branches, serial.stale_branches) << where;
      EXPECT_EQ(s.max_trail_depth, serial.max_trail_depth) << where;
      EXPECT_EQ(s.total_steps, serial.total_steps) << where;
      EXPECT_EQ(s.worker_crashes, serial.worker_crashes) << where;
      EXPECT_EQ(s.cache_entries, serial.cache_entries) << where;
      EXPECT_EQ(s.peak_cache_bytes, serial.peak_cache_bytes) << where;
      EXPECT_EQ(s.cache_evictions, serial.cache_evictions) << where;
      EXPECT_EQ(s.schedule_digest, serial.schedule_digest) << where;
      EXPECT_EQ(s.complete, serial.complete) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// SeenCache: map parity, depth semantics, budgeted eviction
// ---------------------------------------------------------------------------

TEST(SeenCacheTest, DepthSemantics) {
  SeenCache cache(SeenCache::Layout::kCompact);
  EXPECT_EQ(cache.visit(42, 5), SeenCache::Visit::kNew);
  EXPECT_EQ(cache.visit(42, 5), SeenCache::Visit::kMerged);
  EXPECT_EQ(cache.visit(42, 9), SeenCache::Visit::kMerged);
  // Shallower revisit: the guarded subtree is larger — re-explore.
  EXPECT_EQ(cache.visit(42, 2), SeenCache::Visit::kRedo);
  EXPECT_EQ(cache.visit(42, 3), SeenCache::Visit::kMerged);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(SeenCacheTest, LayoutsMakeIdenticalDecisions) {
  // A pseudo-random visit stream must produce the verdict sequence of the
  // plain map reference below — the explorer's digest depends on it.
  std::unordered_map<std::uint64_t, std::uint8_t> reference;
  const auto reference_visit = [&](std::uint64_t key, std::uint8_t depth) {
    const auto [it, inserted] = reference.try_emplace(key, depth);
    if (inserted) return SeenCache::Visit::kNew;
    if (it->second <= depth) return SeenCache::Visit::kMerged;
    it->second = depth;
    return SeenCache::Visit::kRedo;
  };
  SeenCache compact(SeenCache::Layout::kCompact);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Small key space forces plenty of revisits at varying depths.
    std::uint64_t key = (x % 4096) + 1;
    const std::uint8_t depth = static_cast<std::uint8_t>((x >> 20) % 32);
    ASSERT_EQ(reference_visit(key, depth), compact.visit(key, depth)) << i;
  }
  EXPECT_EQ(reference.size(), compact.entries());
}

TEST(SeenCacheTest, CompactStaysUnderBudgetByEvicting) {
  const std::uint64_t budget = 64 * 1024;
  SeenCache cache(SeenCache::Layout::kCompact, budget);
  std::uint64_t x = 1;
  for (int i = 0; i < 200'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint8_t depth = static_cast<std::uint8_t>(x % 64);
    cache.visit(x == 0 ? kSeenZeroKey : x, depth);
    ASSERT_LE(cache.bytes(), budget) << "cache grew past its budget";
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.peak_bytes(), budget);
  // Shallow entries survive eviction: depth-0 states re-merge.
  SeenCache shallow(SeenCache::Layout::kCompact, budget);
  EXPECT_EQ(shallow.visit(7, 0), SeenCache::Visit::kNew);
  EXPECT_EQ(shallow.visit(7, 0), SeenCache::Visit::kMerged);
}

TEST(SeenCacheTest, SnapshotRestoreRoundTrips) {
  SeenCache cache(SeenCache::Layout::kCompact);
  std::uint64_t x = 3;
  for (int i = 0; i < 5'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    cache.visit(x, static_cast<std::uint8_t>(x % 17));
  }
  std::vector<std::pair<std::uint64_t, std::uint8_t>> snap;
  cache.snapshot(&snap);
  ASSERT_EQ(snap.size(), cache.entries());
  SeenCache restored(SeenCache::Layout::kCompact);
  restored.restore(snap);
  EXPECT_EQ(restored.entries(), cache.entries());
  // Every saved entry merges at its recorded depth in the restored
  // cache — the property resume correctness rests on.
  for (const auto& [key, depth] : snap) {
    EXPECT_EQ(restored.visit(key, depth), SeenCache::Visit::kMerged);
  }
}

TEST(DeepScale, CacheBudgetIsSoundAtTheExplorerLevel) {
  // A starved cache re-explores instead of pruning — more work, same
  // verdict, footprint bounded, evictions reported.
  ExploreLimits unbounded = cell_limits(12);
  ExploreLimits starved = unbounded;
  starved.max_cache_bytes = 32 * 1024;
  const ConsensusExploreReport a = run_cell("bprc", {0, 1, 1}, unbounded);
  const ConsensusExploreReport b = run_cell("bprc", {0, 1, 1}, starved);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.stats.complete);
  EXPECT_TRUE(b.stats.complete);
  EXPECT_GE(b.stats.executions, a.stats.executions);
  EXPECT_LE(b.stats.peak_cache_bytes, 32u * 1024u);
  if (a.stats.peak_cache_bytes > 32 * 1024) {
    EXPECT_GT(b.stats.cache_evictions, 0u);
  }
}

// ---------------------------------------------------------------------------
// Frontier files: round trip, parse hardening
// ---------------------------------------------------------------------------

TEST(FrontierTest, SerializeParseRoundTrips) {
  Frontier f;
  f.fingerprint = 0x1F2E3D4C5B6A7988ULL;
  f.complete = false;
  f.stats.executions = 1234;
  f.stats.schedule_digest = 0x60F38CFEECAD3890ULL;
  f.stats.states_visited = 999;
  f.stats.peak_cache_bytes = 4096;
  FrontierNode sched;
  sched.chosen = 1;
  sched.taken = 2;
  sched.candidates = 0b11;
  sched.sleep = 0b01;
  sched.ops.resize(2);
  sched.ops[0].kind = OpDesc::Kind::kWrite;
  sched.ops[0].object = 3;
  sched.ops[0].payload = -7;
  f.trail.push_back(sched);
  FrontierNode coin;
  coin.is_coin = true;
  coin.coin_value = true;
  coin.taken = 1;
  f.trail.push_back(coin);
  ExploreViolation v;
  v.failure = FailureClass::kConsistency;
  v.note = "decisions=0,1";
  v.schedule = {0, 1, 0, 1};
  v.flips = {true, false};
  f.violations.push_back(v);
  f.cache = {{kSeenZeroKey, 0}, {0x1BADB002DEADBEEFULL, 3}};

  std::string err;
  const auto parsed = parse_frontier(serialize_frontier(f), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->fingerprint, f.fingerprint);
  EXPECT_EQ(parsed->complete, f.complete);
  EXPECT_EQ(parsed->stats.executions, f.stats.executions);
  EXPECT_EQ(parsed->stats.schedule_digest, f.stats.schedule_digest);
  EXPECT_EQ(parsed->stats.states_visited, f.stats.states_visited);
  EXPECT_EQ(parsed->stats.peak_cache_bytes, f.stats.peak_cache_bytes);
  ASSERT_EQ(parsed->trail.size(), 2u);
  EXPECT_FALSE(parsed->trail[0].is_coin);
  EXPECT_EQ(parsed->trail[0].chosen, 1);
  EXPECT_EQ(parsed->trail[0].taken, 2);
  EXPECT_EQ(parsed->trail[0].candidates, 0b11u);
  EXPECT_EQ(parsed->trail[0].sleep, 0b01u);
  ASSERT_EQ(parsed->trail[0].ops.size(), 2u);
  EXPECT_EQ(parsed->trail[0].ops[0].kind, OpDesc::Kind::kWrite);
  EXPECT_EQ(parsed->trail[0].ops[0].object, 3);
  EXPECT_EQ(parsed->trail[0].ops[0].payload, -7);
  EXPECT_TRUE(parsed->trail[1].is_coin);
  EXPECT_TRUE(parsed->trail[1].coin_value);
  ASSERT_EQ(parsed->violations.size(), 1u);
  EXPECT_EQ(parsed->violations[0].failure, FailureClass::kConsistency);
  EXPECT_EQ(parsed->violations[0].schedule, v.schedule);
  EXPECT_EQ(parsed->violations[0].flips, v.flips);
  EXPECT_EQ(parsed->violations[0].note, v.note);
  EXPECT_EQ(parsed->cache, f.cache);
}

TEST(FrontierTest, ParseRejectsMalformedInput) {
  std::string err;
  // Wrong magic.
  EXPECT_FALSE(parse_frontier("bprc-shard v1\nend\n", &err).has_value());
  // Unsupported version.
  EXPECT_FALSE(parse_frontier("bprc-frontier v99\nend\n", &err).has_value());
  // Truncated (no `end` guard): a partially-written checkpoint must not
  // load as an empty-but-valid frontier.
  const Frontier empty;
  std::string text = serialize_frontier(empty);
  text.resize(text.rfind("end"));
  EXPECT_FALSE(parse_frontier(text, &err).has_value());
  EXPECT_FALSE(err.empty());
  // Garbage trail count.
  EXPECT_FALSE(
      parse_frontier("bprc-frontier v1\ntrail 5\nend\n", &err).has_value());
  // Whole-line lists and fixed-arity lines: a bad element or a trailing
  // token rejects the line, never truncates or ignores it.
  const std::string good =
      "bprc-frontier v1\ntrail 1\n"
      "node s 1 2 0000000000000003 0000000000000001 0\n"
      "violations 1\nviolation consistency\nvschedule 0 1 0 2\n"
      "vflips 0 1\nvnote x\ncache 1\nseen 1badb002deadbeef 3\nend\n";
  ASSERT_TRUE(parse_frontier(good, &err).has_value()) << err;
  const std::pair<const char*, const char*> cases[] = {
      {"vschedule 0 1 0 2\n", "vschedule 0 1 x 2\n"},
      {"vflips 0 1\n", "vflips 0 7\n"},
      {"0000000000000001 0\n", "0000000000000001 0 9\n"},
      {"deadbeef 3\n", "deadbeef 3 9\n"},
  };
  for (const auto& [from, to] : cases) {
    std::string text = good;
    text.replace(text.find(from), std::string(from).size(), to);
    err.clear();
    EXPECT_FALSE(parse_frontier(text, &err).has_value()) << to;
    EXPECT_FALSE(err.empty()) << to;
  }
}

TEST(FrontierTest, SaveSurvivesSigkillMidWrite) {
  // Checkpoints overwrite the only copy of a sweep's progress. A saver
  // killed at any point must leave the previous frontier or the new one
  // on disk — never a torn file that refuses to resume.
  const std::string dir = testing::TempDir() + "frontier_sigkill";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/cut.bprc-frontier";
  Frontier old_frontier;
  old_frontier.fingerprint = 1;
  Frontier new_frontier;
  new_frontier.fingerprint = 2;
  for (std::uint64_t i = 1; i <= 250'000; ++i) {
    new_frontier.cache.emplace_back(i * 0x9E3779B97F4A7C15ULL,
                                    static_cast<std::uint8_t>(i % 64));
  }
  // One timed save sets the kill delays, so they sweep the whole write
  // on any machine.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(save_frontier(dir + "/timing.bprc-frontier", new_frontier));
  const auto full = std::chrono::steady_clock::now() - t0;
  for (int step = 0; step < 14; ++step) {
    ASSERT_TRUE(save_frontier(path, old_frontier));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) _exit(save_frontier(path, new_frontier) ? 0 : 1);
    std::this_thread::sleep_for(full * step / 8);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    std::string err;
    const auto loaded = load_frontier(path, &err);
    ASSERT_TRUE(loaded.has_value()) << "kill at step " << step << ": " << err;
    EXPECT_TRUE(loaded->fingerprint == 1 || loaded->fingerprint == 2);
    if (loaded->fingerprint == 2) {
      EXPECT_EQ(loaded->cache.size(), new_frontier.cache.size());
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(FrontierTest, UnknownKeysAreSkippedForForwardCompat) {
  Frontier f;
  f.fingerprint = 7;
  std::string text = serialize_frontier(f);
  text.insert(text.find("end"), "future-key some value\n");
  std::string err;
  const auto parsed = parse_frontier(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->fingerprint, 7u);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume: the resumed digest is the uninterrupted digest
// ---------------------------------------------------------------------------

ConsensusExploreReport run_with_resume_cycles(const std::string& protocol,
                                              std::vector<int> inputs,
                                              ExploreLimits limits,
                                              std::uint64_t slice,
                                              unsigned resume_jobs,
                                              int* cycles_out) {
  const std::string path = testing::TempDir() + "/deepscale_" + protocol +
                           std::to_string(inputs.size()) + "_j" +
                           std::to_string(resume_jobs) + ".bprc-frontier";
  limits.max_executions = slice;
  FrontierOptions fresh;
  fresh.checkpoint_path = path;
  ConsensusExploreReport report =
      run_cell(protocol, inputs, limits, &fresh);
  int cycles = 0;
  while (!report.stats.complete) {
    ++cycles;
    EXPECT_LT(cycles, 10'000);
    if (cycles >= 10'000) break;
    std::string err;
    const auto frontier = load_frontier(path, &err);
    EXPECT_TRUE(frontier.has_value()) << err;
    if (!frontier.has_value()) break;
    FrontierOptions opts;
    opts.resume = &*frontier;
    opts.checkpoint_path = path;
    limits.max_executions = report.stats.executions + slice;
    limits.grade_jobs = resume_jobs;
    report = run_cell(protocol, inputs, limits, &opts);
  }
  if (cycles_out != nullptr) *cycles_out = cycles;
  std::remove(path.c_str());
  return report;
}

TEST(CheckpointResume, ResumedDigestMatchesUninterrupted) {
  const ExploreLimits limits = cell_limits(8, 3);
  const ConsensusExploreReport full = run_cell("bprc", {0, 1}, limits);
  ASSERT_TRUE(full.stats.complete);
  int cycles = 0;
  const ConsensusExploreReport resumed = run_with_resume_cycles(
      "bprc", {0, 1}, limits, /*slice=*/7, /*resume_jobs=*/1, &cycles);
  ASSERT_GT(cycles, 0) << "slice never interrupted the sweep; test is vacuous";
  EXPECT_EQ(resumed.stats.schedule_digest, full.stats.schedule_digest);
  EXPECT_EQ(resumed.stats.executions, full.stats.executions);
  EXPECT_EQ(resumed.stats.states_visited, full.stats.states_visited);
  EXPECT_EQ(resumed.violations.size(), full.violations.size());
}

TEST(CheckpointResume, ResumeUnderBatchedGradingMatchesToo) {
  // Interrupt serially, resume with the worker pool: the digest must
  // still land on the uninterrupted value (checkpoints are only taken at
  // drained pipeline boundaries).
  const ExploreLimits limits = cell_limits(8, 3);
  const ConsensusExploreReport full = run_cell("bprc", {0, 1}, limits);
  int cycles = 0;
  const ConsensusExploreReport resumed = run_with_resume_cycles(
      "bprc", {0, 1}, limits, /*slice=*/9, /*resume_jobs=*/4, &cycles);
  ASSERT_GT(cycles, 0);
  EXPECT_EQ(resumed.stats.schedule_digest, full.stats.schedule_digest);
  EXPECT_EQ(resumed.stats.executions, full.stats.executions);
}

TEST(CheckpointResume, ViolationsSurviveTheCheckpoint) {
  // Findings collected before the interrupt must come back with the
  // resumed run, not be rediscovered or dropped.
  ExploreLimits limits = cell_limits(8, 3);
  const ConsensusExploreReport full = run_cell("broken-racy", {0, 1}, limits);
  ASSERT_GT(full.violations.size(), 0u);
  int cycles = 0;
  const ConsensusExploreReport resumed = run_with_resume_cycles(
      "broken-racy", {0, 1}, limits, /*slice=*/5, /*resume_jobs=*/1, &cycles);
  ASSERT_GT(cycles, 0);
  ASSERT_EQ(resumed.violations.size(), full.violations.size());
  for (std::size_t i = 0; i < full.violations.size(); ++i) {
    EXPECT_EQ(resumed.violations[i].schedule, full.violations[i].schedule);
  }
  EXPECT_EQ(resumed.stats.schedule_digest, full.stats.schedule_digest);
}

TEST(CheckpointResume, CompleteFrontierShortCircuits) {
  const std::string path =
      testing::TempDir() + "/deepscale_complete.bprc-frontier";
  const ExploreLimits limits = cell_limits(8, 3);
  FrontierOptions fresh;
  fresh.checkpoint_path = path;
  const ConsensusExploreReport full = run_cell("bprc", {0, 1}, limits, &fresh);
  ASSERT_TRUE(full.stats.complete);
  std::string err;
  const auto frontier = load_frontier(path, &err);
  ASSERT_TRUE(frontier.has_value()) << err;
  EXPECT_TRUE(frontier->complete);
  FrontierOptions opts;
  opts.resume = &*frontier;
  const ConsensusExploreReport again = run_cell("bprc", {0, 1}, limits, &opts);
  // No re-exploration: the saved result is returned as-is.
  EXPECT_EQ(again.stats.schedule_digest, full.stats.schedule_digest);
  EXPECT_EQ(again.stats.executions, full.stats.executions);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Frontier splitting: slices partition the root branching
// ---------------------------------------------------------------------------

TEST(DeepScale, SplitSlicesPartitionTheTree) {
  // With both prunings off, every execution belongs to exactly one root
  // branch, so the slice execution counts must sum to the full sweep's.
  ExploreLimits bare = cell_limits(6);
  bare.sleep_sets = false;
  bare.state_cache = false;
  const ConsensusExploreReport full = run_cell("bprc", {0, 1, 1}, bare);
  ASSERT_TRUE(full.stats.complete);
  std::uint64_t total = 0;
  for (std::uint32_t index = 0; index < 2; ++index) {
    ExploreLimits slice = bare;
    slice.split_index = index;
    slice.split_count = 2;
    const ConsensusExploreReport part = run_cell("bprc", {0, 1, 1}, slice);
    ASSERT_TRUE(part.stats.complete);
    EXPECT_TRUE(part.ok());
    total += part.stats.executions;
  }
  EXPECT_EQ(total, full.stats.executions);
}

// ---------------------------------------------------------------------------
// Isolated grading: a process-killing protocol cannot take the DFS down
// ---------------------------------------------------------------------------

TEST(Isolate, BenignSegvSeedExploresClean) {
  // Odd seeds arm the benign variant: behaves like a correct protocol,
  // so an isolated sweep completes with no findings.
  ExploreLimits limits = cell_limits(6);
  limits.isolate_leaves = true;
  const ConsensusExploreReport report =
      run_cell("broken-segv", {0, 1}, limits, nullptr, /*seed=*/1);
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violations";
  EXPECT_TRUE(report.stats.complete);
  EXPECT_EQ(report.stats.worker_crashes, 0u);
}

TEST(Isolate, IsolationMatchesInlineDigestOnCleanProtocols) {
  // Fork-isolation is a crash containment wrapper, not a semantic change:
  // on a well-behaved protocol the isolated sweep lands on the inline
  // sweep's digest and tree counters. The second cell is the committed
  // local-coin-regular-n2 frontier's: it has coin and stale-read nodes
  // and seen-cache merges, so the parent's replay of each probed
  // execution must rebuild every node kind and cache visit.
  ExploreLimits bprc = cell_limits(8, 3);
  ExploreLimits local_coin = cell_limits(16, 3);
  local_coin.semantics = RegisterSemantics::kRegular;
  local_coin.max_stale_reads = 2;
  struct Cell {
    const char* protocol;
    ExploreLimits limits;
  };
  for (const Cell& cell : {Cell{"bprc", bprc}, Cell{"local-coin", local_coin}}) {
    ExploreLimits isolated = cell.limits;
    isolated.isolate_leaves = true;
    const ConsensusExploreReport a = run_cell(cell.protocol, {0, 1}, cell.limits);
    const ConsensusExploreReport b = run_cell(cell.protocol, {0, 1}, isolated);
    ASSERT_TRUE(a.ok()) << cell.protocol;
    ASSERT_TRUE(b.ok()) << cell.protocol;
    if (cell.limits.semantics == RegisterSemantics::kRegular) {
      EXPECT_GT(a.stats.states_merged, 0u);
      EXPECT_GT(a.stats.coin_branches, 0u);
      EXPECT_GT(a.stats.stale_branches, 0u);
    }
    EXPECT_EQ(a.stats.schedule_digest, b.stats.schedule_digest) << cell.protocol;
    EXPECT_EQ(a.stats.executions, b.stats.executions) << cell.protocol;
    EXPECT_EQ(a.stats.states_visited, b.stats.states_visited) << cell.protocol;
    EXPECT_EQ(a.stats.states_merged, b.stats.states_merged) << cell.protocol;
    EXPECT_EQ(a.stats.sleep_blocked, b.stats.sleep_blocked) << cell.protocol;
    EXPECT_EQ(a.stats.coin_branches, b.stats.coin_branches) << cell.protocol;
    EXPECT_EQ(a.stats.stale_branches, b.stats.stale_branches) << cell.protocol;
  }
}

TEST(Isolate, LethalSegvSurfacesAsWorkerCrash) {
  // Even seeds arm the lethal variant: the first graded execution kills
  // its worker process. Under --isolate the parent survives, records a
  // kWorkerCrash finding, and the artifact round-trips the repro format.
  const auto check_quarantined = [] {
    ExploreLimits limits = cell_limits(6);
    limits.isolate_leaves = true;
    limits.max_violations = 1;
    const ConsensusExploreReport report =
        run_cell("broken-segv", {0, 1}, limits, nullptr, /*seed=*/2);
    ASSERT_FALSE(report.ok()) << "lethal protocol produced no finding";
    EXPECT_GT(report.stats.worker_crashes, 0u);
    const ExploreViolation& v = report.violations.front();
    EXPECT_EQ(v.failure, FailureClass::kWorkerCrash);
    EXPECT_NE(v.note.find("worker died"), std::string::npos) << v.note;
    EXPECT_NE(v.note.find("signal"), std::string::npos) << v.note;
    // The quarantine artifact survives the .bprc-repro text format (we do
    // NOT replay it in-process — that is the crash we just contained).
    const fault::Repro repro = make_explore_repro(report.config, v);
    std::string err;
    const auto parsed =
        fault::parse_repro(fault::serialize_repro(repro), &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->failure, FailureClass::kWorkerCrash);
    EXPECT_EQ(parsed->schedule, v.schedule);
  };
  check_quarantined();

  // Again with SIGCHLD ignored, as a launcher that ignored it before
  // execve leaves the process: the kernel would then reap the workers
  // itself, so the explorer must make them waitable again to read an exit
  // status. The alarm turns a waitpid() hang into a failure.
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGCHLD, &ignore, &saved), 0);
  ::alarm(30);
  check_quarantined();
  ::alarm(0);
  ASSERT_EQ(::sigaction(SIGCHLD, &saved, nullptr), 0);
}

}  // namespace
}  // namespace bprc::explore
