#include "explore.hpp"

#include <optional>
#include <string>
#include <utility>

#include "bench.hpp"
#include "fault/protocols.hpp"
#include "runtime/sim_runtime.hpp"

namespace pb {

using bprc::explore::ConsensusExploreConfig;
using bprc::explore::ConsensusExploreReport;
using bprc::explore::ExploreStats;

namespace {

/// Scheduling points explored with full branching. Sized so one serial
/// exploration takes about a second on a current x86-64 core.
constexpr std::uint64_t kBranchDepth = 24;

/// Seed of the coins past the forced-flip budget. It is fixed, not taken
/// from --seed: it sets the length of every leaf's deterministic tail (at
/// depth 26 one 97k-state scope took 17M simulator steps at coin seed 1
/// and 61M at coin seed 5), so a seeded cell would measure the seed
/// rather than the explorer.
constexpr std::uint64_t kCoinSeed = 1;

/// schedule_digest of explore_config(any jobs): the walk of the tree.
constexpr std::uint64_t kPinnedScheduleDigest = 0x3cd05f75a708622cULL;

/// Executions that did not finish cleanly: violations and explorations a
/// safety valve cut short.
std::uint64_t failed_executions(const ConsensusExploreReport& report) {
  return report.violations.size() + (report.stats.complete ? 0 : 1);
}

}  // namespace

ConsensusExploreConfig explore_config(unsigned grade_jobs) {
  ConsensusExploreConfig config;
  config.protocol = "bprc";
  config.inputs = {0, 1, 1};
  config.seed = kCoinSeed;
  config.limits.branch_depth = kBranchDepth;
  config.limits.grade_jobs = grade_jobs;
  return config;
}

class SpannedConsensusTarget::SpannedInstance final
    : public bprc::explore::ExploreTarget::Instance {
 public:
  SpannedInstance(SpannedConsensusTarget& target, bprc::SimRuntime& rt,
                  Clock::time_point t0)
      : target_(target), protocol_(target.factory_(rt)), t0_(t0) {
    const int n = target_.nprocs();
    for (bprc::ProcId p = 0; p < n; ++p) {
      const int input = target_.inputs_[static_cast<std::size_t>(p)];
      bprc::ConsensusProtocol* proto = protocol_.get();
      rt.spawn(p, [proto, input] { proto->propose(input); });
    }
  }

  std::optional<bprc::explore::Violation> check(bprc::SimRuntime& rt,
                                                bprc::RunResult run,
                                                bool complete) override {
    const int n = target_.nprocs();
    std::vector<bool> crashed(static_cast<std::size_t>(n), false);
    for (bprc::ProcId p = 0; p < n; ++p) {
      crashed[static_cast<std::size_t>(p)] = rt.crashed(p);
    }
    const bprc::ConsensusRunResult result = bprc::evaluate_consensus(
        *protocol_, target_.inputs_, rt, run, crashed);
    bprc::FailureClass failure = result.failure();
    // A truncated run is inconclusive about termination (as in the
    // library's consensus target); safety violations stand.
    if (!complete && failure == bprc::FailureClass::kTermination) {
      failure = bprc::FailureClass::kNone;
    }
    Span& span = std::this_thread::get_id() == target_.dfs_thread_
                     ? target_.dfs_
                     : target_.graders_;
    span.ns.fetch_add(ns_since(t0_), std::memory_order_relaxed);
    span.steps.fetch_add(run.steps, std::memory_order_relaxed);
    span.executions.fetch_add(1, std::memory_order_relaxed);
    if (failure == bprc::FailureClass::kNone) return std::nullopt;
    bprc::explore::Violation v;
    v.failure = failure;
    v.note = std::string("reason=") + bprc::to_string(result.reason);
    return v;
  }

 private:
  SpannedConsensusTarget& target_;
  std::unique_ptr<bprc::ConsensusProtocol> protocol_;
  Clock::time_point t0_;
};

SpannedConsensusTarget::SpannedConsensusTarget(
    const ConsensusExploreConfig& config)
    : factory_(bprc::fault::make_protocol(
          config.protocol, static_cast<int>(config.inputs.size()),
          config.seed, config.space)),
      inputs_(config.inputs),
      dfs_thread_(std::this_thread::get_id()) {}

std::unique_ptr<bprc::explore::ExploreTarget::Instance>
SpannedConsensusTarget::instantiate(bprc::SimRuntime& rt) {
  return std::make_unique<SpannedInstance>(*this, rt, Clock::now());
}

void run_explore(const Options& opt, Result& out) {
  const ConsensusExploreConfig config = explore_config(1);

  // Set-up: build the cell's target and runtime and drive its single
  // branch-free execution, which is what every exploration starts from.
  std::vector<double> setup_s;
  ConsensusExploreConfig root = config;
  root.limits.branch_depth = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const ConsensusExploreReport report = bprc::explore::explore_consensus(root);
    setup_s.push_back(seconds_since(t0));
    out.require(report.ok() && report.stats.executions == 1,
                "explore set-up execution failed");
  }

  std::vector<double> rates;
  std::uint64_t digest = 0;
  ExploreStats stats;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    const ConsensusExploreReport report =
        bprc::explore::explore_consensus(config);
    const double wall = seconds_since(t0);
    stats = report.stats;
    rates.push_back(static_cast<double>(stats.states_visited) / wall);
    out.attempted += stats.executions;
    out.failed += failed_executions(report);
    if (rates.size() == 1) digest = stats.schedule_digest;
    out.require(stats.schedule_digest == digest,
                "explore schedule_digest differs between repetitions");
  } while (seconds_since(start) < opt.seconds);

  out.require(digest == kPinnedScheduleDigest,
              "explore schedule_digest " + hex64(digest) + " != pinned " +
                  hex64(kPinnedScheduleDigest));
  out.require(out.failed == 0, "explore found violations or was cut short");
  out.note("explore: " + std::to_string(rates.size()) +
           " repetitions of " + std::to_string(stats.states_visited) +
           " states / " + std::to_string(stats.executions) +
           " executions / " + std::to_string(stats.total_steps) +
           " steps, schedule_digest " + hex64(digest) +
           ", states_per_s " + spread(rates));
  out.note("setup_s " + spread(setup_s));
  out.add("setup_s", median(setup_s), "s");
  out.add("work_per_s", median(rates), "1/s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

std::uint64_t trace_explore(Result& out) {
  const ConsensusExploreConfig jobs2 = explore_config(2);
  const ConsensusExploreConfig jobs1 = explore_config(1);

  Clock::time_point t0 = Clock::now();
  const ConsensusExploreReport ref2 = bprc::explore::explore_consensus(jobs2);
  const double untraced2_s = seconds_since(t0);
  t0 = Clock::now();
  const ConsensusExploreReport ref1 = bprc::explore::explore_consensus(jobs1);
  const double untraced1_s = seconds_since(t0);
  out.attempted += ref2.stats.executions + ref1.stats.executions;
  out.failed += failed_executions(ref2) + failed_executions(ref1);
  const std::uint64_t digest = ref2.stats.schedule_digest;

  SpannedConsensusTarget target2(jobs2);
  t0 = Clock::now();
  const bprc::explore::ExploreResult traced2 =
      bprc::explore::explore(target2, jobs2.limits, jobs2.seed);
  const double traced2_s = seconds_since(t0);

  SpannedConsensusTarget target1(jobs1);
  t0 = Clock::now();
  const bprc::explore::ExploreResult traced1 =
      bprc::explore::explore(target1, jobs1.limits, jobs1.seed);
  const double traced1_s = seconds_since(t0);

  // Cost-model check: all four explorations walked the same tree.
  out.require(ref1.stats.schedule_digest == digest &&
                  traced2.stats.schedule_digest == digest &&
                  traced1.stats.schedule_digest == digest,
              "explore passes disagree on schedule_digest");
  out.require(traced2.stats.total_steps == ref2.stats.total_steps &&
                  traced1.stats.total_steps == ref2.stats.total_steps,
              "explore passes executed different step totals");
  out.require(digest == kPinnedScheduleDigest,
              "explore schedule_digest " + hex64(digest) + " != pinned " +
                  hex64(kPinnedScheduleDigest));

  const ExploreStats& s = ref2.stats;
  const double nodes =
      static_cast<double>(s.states_visited + s.states_merged + s.sleep_blocked);
  out.add("explore.states", static_cast<double>(s.states_visited), "count");
  out.add("explore.executions", static_cast<double>(s.executions), "count");
  out.add("explore.sim_steps", static_cast<double>(s.total_steps), "count");
  out.add("explore.sleep_skip_frac",
          static_cast<double>(s.sleep_pruned) /
              (static_cast<double>(s.sleep_pruned) + nodes),
          "ratio");
  out.add("explore.cache_merge_frac",
          static_cast<double>(s.states_merged) / nodes, "ratio");
  out.add("explore.exec_share",
          static_cast<double>(target1.dfs().ns.load()) * 1e-9 / traced1_s,
          "ratio");
  out.add("explore.grade_ns_per_step",
          static_cast<double>(target2.graders().ns.load()) /
              static_cast<double>(target2.graders().steps.load()),
          "ns");
  out.add("explore.serial_frac", 2.0 * untraced2_s / untraced1_s - 1.0,
          "ratio");
  // The serial pair: the untraced workload runs serially, and the
  // parallel pair's wall moves with the host's core availability.
  out.add("trace.overhead_frac.explore", traced1_s / untraced1_s - 1.0,
          "ratio");
  out.note("trace explore: jobs2 " + std::to_string(untraced2_s) +
           " s (traced " + std::to_string(traced2_s) + " s), jobs1 " +
           std::to_string(untraced1_s) + " s (traced " +
           std::to_string(traced1_s) + " s), cache entries " +
           std::to_string(s.cache_entries));
  return s.cache_entries;
}

}  // namespace pb
