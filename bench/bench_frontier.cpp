// E11 — the space–time frontier (docs/SPACE_BUDGETS.md).
//
// The paper buys polynomial expected time with bounded space: 3K-cycle
// edge counters, K+1 coin slots, ±(m+1) walk counters with m = (f(b)·n)².
// Gelashvili and Toyos-Marfurt–Kuznetsov (PAPERS.md) chart the region
// around that point asymptotically; this table measures it concretely.
// Each row pins a SpaceBudget, sweeps a campaign cell of the faithful
// space-sensitive protocols under the random adversary, and reports
//
//   * bits/proc — the budgeted shared-register bits per process (space);
//   * steps/run — mean simulated steps to global decision (time);
//
// plus the campaign digest, re-checked at jobs=1 vs jobs=max vs 2 forked
// workers: the frontier numbers come from byte-identical run sets at
// every parallelism level, like every other lane of the harness.
//
// The measured trend: steps grow ~quadratically in the barrier b (a
// ±b·n random walk takes Θ((bn)²) flips to escape), so "wide" budgets
// buy coin sharpness — adversarial bias bounded by 1/b (Lemma 3.4) —
// at quadratic time cost. Shrinking m_scale is free under the *random*
// adversary (the walk decides long before a quarter-size counter
// overflows); what a small m gives up is margin, not speed — the
// overflow rule fires earlier under adversarial schedules, and the
// paper needs overflow to stay rarer than the coin's inherent 1/b
// disagreement for the expected-time bound to close.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "coin/coin_logic.hpp"
#include "experiment_common.hpp"
#include "fault/campaign.hpp"
#include "fault/protocols.hpp"
#include "shard/coordinator.hpp"
#include "util/assert.hpp"
#include "util/space_budget.hpp"

namespace bprc::bench {
namespace {

/// One point of the frontier. Time side: mean simulated steps per run of
/// a campaign cell pinned to the budget. The digest lets the table assert
/// that every jobs / workers level measured the identical run set.
struct FrontierPerf {
  double mean_steps = 0.0;
  std::uint64_t digest = 0;
};

/// Shared-register bits per process bought by `space` at size n: the
/// coin-slot ring (slots cells of ±(m+1) counters) plus the n−1 outgoing
/// edge counters (mod cycle). Only the budget-controlled fields are
/// counted — the constant-size pref/hint fields are the same at every
/// budget and would only blur the frontier's x-axis.
double space_bits_per_process(const SpaceBudget& space, int n) {
  const CoinParams coin = CoinParams::standard(n, space.b, space.m_scale);
  auto bits_for = [](std::int64_t distinct) {
    double bits = 0.0;
    while ((std::int64_t{1} << static_cast<int>(bits)) < distinct) bits += 1.0;
    return bits;
  };
  const double counter_bits = bits_for(2 * (coin.m + 1) + 1);
  const double edge_bits = bits_for(space.cycle());
  return static_cast<double>(space.slots) * counter_bits +
         static_cast<double>(n - 1) * edge_bits;
}

/// Sweeps one (protocol, n) campaign cell of `trials` seeds under the
/// random adversary at the given space budget. workers == 0 runs
/// in-process at `jobs` threads (mean steps come from the run observer);
/// workers >= 2 pushes the identical cell through the forked-worker
/// coordinator, where per-run steps stay behind the wire and only the
/// digest is meaningful.
FrontierPerf measure_space_frontier(const std::string& protocol,
                                    const SpaceBudget& space, int n,
                                    std::uint64_t trials, unsigned jobs,
                                    unsigned workers = 0) {
  fault::CampaignConfig config;
  config.protocols = {protocol};
  config.ns = {n};
  config.adversaries = {"random"};
  config.seeds_per_cell = trials;
  config.crash_plans = false;
  config.spaces = {space};
  config.max_steps = kRunBudget;
  config.run_deadline = std::chrono::milliseconds::zero();
  config.jobs = jobs;
  std::uint64_t total_steps = 0;
  fault::CampaignReport report;
  if (workers >= 2) {
    shard::ShardServiceConfig service;
    service.campaign = config;
    service.workers = workers;
    report = shard::run_sharded_campaign(service);
  } else {
    report = fault::run_campaign(
        config, [&total_steps](const fault::TortureRun&,
                               const ConsensusRunResult& r) {
          total_steps += r.total_steps;
        });
  }
  BPRC_REQUIRE(report.ok(), "frontier bench campaign failed");
  FrontierPerf out;
  out.digest = report.summary_digest;
  if (report.runs > 0) {
    out.mean_steps = static_cast<double>(total_steps) /
                     static_cast<double>(report.runs);
  }
  return out;
}

void frontier_table() {
  const int n = 3;
  const std::uint64_t trials = scaled_trials(96);
  const unsigned jobs = std::max(2u, bench_jobs());
  print_banner("E11", "Space-time frontier: budget vs expected steps (n=3)");
  std::printf(
      "Each budget: %llu seeds, random adversary, digest-checked at\n"
      "jobs=1 vs jobs=%u vs workers=2 (byte-identical run sets).\n\n",
      static_cast<unsigned long long>(trials), jobs);

  struct Point {
    const char* tag;
    SpaceBudget space;
  };
  std::vector<Point> points;
  points.push_back({"lean", {}});
  points.back().space.b = 2;
  points.back().space.m_scale = 1;
  points.push_back({"mid", {}});
  points.back().space.m_scale = 1;
  points.push_back({"paper", {}});
  points.push_back({"wide", {}});
  points.back().space.b = 8;

  for (const std::string& protocol : fault::protocol_names(false)) {
    // bits/proc is a property of the budgeted BPRC layout; the baselines
    // either refuse bounding by construction (aspnes-herlihy's per-round
    // counter strip) or never touch the knobs (local-coin, strong-coin).
    const bool bounded = protocol == "bprc";
    // The campaign matrix skips (budget-ignoring protocol, non-default
    // budget) cells; the flat controls therefore chart one point each.
    const bool sensitive = fault::protocol_spec(protocol).space_sensitive;
    Table t({"budget", "K", "cycle", "slots", "b", "mscale", "bits/proc",
             "steps/run", "digest ok"});
    for (const Point& point : points) {
      if (!sensitive && !point.space.is_default()) continue;
      const FrontierPerf serial =
          measure_space_frontier(protocol, point.space, n, trials, 1);
      const FrontierPerf wide =
          measure_space_frontier(protocol, point.space, n, trials, jobs);
      const FrontierPerf forked =
          measure_space_frontier(protocol, point.space, n, trials, 1, 2);
      const bool digests_ok =
          wide.digest == serial.digest && forked.digest == serial.digest;
      t.add_row({point.tag, Table::num(point.space.K),
                 Table::num(point.space.cycle()),
                 Table::num(point.space.slots), Table::num(point.space.b),
                 Table::num(point.space.m_scale),
                 bounded ? Table::num(space_bits_per_process(point.space, n), 0)
                         : std::string("n/a"),
                 Table::num(serial.mean_steps, 0),
                 digests_ok ? "yes" : "NO"});
      BPRC_REQUIRE(digests_ok,
                   "frontier digest must not depend on jobs/workers");
    }
    std::printf("%s:\n", protocol.c_str());
    t.print();
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bprc::bench

int main() {
  bprc::bench::frontier_table();
  return 0;
}
