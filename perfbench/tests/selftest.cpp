// Self-tests of the benchmark's own code: the weakmem input generator,
// the timing adversary decorator and the spanned explore target. Each
// piece must leave the work it measures unchanged.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "campaign.hpp"
#include "engine/trial.hpp"
#include "explore.hpp"
#include "verify/weakmem/sc_checker.hpp"
#include "weakmem.hpp"

namespace {

using bprc::weakmem::Recording;

constexpr int kSmallRounds = 60;

TEST(WeakmemGenerator, WellFormedShape) {
  for (const bool planted : {false, true}) {
    const Recording rec = pb::generate_recording(11, kSmallRounds, planted);
    ASSERT_EQ(rec.logs.size(), static_cast<std::size_t>(pb::kWeakmemThreads));
    EXPECT_EQ(rec.locations.size(),
              static_cast<std::size_t>(pb::kWeakmemThreads) + 1);
    for (const auto& log : rec.logs) {
      EXPECT_EQ(log.size(),
                static_cast<std::size_t>(kSmallRounds * pb::kActionsPerRound));
    }
    EXPECT_TRUE(bprc::weakmem::check_sc(rec).well_formed);
  }
}

TEST(WeakmemGenerator, SameSeedSameBytes) {
  for (const bool planted : {false, true}) {
    const Recording a = pb::generate_recording(5, kSmallRounds, planted);
    const Recording b = pb::generate_recording(5, kSmallRounds, planted);
    EXPECT_EQ(pb::recording_digest(a), pb::recording_digest(b));
    ASSERT_EQ(a.logs.size(), b.logs.size());
    for (std::size_t t = 0; t < a.logs.size(); ++t) {
      ASSERT_EQ(a.logs[t].size(), b.logs[t].size());
      for (std::size_t i = 0; i < a.logs[t].size(); ++i) {
        const bprc::MemAction& x = a.logs[t][i];
        const bprc::MemAction& y = b.logs[t][i];
        EXPECT_TRUE(x.thread == y.thread && x.seq == y.seq &&
                    x.location == y.location && x.kind == y.kind &&
                    x.order == y.order && x.value == y.value && x.rf == y.rf &&
                    x.mo == y.mo);
      }
    }
  }
  EXPECT_NE(pb::recording_digest(pb::generate_recording(5, kSmallRounds, false)),
            pb::recording_digest(pb::generate_recording(6, kSmallRounds, false)));
}

TEST(WeakmemGenerator, VerdictFollowsThePlantedFlag) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const bprc::weakmem::SCResult clean = bprc::weakmem::check_sc(
        pb::generate_recording(seed, kSmallRounds, false));
    EXPECT_TRUE(clean.ok()) << "seed " << seed << ": " << clean.witness;
    const bprc::weakmem::SCResult planted = bprc::weakmem::check_sc(
        pb::generate_recording(seed, kSmallRounds, true));
    EXPECT_TRUE(planted.well_formed) << "seed " << seed;
    EXPECT_FALSE(planted.sc) << "seed " << seed;
  }
}

TEST(TimingAdversary, LeavesStepsAndDigestsUnchanged) {
  std::uint64_t skipped = 0;
  const std::vector<bprc::fault::TortureRun> runs =
      bprc::fault::enumerate_campaign_runs(pb::campaign_config(3), &skipped);
  ASSERT_FALSE(runs.empty());
  pb::TimingAdversary::Tally tally;
  // Every 7th run visits every adversary, protocol and n of the matrix.
  for (std::size_t i = 0; i < runs.size(); i += 7) {
    const bprc::engine::TrialOutcome bare = bprc::engine::run_trial(
        bprc::fault::to_trial_spec(runs[i], std::chrono::nanoseconds::zero()));
    const bprc::engine::TrialOutcome timed =
        pb::run_timed(runs[i], tally, nullptr);
    EXPECT_EQ(bare.result.total_steps, timed.result.total_steps) << i;
    EXPECT_EQ(bprc::fault::outcome_digest(bare),
              bprc::fault::outcome_digest(timed))
        << i;
  }
  EXPECT_GT(tally.picks, 0u);
  EXPECT_LE(tally.handoffs, tally.picks);
}

TEST(SpannedConsensusTarget, ReproducesExploreConsensusDigest) {
  for (const unsigned jobs : {1u, 2u}) {
    bprc::explore::ConsensusExploreConfig config = pb::explore_config(jobs);
    config.limits.branch_depth = 8;
    const bprc::explore::ConsensusExploreReport reference =
        bprc::explore::explore_consensus(config);
    pb::SpannedConsensusTarget target(config);
    const bprc::explore::ExploreResult spanned =
        bprc::explore::explore(target, config.limits, config.seed);
    EXPECT_EQ(spanned.stats.schedule_digest, reference.stats.schedule_digest);
    EXPECT_EQ(spanned.stats.total_steps, reference.stats.total_steps);
    EXPECT_EQ(spanned.stats.states_visited, reference.stats.states_visited);
    EXPECT_GT(target.dfs().executions.load() + target.graders().executions.load(),
              0u);
    if (jobs > 1) {
      EXPECT_GT(target.graders().executions.load(), 0u);
    }
  }
}

}  // namespace
