// Trial-engine tests: the ordered parallel executor (src/engine/) must be
// invisible except for wall-clock time. Three layers of evidence:
//
//   * EngineExecutor.* — the generic ordered-delivery machinery, exercised
//     with compute-only trials (no simulator, no fibers). These are the
//     tests CI runs under ThreadSanitizer: they drive the full
//     multi-threaded generate/claim/execute/deliver path with shared
//     generator and sink state, so any locking hole in the executor
//     shows up as a TSan race.
//   * EngineCampaign.* / EngineShrink.* — jobs=1 vs jobs=4 bit-identity
//     of everything the fault layer produces: failure lists, recorded
//     schedules and crashes, summary digests, shrink probe counts.
//   * EngineSimReuse.* — the single-owner contract: acquiring one
//     SimReuse from a second thread must abort, not race.
//
// TSan cannot follow the simulator's fiber context switches, so only the
// EngineExecutor.* group runs in the tsan CI job (gtest filter).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/adversaries.hpp"
#include "engine/executor.hpp"
#include "engine/trial.hpp"
#include "fault/campaign.hpp"
#include "fault/shrink.hpp"
#include "schedule_hash.hpp"

namespace bprc::engine {
namespace {

/// Uneven compute-only workload: later items often finish before earlier
/// ones on a multi-worker pool, which is exactly what ordered delivery
/// must paper over.
std::uint64_t spin_work(std::uint64_t item) {
  const std::uint64_t iters = (item * 2654435761ULL) % 4096;
  volatile std::uint64_t acc = item;
  for (std::uint64_t i = 0; i < iters; ++i) acc = acc + i;
  return acc;
}

TEST(EngineExecutor, DeliversInGenerationOrderAtEveryJobsLevel) {
  constexpr std::uint64_t kItems = 300;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    TrialExecutor executor({jobs, 0});
    std::uint64_t generated = 0;
    std::vector<std::uint64_t> delivered;
    executor.run_ordered<std::uint64_t, std::uint64_t>(
        [&]() -> std::optional<std::uint64_t> {
          if (generated >= kItems) return std::nullopt;
          return generated++;
        },
        [](const std::uint64_t& item, SimReuse&) {
          spin_work(item);
          return item * 3 + 1;
        },
        [&](std::size_t index, const std::uint64_t& item,
            std::uint64_t&& out) {
          // Index, spec, and outcome must all line up, in order, with no
          // gaps — at any jobs level.
          EXPECT_EQ(index, delivered.size()) << "jobs=" << jobs;
          EXPECT_EQ(item, delivered.size()) << "jobs=" << jobs;
          EXPECT_EQ(out, item * 3 + 1) << "jobs=" << jobs;
          delivered.push_back(out);
          return true;
        });
    ASSERT_EQ(delivered.size(), kItems) << "jobs=" << jobs;
  }
}

TEST(EngineExecutor, EarlyStopDeliversTheExactPrefix) {
  // A sink returning false must stop the sweep after a deterministic
  // prefix: exactly index 0..kStopAt delivered, regardless of how many
  // later specs workers executed speculatively.
  constexpr std::size_t kStopAt = 17;
  for (const unsigned jobs : {1u, 4u}) {
    TrialExecutor executor({jobs, 0});
    std::uint64_t generated = 0;
    std::size_t deliveries = 0;
    executor.run_ordered<std::uint64_t, std::uint64_t>(
        [&]() -> std::optional<std::uint64_t> { return generated++; },
        [](const std::uint64_t& item, SimReuse&) { return spin_work(item); },
        [&](std::size_t index, const std::uint64_t&, std::uint64_t&&) {
          ++deliveries;
          return index < kStopAt;
        });
    EXPECT_EQ(deliveries, kStopAt + 1) << "jobs=" << jobs;
    // The bounded window caps speculative generation: stop leaves at most
    // one window of undelivered specs behind.
    EXPECT_LE(generated, kStopAt + 1 + 4 * static_cast<std::uint64_t>(jobs))
        << "jobs=" << jobs;
  }
}

TEST(EngineExecutor, StressManyItemsManyWorkers) {
  // The TSan workhorse: thousands of uneven items over 8 workers, with
  // the generator and sink mutating plain (unsynchronized) state — they
  // run on the calling thread only, and the executor's lock orders every
  // spec and outcome handoff with the workers.
  constexpr std::uint64_t kItems = 5000;
  TrialExecutor executor({8, 0});
  std::uint64_t generated = 0;
  std::uint64_t checksum = 0;
  std::uint64_t expected_index = 0;
  executor.run_ordered<std::uint64_t, std::uint64_t>(
      [&]() -> std::optional<std::uint64_t> {
        if (generated >= kItems) return std::nullopt;
        return generated++;
      },
      [](const std::uint64_t& item, SimReuse&) {
        spin_work(item);
        return item;
      },
      [&](std::size_t index, const std::uint64_t&, std::uint64_t&& out) {
        EXPECT_EQ(index, expected_index++);
        checksum += out;
        return true;
      });
  EXPECT_EQ(expected_index, kItems);
  EXPECT_EQ(checksum, kItems * (kItems - 1) / 2);
}

TEST(EngineExecutor, EmptyGeneratorIsANoOp) {
  for (const unsigned jobs : {1u, 4u}) {
    TrialExecutor executor({jobs, 0});
    bool delivered = false;
    executor.run_ordered<int, int>(
        []() -> std::optional<int> { return std::nullopt; },
        [](const int& i, SimReuse&) { return i; },
        [&](std::size_t, const int&, int&&) {
          delivered = true;
          return true;
        });
    EXPECT_FALSE(delivered) << "jobs=" << jobs;
  }
}

TEST(EngineExecutor, GeneratorAndSinkRunOnTheCallingThread) {
  // The coordinator contract: at jobs > 1 the calling thread generates
  // and delivers and the workers only execute, so a generator may drive
  // thread-affine state (the explorer's DFS owns its SimRuntime).
  constexpr std::uint64_t kItems = 400;
  const std::thread::id caller = std::this_thread::get_id();
  TrialExecutor executor({4, 0});
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t foreign_calls = 0;  ///< generator/sink calls off the caller
  std::atomic<std::uint64_t> caller_executions{0};
  executor.run_ordered<std::uint64_t, std::uint64_t>(
      [&]() -> std::optional<std::uint64_t> {
        if (std::this_thread::get_id() != caller) ++foreign_calls;
        if (generated >= kItems) return std::nullopt;
        return generated++;
      },
      [&](const std::uint64_t& item, SimReuse&) {
        if (std::this_thread::get_id() == caller) ++caller_executions;
        return spin_work(item);
      },
      [&](std::size_t, const std::uint64_t&, std::uint64_t&&) {
        if (std::this_thread::get_id() != caller) ++foreign_calls;
        ++delivered;
        return true;
      });
  EXPECT_EQ(delivered, kItems);
  EXPECT_EQ(foreign_calls, 0u);
  EXPECT_EQ(caller_executions.load(), 0u);
}

TEST(EngineExecutor, GeneratorAndSinkExceptionsReachTheCaller) {
  // Both run on the calling thread, so what they throw unwinds out of
  // run_ordered() once the worker pool is stopped and joined.
  for (const bool from_sink : {false, true}) {
    TrialExecutor executor({4, 0});
    std::uint64_t generated = 0;
    auto sweep = [&] {
      executor.run_ordered<std::uint64_t, std::uint64_t>(
          [&]() -> std::optional<std::uint64_t> {
            if (!from_sink && generated == 50) {
              throw std::runtime_error("generator failed");
            }
            return generated++;
          },
          [](const std::uint64_t& item, SimReuse&) {
            return spin_work(item);
          },
          [&](std::size_t index, const std::uint64_t&, std::uint64_t&&) {
            if (from_sink && index == 50) {
              throw std::runtime_error("sink failed");
            }
            return true;
          });
    };
    EXPECT_THROW(sweep(), std::runtime_error) << "from_sink=" << from_sink;
  }
}

/// Campaign config that hits real failures (the seeded-broken protocol)
/// next to passing runs. run_deadline is OFF: the wall-clock watchdog is
/// the one non-deterministic input, so bit-identity claims exclude it.
fault::CampaignConfig invariance_config() {
  fault::CampaignConfig config;
  config.protocols = {"bprc", "broken-racy"};
  config.ns = {2, 3};
  config.adversaries = {"random", "round-robin", "crash-storm"};
  config.seeds_per_cell = 2;
  config.max_steps = 200'000;
  config.run_deadline = std::chrono::milliseconds(0);
  config.max_failures = 4;
  return config;
}

TEST(EngineCampaign, JobsFourIsBitIdenticalToSerial) {
  fault::CampaignConfig serial = invariance_config();
  serial.jobs = 1;
  fault::CampaignConfig wide = invariance_config();
  wide.jobs = 4;

  const fault::CampaignReport a = fault::run_campaign(serial);
  const fault::CampaignReport b = fault::run_campaign(wide);

  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.budget_aborts, b.budget_aborts);
  EXPECT_EQ(a.deadline_aborts, b.deadline_aborts);
  EXPECT_EQ(a.skipped_crash_cells, b.skipped_crash_cells);
  EXPECT_EQ(a.summary_digest, b.summary_digest);
  ASSERT_FALSE(a.failures.empty()) << "config no longer catches the bug";
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    const fault::TortureFailure& fa = a.failures[i];
    const fault::TortureFailure& fb = b.failures[i];
    EXPECT_EQ(fa.run.protocol, fb.run.protocol) << i;
    EXPECT_EQ(fa.run.adversary, fb.run.adversary) << i;
    EXPECT_EQ(fa.run.inputs, fb.run.inputs) << i;
    EXPECT_EQ(fa.run.seed, fb.run.seed) << i;
    EXPECT_EQ(fa.failure, fb.failure) << i;
    EXPECT_EQ(fa.reason, fb.reason) << i;
    EXPECT_EQ(fa.schedule, fb.schedule) << i;
    ASSERT_EQ(fa.crashes.size(), fb.crashes.size()) << i;
    for (std::size_t c = 0; c < fa.crashes.size(); ++c) {
      EXPECT_EQ(fa.crashes[c].at_step, fb.crashes[c].at_step) << i;
      EXPECT_EQ(fa.crashes[c].victim, fb.crashes[c].victim) << i;
    }
    EXPECT_EQ(fa.result.decisions, fb.result.decisions) << i;
    EXPECT_EQ(fa.result.total_steps, fb.result.total_steps) << i;
  }
}

TEST(EngineCampaign, ObserverSeesTheSameRunSequenceAtAnyJobsLevel) {
  auto trace = [](unsigned jobs) {
    fault::CampaignConfig config = invariance_config();
    config.jobs = jobs;
    std::vector<std::string> seen;
    fault::run_campaign(config, [&](const fault::TortureRun& run,
                                    const ConsensusRunResult& result) {
      seen.push_back(run.protocol + "/" + run.adversary + "/n" +
                     std::to_string(run.n()) + "/s" +
                     std::to_string(run.seed) + "=" +
                     std::to_string(result.total_steps));
    });
    return seen;
  };
  EXPECT_EQ(trace(1), trace(4));
}

TEST(EngineCampaign, GoldenScheduleHashesSurviveTheExecutorAtJobsFour) {
  // The exact golden traces test_replay.cpp pins for the serial path,
  // re-recorded through a 4-worker executor: worker-pinned SimReuse must
  // not perturb a single adversary pick.
  struct Golden {
    const char* adversary;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {"random", 0x731f0c5d39bb92e2ULL},
      {"coin-bias", 0xd7434f9318edb05aULL},
      {"crash-storm", 0x6bff30d521c19d61ULL},
      {"split-brain", 0x4e5850c9b2a82258ULL},
      {"lockstep", 0x698caa121a93e73dULL},
      {"leader-suppress", 0x0ed92d7d8fbaa4d4ULL},
  };
  TrialExecutor executor({4, 0});
  std::size_t next = 0;
  std::vector<std::uint64_t> hashes(std::size(goldens), 0);
  executor.run_trials(
      [&]() -> std::optional<TrialSpec> {
        if (next >= std::size(goldens)) return std::nullopt;
        fault::TortureRun run;
        run.protocol = "bprc";
        run.inputs = {0, 1, 1, 0, 1};
        run.adversary = goldens[next].adversary;
        run.seed = 424242;
        run.max_steps = 2'000'000;
        ++next;
        return fault::to_trial_spec(run, std::chrono::nanoseconds::zero());
      },
      [&](std::size_t index, const TrialSpec&, TrialOutcome&& out) {
        EXPECT_TRUE(out.result.ok()) << goldens[index].adversary;
        hashes[index] = schedule_hash(out.schedule, out.crashes);
        return true;
      });
  for (std::size_t i = 0; i < std::size(goldens); ++i) {
    EXPECT_EQ(hashes[i], goldens[i].hash) << goldens[i].adversary;
  }
}

TEST(EngineShrink, ParallelShrinkMatchesSerialProbeForProbe) {
  fault::CampaignConfig config = invariance_config();
  config.max_failures = 1;
  fault::CampaignReport report = fault::run_campaign(config);
  ASSERT_FALSE(report.failures.empty());
  const fault::TortureFailure& fail = report.failures.front();

  const fault::ShrinkOutcome serial =
      fault::shrink_failure(fail, /*max_probes=*/4000, /*jobs=*/1);
  const fault::ShrinkOutcome wide =
      fault::shrink_failure(fail, /*max_probes=*/4000, /*jobs=*/4);
  ASSERT_TRUE(serial.reproduced);
  EXPECT_EQ(serial.reproduced, wide.reproduced);
  EXPECT_EQ(serial.schedule, wide.schedule);
  EXPECT_EQ(serial.probes, wide.probes);
  ASSERT_EQ(serial.crashes.size(), wide.crashes.size());
  for (std::size_t c = 0; c < serial.crashes.size(); ++c) {
    EXPECT_EQ(serial.crashes[c].at_step, wide.crashes[c].at_step);
    EXPECT_EQ(serial.crashes[c].victim, wide.crashes[c].victim);
  }
}

using EngineSimReuseDeathTest = ::testing::Test;

TEST(EngineSimReuseDeathTest, SecondThreadAcquireAborts) {
  // The owner-thread contract in SimReuse::acquire: the pooled fiber
  // stacks are thread-local, so cross-thread reuse must fail loudly
  // (BPRC_REQUIRE abort), never race.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimReuse reuse;
        reuse.acquire(2, make_adversary("round-robin", 0), 1);
        std::thread intruder([&reuse] {
          reuse.acquire(2, make_adversary("round-robin", 0), 2);
        });
        intruder.join();
      },
      "single-owner");
}

}  // namespace
}  // namespace bprc::engine
