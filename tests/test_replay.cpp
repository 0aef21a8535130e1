// Record/replay fidelity tests for the torture harness: a run recorded
// by the simulator and replayed through ScriptedAdversary (same
// seed) must yield a bit-identical ConsensusRunResult, and a shrunken
// schedule must still reproduce the original violation class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "explore/frontier.hpp"
#include "fault/campaign.hpp"
#include "fault/protocols.hpp"
#include "fault/repro.hpp"
#include "fault/shrink.hpp"
#include "shard/wire.hpp"
#include "verify/weakmem/recorder.hpp"

namespace bprc::fault {
namespace {

constexpr std::chrono::nanoseconds kNoDeadline{0};

/// Field-by-field equality: replay is only trustworthy if *everything*
/// matches, not just the decisions.
void expect_identical(const ConsensusRunResult& a,
                      const ConsensusRunResult& b) {
  EXPECT_EQ(a.all_decided, b.all_decided);
  EXPECT_EQ(a.consistent, b.consistent);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.bounded_ok, b.bounded_ok);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.decision_rounds, b.decision_rounds);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.max_proc_steps, b.max_proc_steps);
  EXPECT_EQ(a.max_round, b.max_round);
  EXPECT_EQ(a.footprint.bounded, b.footprint.bounded);
  EXPECT_EQ(a.footprint.max_round_stored, b.footprint.max_round_stored);
  EXPECT_EQ(a.footprint.max_counter, b.footprint.max_counter);
  EXPECT_EQ(a.footprint.coin_locations, b.footprint.coin_locations);
  EXPECT_EQ(a.footprint.static_bound, b.footprint.static_bound);
  EXPECT_EQ(a.reason, b.reason);
}

TortureRun make_run(const std::string& protocol, std::vector<int> inputs,
                    const std::string& adversary, std::uint64_t seed) {
  TortureRun run;
  run.protocol = protocol;
  run.inputs = std::move(inputs);
  run.adversary = adversary;
  run.seed = seed;
  run.max_steps = 2'000'000;
  return run;
}

TEST(Replay, BitIdenticalResultAcrossRealProtocols) {
  for (const std::string& protocol : protocol_names()) {
    for (const std::string& adversary :
         {std::string("random"), std::string("coin-bias")}) {
      const TortureRun run = make_run(protocol, {0, 1, 1}, adversary, 42);
      std::vector<ProcId> schedule;
      std::vector<CrashPlanAdversary::Crash> crashes;
      const ConsensusRunResult recorded =
          execute_run(run, kNoDeadline, &schedule, &crashes);
      ASSERT_TRUE(recorded.ok())
          << protocol << "/" << adversary << ": " << to_string(recorded.failure());
      ASSERT_FALSE(schedule.empty());

      const ConsensusRunResult replayed = replay_run(run, schedule, crashes);
      expect_identical(recorded, replayed);
    }
  }
}

TEST(Replay, RecordedCrashesReplayIdentically) {
  // crash-storm decides where to crash adaptively; the recording must
  // capture those crashes as fixed (step, victim) events that replay
  // them at exactly the same points.
  const TortureRun run = make_run("bprc", {1, 0, 1, 0, 1}, "crash-storm", 7);
  std::vector<ProcId> schedule;
  std::vector<CrashPlanAdversary::Crash> crashes;
  const ConsensusRunResult recorded =
      execute_run(run, kNoDeadline, &schedule, &crashes);
  ASSERT_TRUE(recorded.ok());

  const ConsensusRunResult replayed = replay_run(run, schedule, crashes);
  expect_identical(recorded, replayed);
}

TEST(Replay, PreplannedCrashesAreSubsumedByTheRecording)  {
  // A run with an explicit crash plan replays from (schedule, recorded
  // crashes) alone — replay_run must not re-apply run.crash_plan.
  TortureRun run = make_run("aspnes-herlihy", {0, 0, 1}, "random", 11);
  run.crash_plan = {{25, 1}};
  std::vector<ProcId> schedule;
  std::vector<CrashPlanAdversary::Crash> crashes;
  const ConsensusRunResult recorded =
      execute_run(run, kNoDeadline, &schedule, &crashes);
  ASSERT_TRUE(recorded.ok());
  ASSERT_FALSE(crashes.empty()) << "planned crash was not recorded";

  const ConsensusRunResult replayed = replay_run(run, schedule, crashes);
  expect_identical(recorded, replayed);
}

TEST(Replay, SimReuseReplaysIdentically) {
  // One pooled simulator recycled across heterogeneous runs must produce
  // the same results as a fresh simulator per run — the campaign driver
  // and the shrinker both lean on this.
  SimReuse reuse;
  for (const TortureRun& run :
       {make_run("bprc", {0, 1, 1}, "random", 42),
        make_run("bprc", {1, 0, 1, 0, 1}, "crash-storm", 7),
        make_run("aspnes-herlihy", {0, 0, 1}, "coin-bias", 3)}) {
    std::vector<ProcId> schedule;
    std::vector<CrashPlanAdversary::Crash> crashes;
    const ConsensusRunResult fresh =
        execute_run(run, kNoDeadline, &schedule, &crashes);
    std::vector<ProcId> schedule2;
    std::vector<CrashPlanAdversary::Crash> crashes2;
    const ConsensusRunResult pooled =
        execute_run(run, kNoDeadline, &schedule2, &crashes2, &reuse);
    expect_identical(fresh, pooled);
    EXPECT_EQ(schedule, schedule2);
    ASSERT_EQ(crashes.size(), crashes2.size());
    const ConsensusRunResult replayed =
        replay_run(run, schedule, crashes, &reuse);
    expect_identical(fresh, replayed);
  }
}

/// Records `run` through engine::run_trial, then replays the record
/// through ScriptedAdversary (with its stale script) under a
/// CrashPlanAdversary of the recorded crashes, recording the replay too.
/// Returns {recorded, replayed}.
std::pair<engine::TrialOutcome, engine::TrialOutcome> record_and_replay(
    const TortureRun& run) {
  const engine::TrialSpec spec = to_trial_spec(run, kNoDeadline);
  engine::TrialOutcome recorded = engine::run_trial(spec);

  auto scripted = std::make_unique<ScriptedAdversary>(recorded.schedule);
  scripted->set_stale_script(recorded.stales);
  ScheduleRecord record;
  engine::TrialOutcome replayed;
  replayed.result = run_consensus_sim(
      spec.factory, spec.inputs,
      std::make_unique<CrashPlanAdversary>(std::move(scripted),
                                           recorded.crashes),
      spec.seed, spec.max_steps, kNoDeadline, nullptr, nullptr,
      spec.semantics, &record);
  replayed.failure = replayed.result.failure();
  replayed.schedule = std::move(record.picks);
  replayed.crashes = std::move(record.crashes);
  replayed.stales = std::move(record.stales);
  return {std::move(recorded), std::move(replayed)};
}

TEST(Replay, RuntimeRecordReplaysToTheSameOutcomeDigest) {
  // The simulator's own record (SimRuntime::set_record) must capture
  // everything a replay re-imposes: planned crashes, crashes an adaptive
  // strategy injects mid-pick, and stale-read choices. The replay's own
  // record then digests identically.
  TortureRun planned = make_run("aspnes-herlihy", {0, 0, 1}, "random", 11);
  planned.crash_plan = {{25, 1}};
  const TortureRun storm =
      make_run("bprc", {1, 0, 1, 0, 1}, "crash-storm", 7);
  TortureRun regular = make_run("bprc", {0, 1, 1}, "random", 5);
  regular.semantics = RegisterSemantics::kRegular;

  struct Case {
    const char* name;
    const TortureRun* run;
    bool crashes, stales;
  };
  for (const Case& c : {Case{"crash-plan", &planned, true, false},
                        Case{"crash-storm", &storm, true, false},
                        Case{"regular", &regular, false, true}}) {
    const auto [recorded, replayed] = record_and_replay(*c.run);
    ASSERT_TRUE(recorded.result.ok()) << c.name;
    ASSERT_FALSE(recorded.schedule.empty()) << c.name;
    EXPECT_EQ(!recorded.crashes.empty(), c.crashes) << c.name;
    EXPECT_EQ(!recorded.stales.empty(), c.stales) << c.name;
    expect_identical(recorded.result, replayed.result);
    EXPECT_EQ(outcome_digest(replayed), outcome_digest(recorded)) << c.name;
  }
}

/// FNV-1a over the recorded pick sequence and crash events; the exact
/// digest the performance work was validated against.
std::uint64_t schedule_hash(const std::vector<ProcId>& schedule,
                            const std::vector<CrashPlanAdversary::Crash>& crashes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const ProcId p : schedule) {
    h ^= static_cast<std::uint64_t>(p);
    h *= 0x100000001B3ULL;
  }
  for (const auto& c : crashes) {
    h ^= c.at_step * 31 + static_cast<std::uint64_t>(c.victim);
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(Replay, GoldenScheduleHashesArePinned) {
  // Cross-version determinism: the full recorded schedule of a fixed
  // (protocol, inputs, seed) cell under every standard adversary, pinned
  // as a digest. Any change to adversary draw order, checkpoint gating,
  // rng derivation, or scheduling semantics shows up here as a hash
  // mismatch — scheduler optimizations must NOT move these values.
  struct Golden {
    const char* adversary;
    std::size_t len;
    std::size_t crash_count;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {"random", 4964, 0, 0x731f0c5d39bb92e2ULL},
      {"coin-bias", 5110, 0, 0xd7434f9318edb05aULL},
      {"crash-storm", 17925, 4, 0x6bff30d521c19d61ULL},
      {"split-brain", 4948, 0, 0x4e5850c9b2a82258ULL},
      {"lockstep", 2420, 0, 0x698caa121a93e73dULL},
      {"leader-suppress", 4872, 0, 0x0ed92d7d8fbaa4d4ULL},
  };
  for (const Golden& g : goldens) {
    const TortureRun run =
        make_run("bprc", {0, 1, 1, 0, 1}, g.adversary, 424242);
    std::vector<ProcId> schedule;
    std::vector<CrashPlanAdversary::Crash> crashes;
    const ConsensusRunResult result =
        execute_run(run, kNoDeadline, &schedule, &crashes);
    EXPECT_TRUE(result.ok()) << g.adversary;
    EXPECT_EQ(schedule.size(), g.len) << g.adversary;
    EXPECT_EQ(crashes.size(), g.crash_count) << g.adversary;
    EXPECT_EQ(schedule_hash(schedule, crashes), g.hash) << g.adversary;
  }
}

TEST(Replay, SavedArtifactsReplayToTheSameFailureClass) {
  // Committed .bprc-repro files recorded by the *pre-optimization*
  // simulator must keep replaying to their recorded failure class on the
  // current one: on-disk artifacts outlive scheduler internals.
  const std::string dir = BPRC_TEST_DATA_DIR;
  const char* fixtures[] = {
      "broken-racy-round-robin-n2-0.bprc-repro",
      "broken-racy-crash-storm-n3-0.bprc-repro",
      "broken-racy-crash-storm-n3-1.bprc-repro",
      "broken-racy-crash-n3.bprc-repro",
  };
  for (const char* name : fixtures) {
    std::string err;
    const auto repro = load_repro(dir + "/" + name, &err);
    ASSERT_TRUE(repro.has_value()) << name << ": " << err;
    ASSERT_NE(repro->failure, FailureClass::kNone) << name;
    const ConsensusRunResult replayed = replay_repro(*repro);
    EXPECT_EQ(replayed.failure(), repro->failure) << name;
  }
}

/// Finds a failing broken-racy run (the deliberately-broken test-hook
/// protocol races two writers, so a consistency split is easy to hit).
TortureFailure find_racy_failure() {
  CampaignConfig config;
  config.protocols = {"broken-racy"};
  config.ns = {2, 3};
  config.adversaries = {"round-robin", "random", "lockstep"};
  config.seeds_per_cell = 2;
  config.max_steps = 100'000;
  config.crash_plans = false;
  config.max_failures = 1;
  CampaignReport report = run_campaign(config);
  EXPECT_FALSE(report.failures.empty())
      << "campaign failed to catch the seeded bug";
  return report.failures.empty() ? TortureFailure{}
                                 : std::move(report.failures.front());
}

TEST(Shrink, MinimizedSchedulePreservesTheViolationClass) {
  const TortureFailure fail = find_racy_failure();
  ASSERT_NE(fail.failure, FailureClass::kNone);

  const ShrinkOutcome shrunk = shrink_failure(fail);
  ASSERT_TRUE(shrunk.reproduced);
  EXPECT_LE(shrunk.schedule.size(), shrunk.original_len);

  // The shrunken script must reproduce the *same failure class*, not
  // just any failure.
  const ConsensusRunResult replayed =
      replay_run(fail.run, shrunk.schedule, shrunk.crashes);
  EXPECT_EQ(replayed.failure(), fail.failure);
}

TEST(Shrink, ArtifactRoundTripStillReproduces) {
  // Catch -> shrink -> serialize -> parse -> replay: the full pipeline
  // the CLI exercises, in-process.
  const TortureFailure fail = find_racy_failure();
  ASSERT_NE(fail.failure, FailureClass::kNone);
  const ShrinkOutcome shrunk = shrink_failure(fail);
  ASSERT_TRUE(shrunk.reproduced);

  const Repro repro = make_repro(fail, shrunk.schedule, shrunk.crashes);
  const std::string text = serialize_repro(repro);
  std::string err;
  const auto parsed = parse_repro(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->run.protocol, fail.run.protocol);
  EXPECT_EQ(parsed->run.inputs, fail.run.inputs);
  EXPECT_EQ(parsed->run.seed, fail.run.seed);
  EXPECT_EQ(parsed->schedule, shrunk.schedule);
  EXPECT_EQ(parsed->failure, fail.failure);

  const ConsensusRunResult replayed = replay_repro(*parsed);
  EXPECT_EQ(replayed.failure(), fail.failure);
}


TEST(Repro, ReplayOfOverwideProcessCountFailsWithDiagnostic) {
  // The replay path validates every recorded pick against the simulator's
  // 64-bit runnable digest; an artifact recorded at n>64 (e.g. from a
  // future wide build) must be refused with a clear diagnostic instead of
  // replaying outside that envelope -- or worse, silently truncating.
  std::string text = "bprc-repro v1\nprotocol bprc\nadversary random\ninputs";
  for (int i = 0; i < 65; ++i) text += (i % 2) ? " 1" : " 0";
  text += "\nseed 3\nmax-steps 100\nschedule 0 1\nend\n";
  std::string err;
  EXPECT_FALSE(parse_repro(text, &err).has_value());
  EXPECT_NE(err.find("n=65"), std::string::npos) << err;
  EXPECT_NE(err.find("runnable-bitmask width"), std::string::npos) << err;
  EXPECT_NE(err.find("64"), std::string::npos) << err;
}

TEST(Repro, ExactlyBitmaskWidthProcessesStillParses) {
  // n == 64 is the last in-envelope width; the guard must not be
  // off-by-one.
  std::string text = "bprc-repro v1\nprotocol bprc\nadversary random\ninputs";
  for (int i = 0; i < 64; ++i) text += (i % 2) ? " 1" : " 0";
  text += "\nseed 3\nmax-steps 100\nschedule 0 63\nend\n";
  std::string err;
  EXPECT_TRUE(parse_repro(text, &err).has_value()) << err;
}

// ---- malformed-artifact fixtures ------------------------------------------
//
// Every fixture below is a corruption a real artifact can suffer (torn
// write, hand-edit typo, version skew). Each must be *rejected with a
// diagnostic*, never replayed as a different run than the one recorded.

namespace {
// A well-formed artifact the corruption fixtures mutate.
const char kGoodRepro[] =
    "bprc-repro v1\n"
    "protocol broken-racy\n"
    "inputs 0 1\n"
    "adversary round-robin\n"
    "seed 7\n"
    "max-steps 100\n"
    "failure consistency\n"
    "crash 5 1\n"
    "schedule 0 1 0 1\n"
    "end\n";

std::string expect_rejected(const std::string& text) {
  std::string err;
  EXPECT_FALSE(parse_repro(text, &err).has_value()) << text;
  EXPECT_FALSE(err.empty()) << "rejection must carry a diagnostic";
  return err;
}
}  // namespace

TEST(Repro, BaselineFixtureParses) {
  std::string err;
  ASSERT_TRUE(parse_repro(kGoodRepro, &err).has_value()) << err;
}

TEST(Repro, CrlfLineEndingsParseAsLf) {
  // An artifact that passed through a CRLF-converting editor or transfer
  // is the same run, header line included.
  std::string crlf;
  for (const char c : std::string(kGoodRepro)) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::string err;
  const auto lf = parse_repro(kGoodRepro, &err);
  const auto parsed = parse_repro(crlf, &err);
  ASSERT_TRUE(lf.has_value());
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(serialize_repro(*parsed), serialize_repro(*lf));
}

TEST(Repro, TruncatedFileIsRejected) {
  // A torn write drops the trailing `end` guard (possibly mid-line): the
  // parser must treat the file as incomplete, not replay the prefix.
  std::string text(kGoodRepro);
  text.resize(text.size() - 4);  // drop "end\n"
  std::string err = expect_rejected(text);
  EXPECT_NE(err.find("missing 'end'"), std::string::npos) << err;
  // Mid-line EOF inside the schedule line.
  err = expect_rejected(text.substr(0, text.find("schedule 0 1") + 10));
  EXPECT_NE(err.find("missing 'end'"), std::string::npos) << err;
}

TEST(Repro, DuplicateSectionsAreRejected) {
  for (const char* line :
       {"protocol bprc\n", "inputs 1 0\n", "adversary random\n", "seed 9\n",
        "max-steps 50\n", "schedule 1 0\n", "mode generative\n"}) {
    // Insert the duplicate right before `end`; `mode` duplicates against
    // an inserted first copy instead (the baseline has none).
    std::string text(kGoodRepro);
    const std::string dup =
        (std::string(line).rfind("mode ", 0) == 0 ? std::string(line) : "") +
        line;
    text.insert(text.find("end\n"), dup);
    const std::string err = expect_rejected(text);
    EXPECT_NE(err.find("duplicate"), std::string::npos)
        << "line=" << line << " err=" << err;
  }
}

TEST(Repro, TrailingGarbageOnNumericLinesIsRejected) {
  // operator>> stopping early must not silently drop the tail — a
  // half-read schedule replays a different run.
  struct Case {
    const char* from;
    const char* to;
    const char* diag;
  };
  const Case cases[] = {
      {"seed 7\n", "seed 7 oops\n", "malformed seed"},
      {"seed 7\n", "seed banana\n", "malformed seed"},
      {"max-steps 100\n", "max-steps 1e6\n", "malformed max-steps"},
      {"inputs 0 1\n", "inputs 0 one\n", "malformed inputs"},
      {"crash 5 1\n", "crash 5\n", "malformed crash"},
      {"crash 5 1\n", "crash 5 1 9\n", "malformed crash"},
      {"schedule 0 1 0 1\n", "schedule 0 1 x 1\n", "malformed schedule"},
  };
  for (const Case& c : cases) {
    std::string text(kGoodRepro);
    const std::size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    text.replace(at, std::string(c.from).size(), c.to);
    const std::string err = expect_rejected(text);
    EXPECT_NE(err.find(c.diag), std::string::npos)
        << "fixture=" << c.to << " err=" << err;
  }
}

TEST(Repro, OutOfRangeEntriesAreRejected) {
  // Schedule picks and crash victims beyond n (here n=2).
  std::string text(kGoodRepro);
  text.replace(text.find("schedule 0 1 0 1\n"), 17, "schedule 0 1 2 1\n");
  std::string err = expect_rejected(text);
  EXPECT_NE(err.find("schedule entry out of range"), std::string::npos) << err;

  text = kGoodRepro;
  text.replace(text.find("crash 5 1\n"), 10, "crash 5 2\n");
  err = expect_rejected(text);
  EXPECT_NE(err.find("crash victim out of range"), std::string::npos) << err;
}

TEST(Repro, OutOfRangeFlipBitsAreRejected) {
  std::string text(kGoodRepro);
  text.insert(text.find("schedule"), "flips 0 1 2\n");
  const std::string err = expect_rejected(text);
  EXPECT_NE(err.find("bits only"), std::string::npos) << err;
}

TEST(Repro, UnknownModeAndVersionAreRejected) {
  std::string text(kGoodRepro);
  text.insert(text.find("crash"), "mode interpretive-dance\n");
  std::string err = expect_rejected(text);
  EXPECT_NE(err.find("unknown replay mode"), std::string::npos) << err;

  text = kGoodRepro;
  text.replace(0, 12, "bprc-repro v9");
  err = expect_rejected(text);
  EXPECT_NE(err.find("unsupported"), std::string::npos) << err;
}

// ---- weak register semantics ----------------------------------------------
//
// The weak-register lane (docs/REGISTER_SEMANTICS.md): campaigns under
// regular/safe semantics record every adversary stale-read choice, and
// replay re-forces them — determinism must hold with the same fidelity as
// schedules and crashes.

/// Finds a failing broken-needs-atomic run under regular semantics — the
/// seeded new-old-inversion bug that only exists over weakened registers.
TortureFailure find_weakreg_failure() {
  CampaignConfig config;
  config.protocols = {"broken-needs-atomic"};
  config.ns = {2, 3};
  config.adversaries = {"random"};
  config.seeds_per_cell = 8;
  config.max_steps = 100'000;
  config.crash_plans = false;
  config.semantics = {RegisterSemantics::kRegular};
  config.max_failures = 1;
  CampaignReport report = run_campaign(config);
  EXPECT_FALSE(report.failures.empty())
      << "campaign failed to catch the weak-register bug";
  return report.failures.empty() ? TortureFailure{}
                                 : std::move(report.failures.front());
}

TEST(WeakReplay, NeedsAtomicIsCaughtOnlyUnderWeakenedSemantics) {
  // Identical matrix, semantics axis flipped: atomic must stay clean,
  // regular must catch the seeded bug.
  CampaignConfig config;
  config.protocols = {"broken-needs-atomic"};
  config.ns = {2, 3};
  config.adversaries = {"random"};
  config.seeds_per_cell = 8;
  config.max_steps = 100'000;
  config.crash_plans = false;
  config.max_failures = 4;
  const CampaignReport atomic_report = run_campaign(config);
  EXPECT_TRUE(atomic_report.failures.empty())
      << "broken-needs-atomic must be correct over atomic registers";
  config.semantics = {RegisterSemantics::kRegular};
  const CampaignReport weak_report = run_campaign(config);
  EXPECT_FALSE(weak_report.failures.empty())
      << "broken-needs-atomic must be caught over regular registers";
}

TEST(WeakReplay, RecordedStaleChoicesReplayIdentically) {
  const TortureFailure fail = find_weakreg_failure();
  ASSERT_NE(fail.failure, FailureClass::kNone);
  ASSERT_FALSE(fail.stales.empty())
      << "a weak-register violation must have consumed a stale choice";

  const ConsensusRunResult replayed = replay_run(
      fail.run, fail.schedule, fail.crashes, nullptr, nullptr, fail.stales);
  expect_identical(fail.result, replayed);

  // Dropping the stale script degrades every choice to the atomic answer,
  // under which the protocol is correct: the violation must vanish.
  const ConsensusRunResult atomic_replay =
      replay_run(fail.run, fail.schedule, fail.crashes);
  EXPECT_NE(atomic_replay.failure(), fail.failure);
}

TEST(WeakReplay, ShrunkArtifactRoundTripsByteIdentically) {
  // Catch -> shrink -> serialize -> parse -> re-serialize -> replay: the
  // re-serialization must be byte-identical (the artifact format is the
  // determinism contract) and the parsed artifact must still reproduce.
  const TortureFailure fail = find_weakreg_failure();
  ASSERT_NE(fail.failure, FailureClass::kNone);
  const ShrinkOutcome shrunk = shrink_failure(fail);
  ASSERT_TRUE(shrunk.reproduced);

  const Repro repro = make_repro(fail, shrunk.schedule, shrunk.crashes);
  EXPECT_EQ(repro.run.semantics, RegisterSemantics::kRegular);
  const std::string text = serialize_repro(repro);
  EXPECT_NE(text.find("semantics regular\n"), std::string::npos);
  EXPECT_NE(text.find("stale-reads"), std::string::npos);

  std::string err;
  const auto parsed = parse_repro(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->run.semantics, RegisterSemantics::kRegular);
  EXPECT_EQ(parsed->stales, repro.stales);
  EXPECT_EQ(serialize_repro(*parsed), text);

  const ConsensusRunResult replayed = replay_repro(*parsed);
  EXPECT_EQ(replayed.failure(), fail.failure);
}

TEST(WeakReplay, SummaryDigestIsJobsInvariantUnderWeakenedSemantics) {
  // The independence witness extends to the weak-register axis: the full
  // smoke-sized registry sweep folds to the same digest at every jobs
  // level, per semantics.
  for (const RegisterSemantics sem :
       {RegisterSemantics::kRegular, RegisterSemantics::kSafe}) {
    CampaignConfig config;
    config.ns = {2, 3};
    config.seeds_per_cell = 1;
    config.max_steps = 2'000'000;
    config.semantics = {sem};
    config.jobs = 1;
    const CampaignReport serial = run_campaign(config);
    config.jobs = 4;
    const CampaignReport parallel = run_campaign(config);
    EXPECT_EQ(serial.summary_digest, parallel.summary_digest)
        << to_string(sem);
    EXPECT_EQ(serial.runs, parallel.runs) << to_string(sem);
    EXPECT_EQ(serial.failures.size(), parallel.failures.size())
        << to_string(sem);
  }
}

TEST(Repro, UnrecognizedSemanticsValueIsRejectedWithDiagnostic) {
  // A semantics name this build does not know must be refused, never
  // guessed at: replaying under the wrong register model would report a
  // verdict for a different run than the one recorded.
  std::string text(kGoodRepro);
  text.insert(text.find("failure"), "semantics acquire-release\n");
  const std::string err = expect_rejected(text);
  EXPECT_NE(err.find("unrecognized register semantics 'acquire-release'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("atomic, regular, safe"), std::string::npos) << err;
}

TEST(Repro, MalformedWeakRegisterLinesAreRejected) {
  struct Case {
    const char* insert;  ///< line(s) inserted before `failure`
    const char* diag;
  };
  const Case cases[] = {
      {"semantics regular extra\n", "malformed semantics line"},
      {"semantics regular\nsemantics safe\n", "duplicate semantics"},
      {"semantics regular\nstale-reads 0 -1\n", "choices are >= 0"},
      {"semantics regular\nstale-reads 0 x\n", "malformed stale-reads line"},
      {"semantics regular\nstale-reads 1 0\nstale-reads 1\n",
       "duplicate stale-reads"},
      // Choices without a semantics line: the artifact lost its register
      // model; replaying it atomically would not be the recorded run.
      {"stale-reads 1 0\n", "stale-reads present but semantics is atomic"},
  };
  for (const Case& c : cases) {
    std::string text(kGoodRepro);
    text.insert(text.find("failure"), c.insert);
    const std::string err = expect_rejected(text);
    EXPECT_NE(err.find(c.diag), std::string::npos)
        << "fixture=" << c.insert << " err=" << err;
  }
}

TEST(Repro, AtomicArtifactsCarryNoWeakRegisterLines) {
  // Byte-stability of historical artifacts: under atomic semantics the
  // serializer must omit both weak-register lines entirely.
  TortureFailure fail;
  fail.run.protocol = "broken-racy";
  fail.run.inputs = {0, 1};
  fail.run.adversary = "round-robin";
  fail.run.seed = 7;
  fail.run.max_steps = 100;
  fail.failure = FailureClass::kConsistency;
  fail.schedule = {0, 1, 0, 1};
  const Repro repro = make_repro(fail, fail.schedule, fail.crashes);
  const std::string text = serialize_repro(repro);
  EXPECT_EQ(text.find("semantics"), std::string::npos);
  EXPECT_EQ(text.find("stale-reads"), std::string::npos);
}

// ---- space budgets --------------------------------------------------------
//
// The space lane (docs/SPACE_BUDGETS.md): a non-default SpaceBudget is
// part of the run's identity — the artifact must carry it, replay must
// rebuild the protocol at it, and the default budget must keep writing
// nothing so historical artifacts keep their bytes.

/// Finds a kBoundedMemory failure by running the *faithful* protocol at a
/// deliberately short budget through the campaign's space axis — the full
/// tentpole path: matrix -> demand latch -> failure record.
TortureFailure find_space_failure() {
  SpaceBudget tight;
  tight.cycle_mult = 2;  // 2K-cell cycle: |diff| = K aliases with −K
  CampaignConfig config;
  config.protocols = {"bprc"};
  config.ns = {2, 3};
  config.adversaries = {"random"};
  config.seeds_per_cell = 8;
  config.max_steps = 2'000'000;
  config.crash_plans = false;
  config.spaces = {tight};
  config.max_failures = 1;
  CampaignReport report = run_campaign(config);
  EXPECT_FALSE(report.failures.empty())
      << "campaign failed to catch the under-provisioned budget";
  return report.failures.empty() ? TortureFailure{}
                                 : std::move(report.failures.front());
}

TEST(SpaceReplay, UnderProvisionedBudgetIsCaughtAsBoundedMemory) {
  const TortureFailure fail = find_space_failure();
  ASSERT_EQ(fail.failure, FailureClass::kBoundedMemory);
  EXPECT_FALSE(fail.run.space.is_default());

  // Scripted replay of the recorded run reproduces the violation...
  const ConsensusRunResult replayed =
      replay_run(fail.run, fail.schedule, fail.crashes);
  EXPECT_EQ(replayed.failure(), FailureClass::kBoundedMemory);

  // ...and the budget is load-bearing: the same script at the paper's
  // budget must be clean, or the finding wasn't about space at all.
  TortureRun healed = fail.run;
  healed.space = SpaceBudget{};
  const ConsensusRunResult at_paper =
      replay_run(healed, fail.schedule, fail.crashes);
  EXPECT_NE(at_paper.failure(), FailureClass::kBoundedMemory);
}

TEST(SpaceReplay, ShrunkSpaceArtifactRoundTripsByteIdentically) {
  // Catch -> ddmin -> serialize -> parse -> re-serialize -> replay, along
  // the space axis: the artifact must carry the budget line and keep
  // reproducing kBoundedMemory after the round trip.
  const TortureFailure fail = find_space_failure();
  ASSERT_EQ(fail.failure, FailureClass::kBoundedMemory);
  const ShrinkOutcome shrunk = shrink_failure(fail);
  ASSERT_TRUE(shrunk.reproduced);
  EXPECT_LE(shrunk.schedule.size(), shrunk.original_len);

  const Repro repro = make_repro(fail, shrunk.schedule, shrunk.crashes);
  const std::string text = serialize_repro(repro);
  EXPECT_NE(text.find("space " + fail.run.space.to_string() + "\n"),
            std::string::npos);

  std::string err;
  const auto parsed = parse_repro(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->run.space, fail.run.space);
  EXPECT_EQ(serialize_repro(*parsed), text);

  const ConsensusRunResult replayed = replay_repro(*parsed);
  EXPECT_EQ(replayed.failure(), FailureClass::kBoundedMemory);
}

TEST(Repro, DefaultBudgetWritesNoSpaceLine) {
  // Byte-stability of historical artifacts: at the paper's budget the
  // serializer must omit the space line entirely.
  TortureFailure fail;
  fail.run.protocol = "broken-racy";
  fail.run.inputs = {0, 1};
  fail.run.adversary = "round-robin";
  fail.run.seed = 7;
  fail.run.max_steps = 100;
  fail.failure = FailureClass::kConsistency;
  fail.schedule = {0, 1, 0, 1};
  const Repro repro = make_repro(fail, fail.schedule, fail.crashes);
  EXPECT_EQ(serialize_repro(repro).find("space"), std::string::npos);
}

TEST(Repro, SpaceLineRoundTripsOnHandWrittenArtifact) {
  std::string text(kGoodRepro);
  text.insert(text.find("failure"), "space K=3 cycle=4 slots=4 b=8 mscale=2\n");
  std::string err;
  const auto parsed = parse_repro(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->run.space.K, 3);
  EXPECT_EQ(parsed->run.space.cycle_mult, 4);
  EXPECT_EQ(parsed->run.space.slots, 4);
  EXPECT_EQ(parsed->run.space.b, 8);
  EXPECT_EQ(parsed->run.space.m_scale, 2);
  EXPECT_EQ(serialize_repro(*parsed), text);
}

TEST(Repro, MalformedSpaceLinesAreRejected) {
  // Reject, never guess: a malformed budget silently replaced by the
  // default would replay a different protocol layout.
  struct Case {
    const char* insert;
    const char* diag;
  };
  const Case cases[] = {
      {"space K=3\nspace K=4\n", "duplicate space"},
      {"space banana\n", "malformed space line"},
      {"space K=\n", "malformed space line"},
      {"space K=1\n", "malformed space line"},       // fails validate()
      {"space K=3 K=4\n", "malformed space line"},   // duplicate key
      {"space flavor=3\n", "malformed space line"},  // unknown key
  };
  for (const Case& c : cases) {
    std::string text(kGoodRepro);
    text.insert(text.find("failure"), c.insert);
    const std::string err = expect_rejected(text);
    EXPECT_NE(err.find(c.diag), std::string::npos)
        << "fixture=" << c.insert << " err=" << err;
  }
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Parses `original` with the codec its extension names and
/// re-serializes it; nullopt + `err` when the parse fails.
std::optional<std::string> reserialize(const std::filesystem::path& path,
                                       const std::string& original,
                                       std::string* err) {
  const std::string ext = path.extension().string();
  if (ext == ".bprc-repro") {
    const auto repro = parse_repro(original, err);
    if (!repro.has_value()) return std::nullopt;
    // The repro fixtures predate the space lane: none carries a budget.
    EXPECT_TRUE(repro->run.space.is_default()) << path;
    return serialize_repro(*repro);
  }
  if (ext == ".bprc-shard") {
    const auto shard = shard::parse_shard_file(original, err);
    if (!shard.has_value()) return std::nullopt;
    return shard::serialize_shard_file(*shard);
  }
  if (ext == ".bprc-frontier") {
    const auto frontier = explore::parse_frontier(original, err);
    if (!frontier.has_value()) return std::nullopt;
    return explore::serialize_frontier(*frontier);
  }
  if (ext == ".bprc-weakmem") {
    const auto rec = weakmem::load_recording(path.string(), err);
    if (!rec.has_value()) return std::nullopt;
    const std::string copy =
        testing::TempDir() + "reserialize-" + path.filename().string();
    if (!weakmem::save_recording(*rec, copy)) {
      *err = "save_recording failed";
      return std::nullopt;
    }
    std::string text = read_bytes(copy);
    std::remove(copy.c_str());
    return text;
  }
  *err = "no codec for extension " + ext;
  return std::nullopt;
}

TEST(Repro, SavedArtifactsReserializeByteIdentically) {
  // Every committed fixture — the historical repros, which predate the
  // weak-register and space lanes, plus one shard, frontier and weakmem
  // file each written by an earlier build — must parse and re-serialize
  // to its exact bytes: new optional lines cost old artifacts nothing,
  // and a codec change that moves a byte fails here.
  std::vector<std::filesystem::path> fixtures;
  for (const auto& entry :
       std::filesystem::directory_iterator(BPRC_TEST_DATA_DIR)) {
    if (entry.is_regular_file()) fixtures.push_back(entry.path());
  }
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_GE(fixtures.size(), 8u);
  for (const auto& path : fixtures) {
    const std::string original = read_bytes(path.string());
    ASSERT_FALSE(original.empty()) << path;
    std::string err;
    const auto text = reserialize(path, original, &err);
    ASSERT_TRUE(text.has_value()) << path << ": " << err;
    EXPECT_EQ(*text, original) << path;
  }
}

TEST(Repro, GenerativeModeRoundTrips) {
  // kWorkerCrash artifacts have no recorded schedule — `mode generative`
  // flags that replay re-executes (adversary, seed) from scratch. The
  // flag must survive a serialize/parse round trip, or a worker-crash
  // artifact would silently replay as a zero-step scripted run.
  TortureFailure fail;
  fail.run.protocol = "broken-segv";
  fail.run.inputs = {0, 1};
  fail.run.adversary = "random";
  fail.run.seed = 8;
  fail.run.max_steps = 1000;
  fail.failure = FailureClass::kWorkerCrash;
  const Repro repro = make_repro(fail, fail.schedule, fail.crashes);
  ASSERT_TRUE(repro.generative);
  EXPECT_NE(serialize_repro(repro).find("mode generative\n"),
            std::string::npos);
  std::string err;
  const auto parsed = parse_repro(serialize_repro(repro), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_TRUE(parsed->generative);
  EXPECT_EQ(parsed->failure, FailureClass::kWorkerCrash);
  EXPECT_EQ(parsed->run.seed, 8u);
  EXPECT_TRUE(parsed->schedule.empty());
}

}  // namespace
}  // namespace bprc::fault
