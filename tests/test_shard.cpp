// Sharded campaign service tests: partition/backoff/reaper policy, the
// wire format (frames, records, shard files), and the headline
// robustness guarantees — the merged report is byte-identical to the
// serial run at any worker count, with chaos kills, and across
// --shard/--merge round trips; a trial that kills its worker process is
// quarantined as FailureClass::kWorkerCrash instead of killing the
// campaign.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "fault/campaign.hpp"
#include "fault/repro.hpp"
#include "shard/coordinator.hpp"
#include "shard/supervise.hpp"
#include "shard/wire.hpp"

namespace bprc::shard {
namespace {

// ---- policy ---------------------------------------------------------------

TEST(Supervise, ShardRangesTileTheIndexSpace) {
  for (const std::size_t total : {0u, 1u, 5u, 7u, 16u, 421u}) {
    for (std::size_t k = 1; k <= 6; ++k) {
      std::size_t covered = 0;
      std::size_t expect_begin = 0;
      std::size_t min_size = total + 1;
      std::size_t max_size = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const IndexRange r = shard_range(i, k, total);
        EXPECT_EQ(r.begin, expect_begin) << "total=" << total << " k=" << k;
        EXPECT_LE(r.begin, r.end);
        expect_begin = r.end;
        covered += r.size();
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
      }
      EXPECT_EQ(expect_begin, total);
      EXPECT_EQ(covered, total);
      if (total >= k) {
        EXPECT_LE(max_size - min_size, 1u) << "total=" << total << " k=" << k;
      }
    }
  }
}

TEST(Supervise, BackoffIsCappedExponential) {
  using std::chrono::milliseconds;
  const milliseconds base{25};
  const milliseconds cap{500};
  EXPECT_EQ(respawn_backoff(0, base, cap), milliseconds::zero());
  EXPECT_EQ(respawn_backoff(1, base, cap), milliseconds{25});
  EXPECT_EQ(respawn_backoff(2, base, cap), milliseconds{50});
  EXPECT_EQ(respawn_backoff(3, base, cap), milliseconds{100});
  EXPECT_EQ(respawn_backoff(10, base, cap), cap);
  EXPECT_EQ(respawn_backoff(1000, base, cap), cap);  // no overflow
  EXPECT_EQ(respawn_backoff(5, milliseconds::zero(), cap),
            milliseconds::zero());
}

TEST(Supervise, ReaperScheduleIsSeededAndStrictlyIncreasing) {
  const auto plan = reaper_schedule(4, 3, 99, 1000);
  ASSERT_EQ(plan.size(), 4u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_LT(plan[i].victim_slot, 3u);
    if (i > 0) {
      EXPECT_GT(plan[i].after_delivered, plan[i - 1].after_delivered);
    }
  }
  const auto again = reaper_schedule(4, 3, 99, 1000);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].after_delivered, again[i].after_delivered);
    EXPECT_EQ(plan[i].victim_slot, again[i].victim_slot);
  }
  EXPECT_NE(reaper_schedule(4, 3, 100, 1000)[0].after_delivered,
            plan[0].after_delivered);
  EXPECT_TRUE(reaper_schedule(0, 3, 99, 1000).empty());
  EXPECT_TRUE(reaper_schedule(2, 3, 99, 0).empty());
}

// ---- wire -----------------------------------------------------------------

TEST(Wire, FramesSurviveBytewiseReassembly) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(write_frame(fds[1], MsgType::kOutcome, "hello frame"));
  ASSERT_TRUE(write_frame(fds[1], MsgType::kHeartbeat, ""));
  ASSERT_TRUE(write_frame(fds[1], MsgType::kDone, "x"));
  ::close(fds[1]);
  std::string bytes;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);

  // Feed one byte at a time: frames must only complete at their exact
  // boundary, never early, never late.
  FrameReader reader;
  std::vector<Frame> frames;
  for (const char c : bytes) {
    reader.feed(&c, 1);
    while (auto frame = reader.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, MsgType::kOutcome);
  EXPECT_EQ(frames[0].payload, "hello frame");
  EXPECT_EQ(frames[1].type, MsgType::kHeartbeat);
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(frames[2].type, MsgType::kDone);
  EXPECT_EQ(frames[2].payload, "x");
}

TEST(Wire, PartialTrailingFrameNeverCompletes) {
  // A worker SIGKILLed mid-write leaves a torn frame; the reader must
  // sit on it forever rather than deliver garbage.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(write_frame(fds[1], MsgType::kOutcome, "complete"));
  ASSERT_EQ(::write(fds[1], "\x01\xff\x00\x00\x00par", 8), 8);  // torn
  ::close(fds[1]);
  std::string bytes;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload, "complete");
  EXPECT_FALSE(reader.next().has_value());
}

fault::OutcomeRecord sample_failure_record() {
  fault::OutcomeRecord rec;
  rec.digest = 0xDEADBEEFCAFEF00DULL;
  rec.steps = 321;
  rec.reason = RunResult::Reason::kBudget;
  rec.failure = FailureClass::kConsistency;
  fault::TortureFailure f;
  f.run.protocol = "broken-racy";
  f.run.inputs = {0, 1, 1};
  f.run.adversary = "round-robin";
  f.run.crash_plan = {{12, 1}};
  f.run.seed = 777;
  f.run.max_steps = 100000;
  f.failure = FailureClass::kConsistency;
  f.reason = RunResult::Reason::kBudget;
  f.schedule = {0, 1, 2, 0, 1};
  f.crashes = {{12, 1}, {30, 2}};
  f.result.all_decided = false;
  f.result.consistent = false;
  f.result.valid = true;
  f.result.bounded_ok = true;
  f.result.decisions = {0, 1, -1};
  f.result.decision_rounds = {1, 1, 0};
  f.result.total_steps = 321;
  f.result.max_proc_steps = 130;
  f.result.max_round = 1;
  f.result.footprint = {true, 2, 3, 4, 5};
  f.result.reason = RunResult::Reason::kBudget;
  rec.detail = std::move(f);
  return rec;
}

TEST(Wire, RecordRoundTripPreservesEveryField) {
  const fault::OutcomeRecord rec = sample_failure_record();
  const std::string text = serialize_record(42, rec);
  std::string err;
  const auto parsed = parse_record(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->first, 42u);
  const fault::OutcomeRecord& p = parsed->second;
  EXPECT_EQ(p.digest, rec.digest);
  EXPECT_EQ(p.steps, rec.steps);
  EXPECT_EQ(p.reason, rec.reason);
  EXPECT_EQ(p.failure, rec.failure);
  ASSERT_TRUE(p.detail.has_value());
  const fault::TortureFailure& a = *rec.detail;
  const fault::TortureFailure& b = *p.detail;
  EXPECT_EQ(b.run.protocol, a.run.protocol);
  EXPECT_EQ(b.run.inputs, a.run.inputs);
  EXPECT_EQ(b.run.adversary, a.run.adversary);
  ASSERT_EQ(b.run.crash_plan.size(), a.run.crash_plan.size());
  EXPECT_EQ(b.run.crash_plan[0].at_step, a.run.crash_plan[0].at_step);
  EXPECT_EQ(b.run.crash_plan[0].victim, a.run.crash_plan[0].victim);
  EXPECT_EQ(b.run.seed, a.run.seed);
  EXPECT_EQ(b.run.max_steps, a.run.max_steps);
  EXPECT_EQ(b.failure, a.failure);
  EXPECT_EQ(b.reason, a.reason);
  EXPECT_EQ(b.schedule, a.schedule);
  ASSERT_EQ(b.crashes.size(), a.crashes.size());
  EXPECT_EQ(b.crashes[1].at_step, a.crashes[1].at_step);
  EXPECT_EQ(b.crashes[1].victim, a.crashes[1].victim);
  EXPECT_EQ(b.result.all_decided, a.result.all_decided);
  EXPECT_EQ(b.result.consistent, a.result.consistent);
  EXPECT_EQ(b.result.valid, a.result.valid);
  EXPECT_EQ(b.result.bounded_ok, a.result.bounded_ok);
  EXPECT_EQ(b.result.decisions, a.result.decisions);
  EXPECT_EQ(b.result.decision_rounds, a.result.decision_rounds);
  EXPECT_EQ(b.result.total_steps, a.result.total_steps);
  EXPECT_EQ(b.result.max_proc_steps, a.result.max_proc_steps);
  EXPECT_EQ(b.result.max_round, a.result.max_round);
  EXPECT_EQ(b.result.footprint.bounded, a.result.footprint.bounded);
  EXPECT_EQ(b.result.footprint.max_round_stored,
            a.result.footprint.max_round_stored);
  EXPECT_EQ(b.result.footprint.max_counter, a.result.footprint.max_counter);
  EXPECT_EQ(b.result.footprint.coin_locations,
            a.result.footprint.coin_locations);
  EXPECT_EQ(b.result.footprint.static_bound, a.result.footprint.static_bound);
  EXPECT_EQ(b.result.reason, a.result.reason);
}

TEST(Wire, SpaceLineIsAbsentAtDefaultAndRoundTripsOtherwise) {
  // The space lane's byte-stability contract on the wire: records from
  // paper-budget runs — every record ever framed before the lane existed
  // — carry no space line; a non-default budget rides in a failure block
  // line and survives serialize/parse/re-serialize bit-identically.
  fault::OutcomeRecord rec = sample_failure_record();
  EXPECT_EQ(serialize_record(1, rec).find("space "), std::string::npos);

  rec.detail->run.space.cycle_mult = 2;
  const std::string text = serialize_record(1, rec);
  EXPECT_NE(text.find("space K=2 cycle=2 slots=3 b=4 mscale=4\n"),
            std::string::npos);
  std::string err;
  const auto parsed = parse_record(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->second.detail->run.space, rec.detail->run.space);
  EXPECT_EQ(serialize_record(1, parsed->second), text);

  // Reject, never guess: a mangled budget must not parse as the default.
  std::string bad = text;
  const std::size_t at = bad.find("space K=2 cycle=2");
  bad.replace(at, 17, "space K=2 cycle=x");
  EXPECT_FALSE(parse_record(bad, &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(Wire, SkippedSpaceCellsLineRoundTrips) {
  ShardFile shard;
  shard.fingerprint = 0xF00;
  shard.total_runs = 0;
  shard.max_failures = 8;
  shard.begin = 0;
  shard.end = 0;
  // Absent at zero — the historical-bytes contract...
  EXPECT_EQ(serialize_shard_file(shard).find("skipped-space-cells"),
            std::string::npos);
  // ...present and bit-stable when a space-insensitive cell was skipped.
  shard.skipped_space_cells = 5;
  const std::string text = serialize_shard_file(shard);
  EXPECT_NE(text.find("skipped-space-cells 5\n"), std::string::npos);
  std::string err;
  const auto parsed = parse_shard_file(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->skipped_space_cells, 5u);
  EXPECT_EQ(serialize_shard_file(*parsed), text);
}

TEST(Wire, MalformedRecordsAreRejectedWithDiagnostics) {
  std::string err;
  EXPECT_FALSE(parse_record("nonsense\n", &err).has_value());
  EXPECT_FALSE(
      parse_record("outcome 1 2 3 not-a-reason none\n", &err).has_value());
  EXPECT_FALSE(
      parse_record("outcome 1 2 3 all-done not-a-class\n", &err).has_value());
  EXPECT_FALSE(
      parse_record("outcome 1 2 3 all-done none extra\n", &err).has_value());
  // Unterminated failure block.
  EXPECT_FALSE(
      parse_record("outcome 1 2 3 all-done consistency\nfailure-begin\n", &err)
          .has_value());
  EXPECT_NE(err.find("failure-end"), std::string::npos) << err;
  // Unknown key inside a failure block.
  EXPECT_FALSE(parse_record("outcome 1 2 3 all-done consistency\n"
                            "failure-begin\nwat 3\nfailure-end\n",
                            &err)
                   .has_value());
  // A repeated single-valued line is refused, never appended (two
  // `inputs` lines would turn n=2 into n=4) or silently overwritten.
  const std::string text = serialize_record(7, sample_failure_record());
  for (const char* key : {"inputs ", "seed "}) {
    const std::size_t at = text.find(std::string("\n") + key) + 1;
    const std::string line = text.substr(at, text.find('\n', at) + 1 - at);
    std::string dup = text;
    dup.insert(at, line);
    err.clear();
    EXPECT_FALSE(parse_record(dup, &err).has_value()) << line;
    EXPECT_FALSE(err.empty()) << line;
  }
  // A failure block --merge would abort on is refused at parse time: an
  // input that is not a bit, a protocol the registry does not know.
  const std::pair<const char*, const char*> cases[] = {
      {"inputs 0 1 1\n", "inputs 0 1 2\n"},
      {"inputs 0 1 1\n", "inputs 0 -1 1\n"},
      {"protocol broken-racy\n", "protocol no-such-protocol\n"},
  };
  for (const auto& [from, to] : cases) {
    std::string bad = text;
    const std::size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, std::string(from).size(), to);
    err.clear();
    EXPECT_FALSE(parse_record(bad, &err).has_value()) << to;
    EXPECT_NE(err.find(" line "), std::string::npos) << to << ": " << err;
  }
}

TEST(Wire, ShardFileRoundTripIsBitIdentical) {
  ShardFile shard;
  shard.fingerprint = 0x1234567890ABCDEFULL;
  shard.total_runs = 10;
  shard.max_failures = 8;
  shard.skipped_crash_cells = 2;
  shard.begin = 3;
  shard.end = 6;
  for (std::size_t i = 3; i < 6; ++i) {
    fault::OutcomeRecord rec;
    rec.digest = 100 + i;
    rec.steps = 10 * i;
    rec.reason = RunResult::Reason::kAllDone;
    rec.failure = FailureClass::kNone;
    if (i == 4) {
      rec = sample_failure_record();
      rec.digest = 100 + i;
    }
    shard.records.emplace_back(i, std::move(rec));
  }
  const std::string text = serialize_shard_file(shard);
  // Atomic-only campaigns never skipped safe cells, and their files must
  // keep their historical bytes: no skipped-safe-cells line.
  EXPECT_EQ(text.find("skipped-safe-cells"), std::string::npos);
  std::string err;
  const auto parsed = parse_shard_file(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  // Bit-identity: re-serializing the parsed shard reproduces the exact
  // bytes, so files survive any number of load/save cycles unchanged.
  EXPECT_EQ(serialize_shard_file(*parsed), text);

  // With kSafe skips the optional header line appears, round-trips
  // bit-identically, and carries the count through parse.
  shard.skipped_safe_cells = 7;
  const std::string weak_text = serialize_shard_file(shard);
  EXPECT_NE(weak_text.find("skipped-safe-cells 7\n"), std::string::npos);
  const auto weak_parsed = parse_shard_file(weak_text, &err);
  ASSERT_TRUE(weak_parsed.has_value()) << err;
  EXPECT_EQ(weak_parsed->skipped_safe_cells, 7u);
  EXPECT_EQ(serialize_shard_file(*weak_parsed), weak_text);
}

TEST(Wire, CorruptShardFilesAreRefused) {
  std::string err;
  EXPECT_FALSE(parse_shard_file("not-a-shard\n", &err).has_value());
  const std::string header =
      "bprc-shard v1\nfingerprint 1\ntotal-runs 4\nmax-failures 8\n"
      "skipped-crash-cells 0\nrange 0 2\n";
  // Truncated: no end marker.
  EXPECT_FALSE(parse_shard_file(header, &err).has_value());
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  // Coverage hole: range says [0, 2) but only one record present.
  EXPECT_FALSE(
      parse_shard_file(header + "outcome 0 5 1 all-done none\nend\n", &err)
          .has_value());
  // Out-of-order records.
  EXPECT_FALSE(parse_shard_file(header + "outcome 1 5 1 all-done none\n" +
                                    "outcome 0 5 1 all-done none\nend\n",
                                &err)
                   .has_value());
  // The valid version of the same file parses.
  EXPECT_TRUE(parse_shard_file(header + "outcome 0 5 1 all-done none\n" +
                                   "outcome 1 6 1 all-done none\nend\n",
                               &err)
                  .has_value())
      << err;
}

// ---- end-to-end determinism ----------------------------------------------

fault::CampaignConfig small_campaign() {
  fault::CampaignConfig config;
  config.protocols = {"bprc"};
  config.ns = {2, 3};
  config.adversaries = {"random", "round-robin"};
  config.seeds_per_cell = 2;
  config.max_steps = 2'000'000;
  config.run_deadline = std::chrono::milliseconds(3000);
  config.jobs = 1;
  return config;
}

void expect_same_report(const fault::CampaignReport& a,
                        const fault::CampaignReport& b) {
  EXPECT_EQ(a.summary_digest, b.summary_digest);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.deadline_aborts, b.deadline_aborts);
  EXPECT_EQ(a.budget_aborts, b.budget_aborts);
  EXPECT_EQ(a.skipped_crash_cells, b.skipped_crash_cells);
  EXPECT_EQ(a.skipped_safe_cells, b.skipped_safe_cells);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  EXPECT_EQ(a.interrupted, b.interrupted);
}

TEST(Shard, FourWorkersReproduceTheSerialReport) {
  const fault::CampaignConfig config = small_campaign();
  const fault::CampaignReport serial = run_campaign(config);
  ASSERT_TRUE(serial.ok());

  ShardServiceConfig service;
  service.campaign = config;
  service.workers = 4;
  const fault::CampaignReport sharded = run_sharded_campaign(service);
  expect_same_report(serial, sharded);
}

TEST(Shard, ChaosKillsLeaveTheDigestUntouched) {
  // A heavier matrix so workers are genuinely mid-shard when the two
  // seeded reaper kills land; each killed worker's range is re-executed
  // by its replacement, and the merged report must not move a bit.
  fault::CampaignConfig config = small_campaign();
  config.ns = {5};
  config.seeds_per_cell = 6;
  const fault::CampaignReport serial = run_campaign(config);
  ASSERT_TRUE(serial.ok());

  ShardServiceConfig service;
  service.campaign = config;
  service.workers = 4;
  service.reaper_kills = 2;
  std::atomic<int> kills{0};
  service.log = [&](const std::string& msg) {
    if (msg.rfind("reaper:", 0) == 0) ++kills;
  };
  const fault::CampaignReport sharded = run_sharded_campaign(service);
  EXPECT_EQ(kills.load(), 2) << "chaos kills did not land";
  expect_same_report(serial, sharded);
}

TEST(Shard, ShardFilesMergeBackToTheSerialReport) {
  const fault::CampaignConfig config = small_campaign();
  const fault::CampaignReport serial = run_campaign(config);

  std::vector<ShardFile> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    ShardFile file = run_shard(config, i, 3);
    // Round-trip through the text format, as the CLI does through disk.
    std::string err;
    auto reparsed = parse_shard_file(serialize_shard_file(file), &err);
    ASSERT_TRUE(reparsed.has_value()) << err;
    shards.push_back(std::move(*reparsed));
  }
  const MergeResult merged = merge_shard_files(shards);
  ASSERT_TRUE(merged.ok) << merged.error;
  expect_same_report(serial, merged.report);

  // Any-order merge: shuffle the shard order; the fold is by index, not
  // by argument position.
  std::vector<ShardFile> reversed(shards.rbegin(), shards.rend());
  const MergeResult merged2 = merge_shard_files(reversed);
  ASSERT_TRUE(merged2.ok) << merged2.error;
  EXPECT_EQ(merged2.report.summary_digest, serial.summary_digest);
}

TEST(Shard, MergeRefusesIncompleteOrForeignShards) {
  const fault::CampaignConfig config = small_campaign();
  std::vector<ShardFile> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    shards.push_back(run_shard(config, i, 2));
  }
  // Missing shard.
  const MergeResult missing = merge_shard_files({shards[0]});
  EXPECT_FALSE(missing.ok);
  // Foreign shard: a different campaign's fingerprint.
  std::vector<ShardFile> mixed = shards;
  mixed[1].fingerprint ^= 1;
  const MergeResult foreign = merge_shard_files(mixed);
  EXPECT_FALSE(foreign.ok);
  EXPECT_NE(foreign.error.find("different campaigns"), std::string::npos);
  // Empty set.
  EXPECT_FALSE(merge_shard_files({}).ok);
}

// ---- crash survival -------------------------------------------------------

TEST(Shard, WorkerKillingTrialsAreQuarantinedAndTheCampaignCompletes) {
  // broken-segv segfaults the worker process on even seeds. A
  // single-process campaign dies on the spot; the coordinator must burn
  // the respawn budget on each lethal index, quarantine it as
  // kWorkerCrash, and still complete the rest of the matrix.
  fault::CampaignConfig config;
  config.protocols = {"broken-segv"};
  config.ns = {2};
  config.adversaries = {"random"};
  config.seeds_per_cell = 4;
  config.crash_plans = false;
  config.max_steps = 2'000'000;
  config.run_deadline = std::chrono::milliseconds(3000);
  config.max_failures = 64;
  config.jobs = 1;

  ShardServiceConfig service;
  service.campaign = config;
  service.workers = 2;
  service.max_respawns = 1;  // two deaths per lethal index, then give up

  const fault::CampaignReport report = run_sharded_campaign(service);
  EXPECT_FALSE(report.interrupted);
  EXPECT_GT(report.runs, 0u);
  ASSERT_FALSE(report.failures.empty())
      << "no lethal seed in the matrix — the acceptance target is gone";
  EXPECT_LT(report.failures.size(), report.runs)
      << "expected benign seeds too";
  for (const fault::TortureFailure& fail : report.failures) {
    EXPECT_EQ(fail.failure, FailureClass::kWorkerCrash);
    EXPECT_EQ(fail.run.protocol, "broken-segv");
    EXPECT_TRUE(fail.schedule.empty());  // the worker died; no recording

    // The artifact pipeline: worker-crash findings become *generative*
    // repro files (mode generative), which round-trip through the text
    // format. They are not replayed here — replaying one re-executes the
    // lethal trial, which would take this test process down; that
    // behavior is exactly what docs/TESTING.md warns about.
    const fault::Repro repro =
        fault::make_repro(fail, fail.schedule, fail.crashes);
    EXPECT_TRUE(repro.generative);
    std::string err;
    const auto parsed = fault::parse_repro(fault::serialize_repro(repro), &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_TRUE(parsed->generative);
    EXPECT_EQ(parsed->failure, FailureClass::kWorkerCrash);
    EXPECT_EQ(parsed->run.seed, fail.run.seed);
  }

  // Determinism holds for quarantine too: a different worker count folds
  // the identical digest, because quarantined_digest() is a pure
  // function of the failure class.
  ShardServiceConfig service3 = service;
  service3.workers = 3;
  const fault::CampaignReport report3 = run_sharded_campaign(service3);
  expect_same_report(report, report3);
}

TEST(Shard, StopRequestedInterruptsAndFlushes) {
  // Coordinator: a stop flag that is already set must interrupt the
  // campaign promptly, reap the workers, and mark the report.
  fault::CampaignConfig config = small_campaign();
  config.stop_requested = [] { return true; };
  ShardServiceConfig service;
  service.campaign = config;
  service.workers = 2;
  const fault::CampaignReport report = run_sharded_campaign(service);
  EXPECT_TRUE(report.interrupted);
  EXPECT_FALSE(report.ok());

  // Serial engine: stopping after the 10th poll keeps the first 10
  // folded runs — partial results flush instead of vanishing.
  fault::CampaignConfig partial = small_campaign();
  int polls = 0;
  partial.stop_requested = [&polls] { return ++polls > 10; };
  const fault::CampaignReport stopped = run_campaign(partial);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_EQ(stopped.runs, 10u);
}

}  // namespace
}  // namespace bprc::shard
