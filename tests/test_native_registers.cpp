// End-to-end tests of the native-atomics lane: real threads, real
// std::atomic registers, recorded executions graded by the weak-memory
// checker (and, for consensus, by the standard oracle).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "consensus/abrahamson.hpp"
#include "fault/native.hpp"
#include "verify/weakmem/recorder.hpp"
#include "verify/weakmem/sc_checker.hpp"
#include "sc_order_oracle.hpp"

namespace bprc {
namespace {

NativeRunOptions small_opts() {
  NativeRunOptions opts;
  opts.nprocs = 4;
  opts.seed = 11;
  opts.iters = 40;
  opts.yield_prob = 0.1;  // coax the kernel into interleavings
  return opts;
}

TEST(NativeRegisters, CaseTableHasBrokenEntriesLast) {
  const auto& cases = native_cases();
  ASSERT_FALSE(cases.empty());
  bool seen_broken = false;
  for (const auto& spec : cases) {
    if (spec.broken) seen_broken = true;
    else EXPECT_FALSE(seen_broken) << "broken cases must come last";
  }
  EXPECT_NE(find_native_case("broken-relaxed"), nullptr);
  EXPECT_EQ(find_native_case("no-such-case"), nullptr);
}

TEST(NativeRegisters, LocalCoinRecordRoundTripsThroughThePayload) {
  using Payload = NativePayload<LocalCoinRecord>;
  constexpr std::int64_t kMax = (std::int64_t{1} << 22) - 1;
  static_assert(Payload::kMaxVersion == kMax);
  for (const std::int8_t pref : {0, 1, 2, 3}) {
    for (const std::int64_t version : {std::int64_t{0}, std::int64_t{1},
                                       kMax}) {
      const LocalCoinRecord rec{pref, version};
      const std::uint64_t payload = Payload::pack(rec);
      EXPECT_LE(payload, NativeLoc::kPayloadMask);
      EXPECT_EQ(payload, static_cast<std::uint64_t>(version) << 2 |
                             static_cast<std::uint64_t>(pref));
      EXPECT_EQ(Payload::unpack(payload), rec)
          << "pref=" << int{pref} << " version=" << version;
    }
    // Versions past 22 bits clamp; the preference survives.
    for (const std::int64_t version : {kMax + 1, std::int64_t{1} << 40}) {
      const LocalCoinRecord back =
          Payload::unpack(Payload::pack(LocalCoinRecord{pref, version}));
      EXPECT_EQ(back, (LocalCoinRecord{pref, kMax})) << version;
    }
  }
  // The initial record (unwritten, version 0) is payload 3.
  EXPECT_EQ(Payload::pack(LocalCoinRecord{}), 3u);
}

TEST(NativeRegisters, FaithfulCasesPassTheChecker) {
  for (const auto& spec : native_cases()) {
    if (spec.broken) continue;
    const NativeOutcome out = run_native_case(spec.name, small_opts());
    EXPECT_EQ(out.run.reason, RunResult::Reason::kAllDone) << spec.name;
    ASSERT_TRUE(out.checked) << spec.name;
    EXPECT_TRUE(out.sc.ok()) << spec.name << ": " << out.sc.witness;
    EXPECT_TRUE(weakmem::sc_order_linearizable(out.recording, out.sc.order))
        << spec.name;
    EXPECT_GT(out.recording.total_actions(), 0u) << spec.name;
    EXPECT_TRUE(out.ok()) << spec.name;
  }
}

TEST(NativeRegisters, ConsensusCaseIsGradedByTheOracle) {
  const NativeOutcome out = run_native_case("consensus", small_opts());
  ASSERT_TRUE(out.graded_consensus);
  EXPECT_TRUE(out.consensus.ok());
  EXPECT_TRUE(out.consensus.all_decided);
  EXPECT_TRUE(out.consensus.consistent);
  EXPECT_TRUE(out.consensus.valid);
  ASSERT_TRUE(out.checked);
  EXPECT_TRUE(out.sc.ok()) << out.sc.witness;
}

TEST(NativeRegisters, BrokenRelaxedIsFlaggedWithReplayableArtifact) {
  NativeRunOptions opts = small_opts();
  opts.nprocs = 2;
  const std::string path =
      testing::TempDir() + "broken_relaxed.bprc-weakmem";
  opts.artifact_path = path;
  const NativeOutcome out = run_native_case("broken-relaxed", opts);
  EXPECT_EQ(out.run.reason, RunResult::Reason::kAllDone);
  ASSERT_TRUE(out.checked);
  EXPECT_TRUE(out.sc.well_formed) << out.sc.witness;
  EXPECT_FALSE(out.sc.sc) << "the SB litmus must be flagged non-SC";
  EXPECT_NE(out.sc.witness.find("cycle"), std::string::npos)
      << out.sc.witness;
  EXPECT_FALSE(out.ok());

  // The artifact replays to the same verdict.
  ASSERT_EQ(out.artifact, path);
  ASSERT_TRUE(weakmem::is_weakmem_artifact(path));
  std::string err;
  const auto loaded = weakmem::load_recording(path, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  EXPECT_EQ(loaded->case_name, "broken-relaxed");
  const weakmem::SCResult replayed = weakmem::check_sc(*loaded);
  EXPECT_TRUE(replayed.well_formed);
  EXPECT_FALSE(replayed.sc);
  EXPECT_EQ(replayed.witness, out.sc.witness);
  std::remove(path.c_str());
}

TEST(NativeRegisters, CheckerOffIsTheZeroCostPath) {
  NativeRunOptions opts = small_opts();
  opts.check_sc = false;
  const NativeOutcome out = run_native_case("counter-walk", opts);
  EXPECT_EQ(out.run.reason, RunResult::Reason::kAllDone);
  EXPECT_FALSE(out.checked);
  EXPECT_EQ(out.recording.total_actions(), 0u);
  EXPECT_TRUE(out.ok());
}

TEST(NativeRegisters, RecordedRunsAreWellFormedAtLargerScale) {
  // More contention, more actions: the version bookkeeping must stay
  // exact under real preemption.
  NativeRunOptions opts = small_opts();
  opts.iters = 150;
  opts.seed = 99;
  const NativeOutcome out = run_native_case("scan-storm", opts);
  ASSERT_TRUE(out.checked);
  EXPECT_TRUE(out.sc.ok()) << out.sc.witness;
  EXPECT_TRUE(weakmem::sc_order_linearizable(out.recording, out.sc.order));
  EXPECT_GT(out.recording.total_actions(), 1000u);
}

}  // namespace
}  // namespace bprc
