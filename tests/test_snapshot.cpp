// Scannable-memory tests: the P1/P2/P3 properties of Section 2, checked
// over recorded histories from adversarial simulator runs and thread-
// runtime stress, for both arrow implementations, plus the unbounded
// baseline snapshot.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/adversary.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "snapshot/baseline_snapshot.hpp"
#include "snapshot/scannable_memory.hpp"
#include "util/fnv.hpp"
#include "verify/snapshot_props.hpp"

namespace bprc {
namespace {

using Arrow = ScannableMemory<int>::ArrowImpl;

TEST(ScannableMemory, SingleProcessScanSeesOwnWrite) {
  SimRuntime rt(1, std::make_unique<RoundRobinAdversary>(), 1);
  ScannableMemory<int> mem(rt, 0);
  std::vector<int> view;
  rt.spawn(0, [&] {
    mem.write(7);
    mem.scan_into(view);
  });
  rt.run(1000);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0], 7);
}

TEST(ScannableMemory, ScanReturnsInitialValuesBeforeAnyWrite) {
  SimRuntime rt(3, std::make_unique<RoundRobinAdversary>(), 1);
  ScannableMemory<int> mem(rt, 42);
  std::vector<int> view;
  rt.spawn(0, [&] { mem.scan_into(view); });
  rt.run(1000);
  EXPECT_EQ(view, (std::vector<int>{42, 42, 42}));
}

TEST(ScannableMemory, SequentialWritesVisibleToLaterScan) {
  SimRuntime rt(3, std::make_unique<ScriptedAdversary>(std::vector<ProcId>{
                       0, 0, 0, 1, 1, 1}),
                1);
  ScannableMemory<int> mem(rt, 0);
  std::vector<int> view;
  rt.spawn(0, [&] { mem.write(10); });
  rt.spawn(1, [&] { mem.write(20); });
  rt.spawn(2, [&] { mem.scan_into(view); });
  rt.run(10000);
  EXPECT_EQ(view[0], 10);
  EXPECT_EQ(view[1], 20);
  EXPECT_EQ(view[2], 0);
}

TEST(ScannableMemory, RepeatedPayloadsStillDetected) {
  // The toggle bit must make consecutive identical payloads distinct: a
  // scan's ghost view advances even when the user value repeats.
  SnapshotHistory hist;
  SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
  ScannableMemory<int> mem(rt, 0, Arrow::kNative, &hist);
  rt.spawn(0, [&] {
    for (int k = 0; k < 5; ++k) mem.write(99);  // same payload every time
  });
  rt.spawn(1, [&] {
    for (int k = 0; k < 5; ++k) mem.scan();
  });
  rt.run(100000);
  ASSERT_EQ(hist.writes.size(), 5u);
  for (std::size_t i = 0; i < hist.writes.size(); ++i) {
    EXPECT_EQ(hist.writes[i].index, i + 1);  // distinct ghost indices
  }
  if (auto err = check_snapshot_properties(hist)) FAIL() << *err;
}

/// Workload: every process alternates write(value)/scan for `ops` rounds —
/// the access pattern of the consensus protocol, under which scans must
/// make progress.
SnapshotHistory run_workload(int n, std::unique_ptr<Adversary> adv,
                             std::uint64_t seed, int ops, Arrow arrows) {
  SnapshotHistory hist;
  SimRuntime rt(n, std::move(adv), seed);
  ScannableMemory<int> mem(rt, 0, arrows, &hist);
  for (ProcId p = 0; p < n; ++p) {
    rt.spawn(p, [&rt, &mem, p, ops] {
      for (int k = 0; k < ops; ++k) {
        mem.write(static_cast<int>(p) * 1000 + k);
        mem.scan();
      }
    });
  }
  const RunResult res = rt.run(2'000'000);
  EXPECT_EQ(res.reason, RunResult::Reason::kAllDone)
      << "scan livelocked under the alternating workload";
  return hist;
}

class SnapshotProperties
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(SnapshotProperties, P123HoldUnderAdversaries) {
  const auto [n, advk, seed] = GetParam();
  auto advs = standard_adversaries(seed);
  auto hist = run_workload(n, std::move(advs[static_cast<std::size_t>(advk)]),
                           seed, /*ops=*/6, Arrow::kNative);
  EXPECT_GT(hist.scans.size(), 0u);
  if (auto err = check_snapshot_properties(hist)) FAIL() << *err;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SnapshotProperties,
    ::testing::Combine(::testing::Values(2, 3, 5, 8), ::testing::Range(0, 5),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

class SnapshotBloomArrows : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotBloomArrows, P123HoldWithConstructedArrows) {
  const std::uint64_t seed = GetParam();
  auto hist = run_workload(3, std::make_unique<RandomAdversary>(seed), seed,
                           /*ops=*/5, Arrow::kBloom);
  if (auto err = check_snapshot_properties(hist)) FAIL() << *err;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotBloomArrows,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(ScannableMemory, ThreadRuntimeStressP123) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SnapshotHistory hist;
    ThreadRuntime rt(4, seed, /*yield_prob=*/0.25);
    ScannableMemory<int> mem(rt, 0, Arrow::kNative, &hist);
    for (ProcId p = 0; p < 4; ++p) {
      rt.spawn(p, [&rt, &mem, p] {
        for (int k = 0; k < 8; ++k) {
          mem.write(static_cast<int>(p) * 1000 + k);
          mem.scan();
        }
      });
    }
    const RunResult res = rt.run(50'000'000);
    ASSERT_EQ(res.reason, RunResult::Reason::kAllDone);
    if (auto err = check_snapshot_properties(hist)) {
      FAIL() << "seed " << seed << ": " << *err;
    }
  }
}

TEST(ScannableMemory, ScannerTerminatesOnceWritersStop) {
  // The paper's progress condition concerns endless NEW writes only; once
  // the writers stop, every scan must terminate.
  SimRuntime rt(3, std::make_unique<RandomAdversary>(7), 7);
  ScannableMemory<int> mem(rt, 0);
  int scans_done = 0;
  for (ProcId p = 0; p < 2; ++p) {
    rt.spawn(p, [&mem, p] {
      for (int k = 0; k < 30; ++k) mem.write(static_cast<int>(p) + k);
    });
  }
  rt.spawn(2, [&] {
    for (int k = 0; k < 10; ++k) {
      mem.scan();
      ++scans_done;
    }
  });
  const RunResult res = rt.run(1'000'000);
  EXPECT_EQ(res.reason, RunResult::Reason::kAllDone);
  EXPECT_EQ(scans_done, 10);
}

TEST(ScannableMemory, ScanRetriesAreCountedUnderContention) {
  SimRuntime rt(2, std::make_unique<RandomAdversary>(3), 3);
  ScannableMemory<int> mem(rt, 0);
  rt.spawn(0, [&] {
    for (int k = 0; k < 200; ++k) mem.write(k);
  });
  rt.spawn(1, [&] {
    for (int k = 0; k < 5; ++k) mem.scan();
  });
  rt.run(1'000'000);
  // Not asserting an exact count (schedule-dependent); the retry path must
  // at least have been exercised under this contention.
  EXPECT_GE(mem.scan_retries(), 1u);
}

TEST(UnboundedSnapshot, P123HoldToo) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SnapshotHistory hist;
    SimRuntime rt(4, std::make_unique<RandomAdversary>(seed), seed);
    UnboundedSnapshot<int> mem(rt, 0, &hist);
    for (ProcId p = 0; p < 4; ++p) {
      rt.spawn(p, [&rt, &mem, p] {
        for (int k = 0; k < 6; ++k) {
          mem.write(static_cast<int>(p) * 100 + k);
          mem.scan();
        }
      });
    }
    ASSERT_EQ(rt.run(2'000'000).reason, RunResult::Reason::kAllDone);
    if (auto err = check_snapshot_properties(hist)) {
      FAIL() << "seed " << seed << ": " << *err;
    }
  }
}

TEST(UnboundedSnapshot, SequenceNumbersGrowWithWrites) {
  SimRuntime rt(2, std::make_unique<RoundRobinAdversary>(), 1);
  UnboundedSnapshot<int> mem(rt, 0);
  rt.spawn(0, [&] {
    for (int k = 0; k < 50; ++k) mem.write(k);
  });
  rt.spawn(1, [&] {
    for (int k = 0; k < 3; ++k) mem.scan();
  });
  rt.run(1'000'000);
  // The unbounded quantity: grows linearly with writes — this is what the
  // paper's construction eliminates.
  EXPECT_EQ(mem.max_sequence_number(), 50u);
}

TEST(ScannableMemory, WriterCrashMidWriteDoesNotWedgeScans) {
  // Nastiest crash point: the writer has raised its arrow toward the
  // scanner but dies before writing its value. The stale arrow must not
  // wedge the scanner: each attempt re-clears arrows, and with no new
  // writes the second attempt is clean.
  const int n = 2;
  // Writer (p0) write = raise 1 arrow + value write = 2 steps; crash it
  // after the arrow raise (its first step).
  auto adv = std::make_unique<CrashPlanAdversary>(
      std::make_unique<ScriptedAdversary>(std::vector<ProcId>{0}),
      std::vector<CrashPlanAdversary::Crash>{{1, 0}});
  SnapshotHistory hist;
  SimRuntime rt(n, std::move(adv), 1);
  ScannableMemory<int> mem(rt, 0, Arrow::kNative, &hist);
  std::vector<int> view;
  rt.spawn(0, [&] { mem.write(77); });  // dies mid-write
  rt.spawn(1, [&] { mem.scan_into(view); });
  const RunResult res = rt.run(100000);
  EXPECT_EQ(res.reason, RunResult::Reason::kAllDone);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 0);  // the interrupted write never took effect
  // The history contains the scan but no completed write; P1-P3 hold.
  EXPECT_TRUE(hist.writes.empty());
  if (auto err = check_snapshot_properties(hist)) FAIL() << *err;
}

TEST(ScannableMemory, WriterCrashBetweenValueAndNothingElse) {
  // Crash immediately AFTER the value write lands (write completed from
  // the memory's perspective, even though the process never returns):
  // the scanner must be able to return the new value.
  const int n = 2;
  // An op declared at a checkpoint executes on the NEXT scheduling, so
  // p0 needs three picks for its 2-step write to fully land; the crash
  // fires before its fourth.
  auto adv = std::make_unique<CrashPlanAdversary>(
      std::make_unique<ScriptedAdversary>(std::vector<ProcId>{0, 0, 0}),
      std::vector<CrashPlanAdversary::Crash>{{3, 0}});
  SimRuntime rt(n, std::move(adv), 1);
  ScannableMemory<int> mem(rt, 0);
  std::vector<int> view;
  rt.spawn(0, [&] {
    mem.write(88);
    mem.write(99);  // never gets here
  });
  rt.spawn(1, [&] { mem.scan_into(view); });
  const RunResult res = rt.run(100000);
  EXPECT_EQ(res.reason, RunResult::Reason::kAllDone);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 88);
}

TEST(ScannableMemory, StepCostOfWriteIsN) {
  // write = (n-1) arrow writes + 1 value write.
  const int n = 6;
  SimRuntime rt(n, std::make_unique<RoundRobinAdversary>(), 1);
  ScannableMemory<int> mem(rt, 0);
  rt.spawn(0, [&] { mem.write(1); });
  rt.run(1000);
  EXPECT_EQ(rt.steps(0), static_cast<std::uint64_t>(n));
}

TEST(ScannableMemory, StepCostOfUncontendedScan) {
  // scan (one attempt) = (n-1) arrow clears + 2(n-1) value reads +
  // (n-1) arrow reads = 4(n-1).
  const int n = 6;
  SimRuntime rt(n, std::make_unique<RoundRobinAdversary>(), 1);
  ScannableMemory<int> mem(rt, 0);
  rt.spawn(0, [&] { mem.scan(); });
  rt.run(1000);
  EXPECT_EQ(rt.steps(0), static_cast<std::uint64_t>(4 * (n - 1)));
}

/// FNV-1a over a whole recorded history: every write's (writer, ghost,
/// inv, res) and every scan's (scanner, inv, res, view ghosts), in
/// completion order.
std::uint64_t history_digest(const SnapshotHistory& h) {
  std::uint64_t d = fnv_mix(kFnvOffset, static_cast<std::uint64_t>(h.nprocs));
  for (const SnapWriteRec& w : h.writes) {
    d = fnv_mix(d, static_cast<std::uint64_t>(w.writer));
    d = fnv_mix(d, w.index);
    d = fnv_mix(d, w.inv);
    d = fnv_mix(d, w.res);
  }
  d = fnv_mix(d, 0x5CA7);
  for (const SnapScanRec& s : h.scans) {
    d = fnv_mix(d, static_cast<std::uint64_t>(s.scanner));
    d = fnv_mix(d, s.inv);
    d = fnv_mix(d, s.res);
    for (const std::uint64_t g : s.view) d = fnv_mix(d, g);
  }
  return d;
}

/// Random scheduling that also crashes, with probability 1/16 per pick, a
/// process parked at its value-register write (object ids below n) —
/// up to n-1 of them. A write crashed there never executes, so its
/// window stays open for the rest of the run: under weakened semantics
/// every later read of that register may serve either value.
class MidWriteCrasher final : public Adversary {
 public:
  explicit MidWriteCrasher(std::uint64_t seed) : inner_(seed), rng_(~seed) {}

  ProcId pick(SimCtl& ctl) override {
    const int n = ctl.nprocs();
    for (ProcId p = 0; p < n && crashes_ < n - 1; ++p) {
      const SimCtl::ProcView& v = ctl.view(p);
      if (v.runnable && v.pending.kind == OpDesc::Kind::kWrite &&
          v.pending.object >= 0 && v.pending.object < n &&
          rng_.below(16) == 0) {
        ctl.crash(p);
        ++crashes_;
      }
    }
    return ctl.runnable_mask() == 0 ? -1 : inner_.pick(ctl);
  }
  int resolve_read(SimCtl& ctl, const StaleRead& sr) override {
    return inner_.resolve_read(ctl, sr);
  }
  std::string name() const override { return "mid-write-crasher"; }

 private:
  RandomAdversary inner_;
  Rng rng_;
  int crashes_ = 0;
};

/// One pinned recorded run: n = 3 processes alternating write/scan under
/// `sem`, scheduled (and stale reads resolved) by a seeded random
/// adversary, with or without mid-write crashes. With `repeat` every
/// process writes the same payload each time, so entries two writes
/// apart compare equal and a weakened read can serve an older ghost the
/// double collect cannot tell apart: the view must report the second
/// collect's ghosts.
struct PinnedHistory {
  RegisterSemantics sem;
  bool crashes;
  bool repeat;
  std::uint64_t seed;
  std::uint64_t digest;
};

std::uint64_t pinned_history_digest(const PinnedHistory& c) {
  constexpr int kN = 3;
  SnapshotHistory hist;
  std::unique_ptr<Adversary> adv;
  if (c.crashes) {
    adv = std::make_unique<MidWriteCrasher>(c.seed);
  } else {
    adv = std::make_unique<RandomAdversary>(c.seed);
  }
  SimRuntime rt(kN, std::move(adv), c.seed);
  rt.set_register_semantics(c.sem);
  ScannableMemory<int> mem(rt, 0, Arrow::kNative, &hist);
  for (ProcId p = 0; p < kN; ++p) {
    rt.spawn(p, [&mem, p, &c] {
      for (int k = 0; k < 8; ++k) {
        mem.write(c.repeat ? static_cast<int>(p) : static_cast<int>(p) * 100 + k);
        mem.scan();
      }
    });
  }
  rt.run(20'000);
  return history_digest(hist);
}

TEST(ScannableMemory, RecordedHistoriesArePinned) {
  // Atomic, regular and safe registers; random schedules with and without
  // crashes that leave write windows open. The digests pin every write and scan
  // interval and every view ghost of these runs.
  const PinnedHistory cases[] = {
      {RegisterSemantics::kAtomic, false, false, 1, 0xc1e7936f4c98437fULL},
      {RegisterSemantics::kAtomic, true, true, 2, 0x000ff0159f93ba78ULL},
      {RegisterSemantics::kRegular, false, true, 3, 0xea70f15090687e49ULL},
      {RegisterSemantics::kRegular, true, false, 4, 0xbee1bffd24ea0f44ULL},
      {RegisterSemantics::kRegular, true, true, 5, 0x85db5bf2eab5c6a6ULL},
      {RegisterSemantics::kSafe, false, true, 6, 0x7e9d12f074e9b145ULL},
      {RegisterSemantics::kSafe, true, false, 7, 0x49fa652a4fd56b64ULL},
      {RegisterSemantics::kSafe, true, true, 8, 0xedf06e325a65ef24ULL},
  };
  for (const PinnedHistory& c : cases) {
    EXPECT_EQ(pinned_history_digest(c), c.digest)
        << to_string(c.sem) << (c.crashes ? " mid-write crashes" : "")
        << (c.repeat ? " repeat" : "") << " seed " << c.seed;
  }
}

}  // namespace
}  // namespace bprc
