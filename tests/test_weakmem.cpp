// Unit tests for the offline weak-memory SC checker and its artifacts.
//
// The recordings here are built by hand, action by action, so every edge
// family (po, rf, mo, fr) and every rejection path is pinned without any
// dependence on real-thread scheduling. End-to-end recordings from real
// native runs are covered by test_native_registers.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "verify/weakmem/recorder.hpp"
#include "verify/weakmem/sc_checker.hpp"

namespace bprc::weakmem {
namespace {

constexpr auto kLoad = MemAction::Kind::kLoad;
constexpr auto kStore = MemAction::Kind::kStore;
constexpr auto kRmw = MemAction::Kind::kRmw;

/// Appends an action through the recorder (which assigns seq).
void act(WeakMemRecorder& rec, ProcId thread, int loc, MemAction::Kind kind,
         std::uint64_t value, std::uint64_t rf, std::uint64_t mo) {
  MemAction a;
  a.thread = thread;
  a.location = loc;
  a.kind = kind;
  a.order = static_cast<std::uint8_t>(std::memory_order_seq_cst);
  a.value = value;
  a.rf = rf;
  a.mo = mo;
  rec.on_action(a);
}

TEST(WeakMem, EmptyRecordingIsSC) {
  WeakMemRecorder rec(2);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.ok());
}

TEST(WeakMem, MessagePassingIsSC) {
  // T0: W data=42 (v1), W flag=1 (v1).  T1: R flag=1, R data=42.
  // Classic message passing: acyclic, and the SC order must place the
  // data write before the data read.
  WeakMemRecorder rec(2);
  const int data = rec.on_location("data", 0);
  const int flag = rec.on_location("flag", 0);
  act(rec, 0, data, kStore, 42, 0, 1);
  act(rec, 0, flag, kStore, 1, 0, 1);
  act(rec, 1, flag, kLoad, 1, 1, 0);
  act(rec, 1, data, kLoad, 42, 1, 0);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.ok()) << res.witness;
  ASSERT_EQ(res.order.size(), 4u);
}

TEST(WeakMem, StoreBufferingCycleIsFlagged) {
  // The SB litmus: T0: W x (v1), R y = initial.  T1: W y (v1), R x =
  // initial. Both reads missing both writes is exactly the po ∪ fr cycle.
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  const int y = rec.on_location("y", 0);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, y, kLoad, 0, 0, 0);
  act(rec, 1, y, kStore, 1, 0, 1);
  act(rec, 1, x, kLoad, 0, 0, 0);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.well_formed);
  EXPECT_FALSE(res.sc);
  EXPECT_NE(res.witness.find("cycle"), std::string::npos) << res.witness;
}

TEST(WeakMem, StaleReadAfterRmwChainIsFlagged) {
  // T0: RMW x v1→? ... actually: T1 reads version 0 *after* (in its own
  // program order) reading version 2 — a coherence regression: fr sends
  // the stale read before the first write, rf pulls it after the second.
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, x, kStore, 2, 0, 2);
  act(rec, 1, x, kLoad, 2, 2, 0);
  act(rec, 1, x, kLoad, 0, 0, 0);  // reads initial after seeing v2
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.well_formed);
  EXPECT_FALSE(res.sc);
}

TEST(WeakMem, UnflushedStoreIsRejected) {
  WeakMemRecorder rec(1);
  const int x = rec.on_location("x", 0);
  act(rec, 0, x, kStore, 1, 0, 0);  // mo = 0: never flushed
  const SCResult res = check_sc(rec.recording());
  EXPECT_FALSE(res.well_formed);
  EXPECT_NE(res.witness.find("flushed"), std::string::npos) << res.witness;
}

TEST(WeakMem, NonAtomicRmwIsRejected) {
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, x, kStore, 2, 0, 2);
  act(rec, 1, x, kRmw, 3, 0, 3);  // read v0 but wrote v3: lost updates
  const SCResult res = check_sc(rec.recording());
  EXPECT_FALSE(res.well_formed);
  EXPECT_NE(res.witness.find("RMW"), std::string::npos) << res.witness;
}

TEST(WeakMem, ReadValueMismatchIsRejected) {
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 7);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 1, x, kLoad, 9, 1, 0);  // claims rf v1 but value ≠ 1
  const SCResult res = check_sc(rec.recording());
  EXPECT_FALSE(res.well_formed);
}

TEST(WeakMem, PatchMoCompletesABufferedStore) {
  // The broken-relaxed protocol: store recorded with mo = 0, patched
  // when the emulated buffer drains — after which the recording is
  // complete and (in this single-threaded case) SC.
  WeakMemRecorder rec(1);
  const int x = rec.on_location("x", 0);
  MemAction a;
  a.thread = 0;
  a.location = x;
  a.kind = kStore;
  a.value = 5;
  const std::size_t idx = rec.on_action(a);
  rec.patch_mo(0, idx, 1);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.ok()) << res.witness;
}

TEST(WeakMem, ArtifactRoundTripPreservesVerdict) {
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  const int y = rec.on_location("shared y", 3);  // name with a space
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, y, kLoad, 3, 0, 0);
  act(rec, 1, y, kStore, 1, 0, 1);
  act(rec, 1, x, kLoad, 0, 0, 0);
  rec.recording().case_name = "unit-sb";
  const SCResult before = check_sc(rec.recording());
  EXPECT_FALSE(before.sc);

  const std::string path = testing::TempDir() + "weakmem_roundtrip.bprc-weakmem";
  ASSERT_TRUE(save_recording(rec.recording(), path));
  EXPECT_TRUE(is_weakmem_artifact(path));

  const auto loaded = load_recording(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->case_name, "unit-sb");
  ASSERT_EQ(loaded->locations.size(), 2u);
  EXPECT_EQ(loaded->locations[1].name, "shared y");
  EXPECT_EQ(loaded->locations[1].initial, 3u);
  EXPECT_EQ(loaded->total_actions(), 4u);

  const SCResult after = check_sc(*loaded);
  EXPECT_EQ(after.sc, before.sc);
  EXPECT_EQ(after.well_formed, before.well_formed);
  EXPECT_EQ(after.witness, before.witness);
  std::remove(path.c_str());
}

TEST(WeakMem, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "weakmem_garbage.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("not a weakmem artifact\n", f);
    fclose(f);
  }
  EXPECT_FALSE(is_weakmem_artifact(path));
  EXPECT_FALSE(load_recording(path).has_value());
  EXPECT_FALSE(load_recording("/nonexistent/nope").has_value());
  std::remove(path.c_str());
}

// ---- golden outputs ------------------------------------------------------
// Exact witness text and SC order for fixed recordings. These pin the
// checker's observable output byte for byte: which cycle edge it reports,
// the path it prints, and the smallest-id-first topological order.

TEST(WeakMemGolden, StoreBufferingWitness) {
  // T0: W z, W x, R y=init.  T1: W y, R x=init, R z. The po ∪ fr cycle
  // runs through both threads; the leading z traffic shifts the ids.
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  const int y = rec.on_location("y", 0);
  const int z = rec.on_location("z", 0);
  act(rec, 0, z, kStore, 1, 0, 1);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, y, kLoad, 0, 0, 0);
  act(rec, 1, y, kStore, 1, 0, 1);
  act(rec, 1, x, kLoad, 0, 0, 0);
  act(rec, 1, z, kLoad, 1, 1, 0);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.well_formed);
  EXPECT_FALSE(res.sc);
  EXPECT_TRUE(res.order.empty());
  EXPECT_EQ(res.witness, "non-SC execution: happens-before cycle\n"
                         "  T0#2 R y=0 rf@v0 (seq_cst)\n"
                         "  T1#0 W y=1 @v1 (seq_cst)\n"
                         "  T1#1 R x=0 rf@v0 (seq_cst)\n"
                         "  T0#1 W x=1 @v1 (seq_cst)\n"
                         "  T0#2 R y=0 rf@v0 (seq_cst)  <- cycle closes here");
}

TEST(WeakMemGolden, CycleThroughRmwWitness) {
  // Load buffering closed by an RMW: T0 reads T1's y write, then writes
  // x; T1's RMW reads that x write, then writes y.
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  const int y = rec.on_location("y", 0);
  act(rec, 0, y, kLoad, 1, 1, 0);
  act(rec, 0, x, kStore, 5, 0, 1);
  act(rec, 1, x, kRmw, 6, 1, 2);
  act(rec, 1, y, kStore, 1, 0, 1);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.well_formed);
  EXPECT_FALSE(res.sc);
  EXPECT_TRUE(res.order.empty());
  EXPECT_EQ(res.witness, "non-SC execution: happens-before cycle\n"
                         "  T0#1 W x=5 @v1 (seq_cst)\n"
                         "  T1#0 RMW x=6 rf@v1->v2 (seq_cst)\n"
                         "  T1#1 W y=1 @v1 (seq_cst)\n"
                         "  T0#0 R y=1 rf@v1 (seq_cst)\n"
                         "  T0#1 W x=5 @v1 (seq_cst)  <- cycle closes here");
}

TEST(WeakMemGolden, SingleLocationCoherenceWitness) {
  // T1 reads version 2, then version 1: rf and fr on one location form
  // the cycle.
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, x, kStore, 2, 0, 2);
  act(rec, 1, x, kLoad, 2, 2, 0);
  act(rec, 1, x, kLoad, 1, 1, 0);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.well_formed);
  EXPECT_FALSE(res.sc);
  EXPECT_TRUE(res.order.empty());
  EXPECT_EQ(res.witness, "non-SC execution: happens-before cycle\n"
                         "  T1#0 R x=2 rf@v2 (seq_cst)\n"
                         "  T1#1 R x=1 rf@v1 (seq_cst)\n"
                         "  T0#1 W x=2 @v2 (seq_cst)\n"
                         "  T1#0 R x=2 rf@v2 (seq_cst)  <- cycle closes here");
}

TEST(WeakMemGolden, AcyclicMultiLocationOrder) {
  // Three threads over x, y and an RMW counter c, recorded from one SC
  // interleaving.
  WeakMemRecorder rec(3);
  const int x = rec.on_location("x", 0);
  const int y = rec.on_location("y", 0);
  const int c = rec.on_location("c", 0);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, c, kRmw, 2, 1, 2);
  act(rec, 0, y, kLoad, 5, 1, 0);
  act(rec, 0, x, kLoad, 2, 2, 0);
  act(rec, 1, y, kStore, 5, 0, 1);
  act(rec, 1, x, kLoad, 1, 1, 0);
  act(rec, 1, c, kRmw, 3, 2, 3);
  act(rec, 1, c, kLoad, 3, 3, 0);
  act(rec, 2, c, kRmw, 1, 0, 1);
  act(rec, 2, y, kLoad, 5, 1, 0);
  act(rec, 2, x, kStore, 2, 0, 2);
  const SCResult res = check_sc(rec.recording());
  ASSERT_TRUE(res.ok()) << res.witness;
  EXPECT_EQ(res.witness, "");
  EXPECT_EQ(res.order, (std::vector<std::size_t>{0, 4, 5, 8, 1, 2, 6, 7, 9, 10, 3}));
}

TEST(WeakMem, LongSingleLocationRecording) {
  // 64k actions on one location, from a seeded SC interleaving of stores,
  // loads and RMWs by four threads. The per-location Wing–Gong history
  // is as long as the recording, so neither the cycle check nor the
  // coherence re-check may recurse once per action.
  constexpr int kThreads = 4;
  constexpr int kActions = 65'536;
  WeakMemRecorder rec(kThreads);
  const int x = rec.on_location("x", 0);
  Rng rng(0x5C);
  std::uint64_t version = 0;
  std::vector<std::uint64_t> payload{0};
  for (int i = 0; i < kActions; ++i) {
    const auto t = static_cast<ProcId>(rng.below(kThreads));
    switch (rng.below(3)) {
      case 0:
        act(rec, t, x, kLoad, payload[version], version, 0);
        break;
      case 1:
        payload.push_back(static_cast<std::uint64_t>(i));
        act(rec, t, x, kStore, payload.back(), 0, ++version);
        break;
      default:
        payload.push_back(static_cast<std::uint64_t>(i));
        act(rec, t, x, kRmw, payload.back(), version, version + 1);
        ++version;
        break;
    }
  }
  const SCResult res = check_sc(rec.recording());
  ASSERT_TRUE(res.ok()) << res.witness;
  EXPECT_EQ(res.order.size(), static_cast<std::size_t>(kActions));

  // One final read of the initial value closes a cycle through the whole
  // history.
  act(rec, 0, x, kLoad, 0, 0, 0);
  const SCResult stale = check_sc(rec.recording());
  EXPECT_TRUE(stale.well_formed);
  EXPECT_FALSE(stale.sc);
  EXPECT_NE(stale.witness.find("cycle closes here"), std::string::npos);
}

TEST(WeakMem, DescribeActionIsReadable) {
  WeakMemRecorder rec(1);
  const int x = rec.on_location("x", 0);
  MemAction a;
  a.thread = 0;
  a.location = x;
  a.kind = kLoad;
  a.order = static_cast<std::uint8_t>(std::memory_order_acquire);
  a.value = 4;
  a.rf = 2;
  rec.on_action(a);
  const std::string s = describe_action(rec.recording(),
                                        rec.recording().logs[0][0]);
  EXPECT_NE(s.find("T0#0"), std::string::npos) << s;
  EXPECT_NE(s.find("x=4"), std::string::npos) << s;
  EXPECT_NE(s.find("acquire"), std::string::npos) << s;
}

}  // namespace
}  // namespace bprc::weakmem
