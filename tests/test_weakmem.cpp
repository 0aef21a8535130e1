// Unit tests for the offline weak-memory SC checker and its artifacts.
//
// The recordings here are built by hand, action by action, so every edge
// family (po, rf, mo, fr) and every rejection path is pinned without any
// dependence on real-thread scheduling. End-to-end recordings from real
// native runs are covered by test_native_registers.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
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

  std::string err;
  const auto loaded = load_recording(path, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  EXPECT_EQ(loaded->case_name, "unit-sb");
  ASSERT_EQ(loaded->locations.size(), 2u);
  EXPECT_EQ(loaded->locations[1].name, "shared y");
  EXPECT_EQ(loaded->locations[1].initial, 3u);
  EXPECT_EQ(loaded->total_actions(), 4u);

  const SCResult after = check_sc(*loaded);
  EXPECT_EQ(after.sc, before.sc);
  EXPECT_EQ(after.well_formed, before.well_formed);
  EXPECT_EQ(after.witness, before.witness);

  // A trailing token on an `act` line is refused with a diagnostic that
  // names the line, never parsed as the action without it.
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const std::size_t act = text.find("\nact ");
  ASSERT_NE(act, std::string::npos);
  const std::size_t eol = text.find('\n', act + 1);
  const std::size_t line_no =
      1 + static_cast<std::size_t>(
              std::count(text.begin(), text.begin() + act + 1, '\n'));
  text.insert(eol, " 9");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  err.clear();
  EXPECT_FALSE(load_recording(path, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_NE(err.find("line " + std::to_string(line_no) + ":"),
            std::string::npos)
      << err;
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
  std::string err;
  EXPECT_FALSE(load_recording(path, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(load_recording("/nonexistent/nope", &err).has_value());
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

// ---- differential test against an explicit-graph reference ------------

/// The reference order: every po, rf, mo and fr edge listed explicitly,
/// then Kahn's sort taking the smallest ready thread-major id first. It
/// orders every action iff po ∪ rf ∪ mo ∪ fr is acyclic.
std::vector<std::size_t> reference_order(const Recording& rec) {
  std::vector<const MemAction*> acts;
  std::map<std::pair<int, std::uint64_t>, std::size_t> writer;  // (loc, v)
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) {
      if (a.kind != kLoad) writer[{a.location, a.mo}] = acts.size();
      acts.push_back(&a);
    }
  }
  std::vector<std::vector<std::size_t>> succ(acts.size());
  std::vector<std::size_t> indegree(acts.size(), 0);
  const auto edge = [&](std::size_t a, std::size_t b) {
    succ[a].push_back(b);
    ++indegree[b];
  };
  for (std::size_t id = 0; id < acts.size(); ++id) {
    const MemAction& a = *acts[id];
    if (a.seq > 0) edge(id - 1, id);  // po
    if (a.kind != kStore) {
      if (a.rf > 0) edge(writer.at({a.location, a.rf}), id);  // rf
      const auto over = writer.find({a.location, a.rf + 1});    // fr
      if (over != writer.end() && over->second != id) edge(id, over->second);
    }
    if (a.kind != kLoad && a.mo > 1) {
      edge(writer.at({a.location, a.mo - 1}), id);  // mo
    }
  }
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      ready;
  for (std::size_t id = 0; id < acts.size(); ++id) {
    if (indegree[id] == 0) ready.push(id);
  }
  std::vector<std::size_t> order;
  while (!ready.empty()) {
    const std::size_t id = ready.top();
    ready.pop();
    order.push_back(id);
    for (const std::size_t b : succ[id]) {
      if (--indegree[b] == 0) ready.push(b);
    }
  }
  return order;
}

/// A seeded recording of one interleaving: `actions` loads, stores and
/// RMWs by `threads` threads over `locations` multi-writer locations. A
/// load reads the latest version, except one in `stale_one_in` (0: none)
/// reads a random older one, which may close a cycle. `plant` appends a
/// store-buffering cycle on two extra locations.
Recording random_recording(std::uint64_t seed, std::size_t threads,
                           std::size_t locations, std::size_t actions,
                           std::uint64_t stale_one_in, bool plant) {
  Recording rec;
  rec.logs.resize(threads);
  std::vector<std::vector<std::uint64_t>> versions;  // payload per version
  const auto add_location = [&](std::uint64_t initial) {
    rec.locations.push_back({"l" + std::to_string(versions.size()), initial});
    versions.push_back({initial});
    return static_cast<int>(versions.size()) - 1;
  };
  for (std::size_t l = 0; l < locations; ++l) add_location(l % 2);
  const auto append = [&](std::size_t t, int l, MemAction::Kind kind,
                          std::uint64_t value, std::uint64_t rf) {
    MemAction a;
    a.thread = static_cast<ProcId>(t);
    a.seq = static_cast<std::uint32_t>(rec.logs[t].size());
    a.location = l;
    a.kind = kind;
    a.order = static_cast<std::uint8_t>(std::memory_order_seq_cst);
    a.value = value;
    a.rf = rf;
    auto& v = versions[static_cast<std::size_t>(l)];
    if (kind != kLoad) {
      v.push_back(value);
      a.mo = v.size() - 1;
    }
    rec.logs[t].push_back(a);
  };
  Rng rng(seed);
  for (std::size_t i = 0; i < actions; ++i) {
    const std::size_t t = rng.below(threads);
    const auto l = static_cast<int>(rng.below(locations));
    const auto& v = versions[static_cast<std::size_t>(l)];
    const std::uint64_t latest = v.size() - 1;
    switch (rng.below(3)) {
      case 0: {
        const bool stale = stale_one_in != 0 && rng.below(stale_one_in) == 0;
        const std::uint64_t rf = stale ? rng.below(v.size()) : latest;
        append(t, l, kLoad, v[rf], rf);
        break;
      }
      case 1: append(t, l, kStore, rng.below(4), 0); break;
      default: append(t, l, kRmw, rng.below(4), latest); break;
    }
  }
  if (plant) {  // A: W x; R y (initial)   B: W y; R x (initial)
    const int x = add_location(0), y = add_location(0);
    const std::size_t a = rng.below(threads);
    const std::size_t b = (a + 1 + rng.below(threads - 1)) % threads;
    append(a, x, kStore, 1, 0);
    append(b, y, kStore, 1, 0);
    append(a, y, kLoad, 0, 0);
    append(b, x, kLoad, 0, 0);
  }
  return rec;
}

/// check_sc's verdict and order must equal the reference's.
void expect_matches_reference(const Recording& rec, std::size_t* sc,
                              std::size_t* cyclic) {
  const std::vector<std::size_t> expect = reference_order(rec);
  const bool acyclic = expect.size() == rec.total_actions();
  const SCResult res = check_sc(rec);
  ASSERT_TRUE(res.well_formed) << res.witness;
  ASSERT_EQ(res.sc, acyclic) << res.witness;
  if (acyclic) {
    EXPECT_TRUE(res.coherent) << res.witness;
    EXPECT_EQ(res.order, expect);
    ++*sc;
  } else {
    EXPECT_TRUE(res.order.empty());
    EXPECT_NE(res.witness.find("cycle closes here"), std::string::npos);
    ++*cyclic;
  }
}

TEST(WeakMemDifferential, SweepMatchesExplicitGraphKahn) {
  std::size_t sc = 0, cyclic = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng shape(seed * 0x9E3779B97F4A7C15ULL);
    const std::size_t threads = 2 + shape.below(7);  // 2..8
    const std::size_t locations = 1 + shape.below(4);
    const std::size_t actions = 1 + shape.below(160);
    constexpr std::uint64_t kStaleOneIn[] = {0, 40, 6};
    const std::uint64_t stale_one_in = kStaleOneIn[seed % 3];
    const bool plant = seed % 5 == 0;
    expect_matches_reference(random_recording(seed, threads, locations,
                                               actions, stale_one_in, plant),
                             &sc, &cyclic);
  }
  // Both verdicts must be well represented, or the comparison is weak.
  EXPECT_GE(sc, 60u);
  EXPECT_GE(cyclic, 60u);
}

TEST(WeakMemDifferential, SweepMatchesAtTheArtifactThreadCap) {
  std::size_t sc = 0, cyclic = 0;
  expect_matches_reference(
      random_recording(7, kMaxArtifactThreads, 3, 3 * kMaxArtifactThreads, 0,
                       false),
      &sc, &cyclic);
  expect_matches_reference(
      random_recording(8, kMaxArtifactThreads, 3, 3 * kMaxArtifactThreads, 0,
                       true),
      &sc, &cyclic);
  EXPECT_EQ(sc, 1u);
  EXPECT_EQ(cyclic, 1u);
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
