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
#include "sc_order_oracle.hpp"

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

TEST(WeakMem, LoadRejectsAMismatchedLocationCount) {
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  const int y = rec.on_location("y", 0);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, y, kLoad, 0, 0, 0);
  act(rec, 1, y, kStore, 1, 0, 1);
  act(rec, 1, x, kLoad, 0, 0, 0);
  const std::string path = testing::TempDir() + "weakmem_locations.bprc-weakmem";
  ASSERT_TRUE(save_recording(rec.recording(), path));
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  // The mismatch is only known at `end`, the record's last line.
  const std::string end_line =
      "line " + std::to_string(std::count(text.begin(), text.end(), '\n')) +
      ":";
  for (const char* count : {"locations 7", "locations 1", "locations 0"}) {
    SCOPED_TRACE(count);
    std::string edited = text;
    const std::size_t at = edited.find("\nlocations 2\n");
    ASSERT_NE(at, std::string::npos);
    edited.replace(at + 1, std::string("locations 2").size(), count);
    {
      std::ofstream out(path, std::ios::binary);
      out << edited;
    }
    std::string err;
    EXPECT_FALSE(load_recording(path, &err).has_value());
    EXPECT_NE(err.find(end_line), std::string::npos) << err;
    EXPECT_NE(err.find("locations line"), std::string::npos) << err;
  }
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
  // loads and RMWs by four threads. The location's history is as long
  // as the recording, so neither the cycle check nor the Wing–Gong
  // second opinion on the order may recurse once per action.
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
  EXPECT_TRUE(sc_order_linearizable(rec.recording(), res.order));

  // One final read of the initial value closes a cycle through the whole
  // history.
  act(rec, 0, x, kLoad, 0, 0, 0);
  const SCResult stale = check_sc(rec.recording());
  EXPECT_TRUE(stale.well_formed);
  EXPECT_FALSE(stale.sc);
  EXPECT_NE(stale.witness.find("cycle closes here"), std::string::npos);
}

// ---- differential test against an explicit-graph reference ------------

/// Every po, rf, mo and fr edge listed explicitly over thread-major ids,
/// each action's successors in the checker's enumeration order: all po
/// edges first, then each action's rf, fr and mo edges in id order.
struct ExplicitGraph {
  std::vector<const MemAction*> acts;
  std::vector<std::vector<std::size_t>> succ;
};

ExplicitGraph explicit_graph(const Recording& rec) {
  ExplicitGraph g;
  std::map<std::pair<int, std::uint64_t>, std::size_t> writer;  // (loc, v)
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) {
      if (a.kind != kLoad) writer[{a.location, a.mo}] = g.acts.size();
      g.acts.push_back(&a);
    }
  }
  const std::size_t n = g.acts.size();
  g.succ.resize(n);
  for (std::size_t id = 1; id < n; ++id) {
    if (g.acts[id]->seq > 0) g.succ[id - 1].push_back(id);  // po
  }
  for (std::size_t id = 0; id < n; ++id) {
    const MemAction& a = *g.acts[id];
    if (a.kind != kStore) {
      if (a.rf > 0) g.succ[writer.at({a.location, a.rf})].push_back(id);  // rf
      const auto over = writer.find({a.location, a.rf + 1});              // fr
      if (over != writer.end() && over->second != id) {
        g.succ[id].push_back(over->second);
      }
    }
    if (a.kind != kLoad && a.mo > 1) {
      g.succ[writer.at({a.location, a.mo - 1})].push_back(id);  // mo
    }
  }
  return g;
}

/// The reference order: Kahn's sort of the explicit graph taking the
/// smallest ready thread-major id first. It orders every action iff
/// po ∪ rf ∪ mo ∪ fr is acyclic.
std::vector<std::size_t> reference_order(const Recording& rec) {
  const ExplicitGraph g = explicit_graph(rec);
  std::vector<std::size_t> indegree(g.acts.size(), 0);
  for (const auto& out : g.succ) {
    for (const std::size_t b : out) ++indegree[b];
  }
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      ready;
  for (std::size_t id = 0; id < g.acts.size(); ++id) {
    if (indegree[id] == 0) ready.push(id);
  }
  std::vector<std::size_t> order;
  while (!ready.empty()) {
    const std::size_t id = ready.top();
    ready.pop();
    order.push_back(id);
    for (const std::size_t b : g.succ[id]) {
      if (--indegree[b] == 0) ready.push(b);
    }
  }
  return order;
}

/// The reference cycle witness, over the whole explicit graph: a plain
/// recursive Tarjan, then the first edge a→b (by a, then edge order)
/// inside one component and a BFS path b ⇝ a.
std::string reference_witness(const Recording& rec) {
  const ExplicitGraph g = explicit_graph(rec);
  const std::vector<const MemAction*>& acts = g.acts;
  const std::vector<std::vector<std::size_t>>& succ = g.succ;
  const std::size_t n = acts.size();

  constexpr std::size_t kUnset = SIZE_MAX;
  std::vector<std::size_t> num(n, kUnset), low(n, 0), comp(n, kUnset);
  std::vector<std::size_t> stack;
  std::size_t next_num = 0, next_comp = 0;
  std::function<void(std::size_t)> strong = [&](std::size_t v) {
    num[v] = low[v] = next_num++;
    stack.push_back(v);
    for (const std::size_t w : succ[v]) {
      if (num[w] == kUnset) {
        strong(w);
        low[v] = std::min(low[v], low[w]);
      } else if (comp[w] == kUnset) {
        low[v] = std::min(low[v], num[w]);
      }
    }
    if (low[v] != num[v]) return;
    std::size_t w;
    do {
      w = stack.back();
      stack.pop_back();
      comp[w] = next_comp;
    } while (w != v);
    ++next_comp;
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (num[v] == kUnset) strong(v);
  }

  for (std::size_t a = 0; a < n; ++a) {
    for (const std::size_t b : succ[a]) {
      if (a == b || comp[a] != comp[b]) continue;
      std::vector<std::size_t> parent(n, kUnset);
      std::queue<std::size_t> work;
      parent[b] = b;
      work.push(b);
      while (parent[a] == kUnset) {
        const std::size_t v = work.front();
        work.pop();
        for (const std::size_t w : succ[v]) {
          if (parent[w] == kUnset) {
            parent[w] = v;
            work.push(w);
          }
        }
      }
      std::vector<std::size_t> path{a};
      while (path.back() != b) path.push_back(parent[path.back()]);
      std::string out = "non-SC execution: happens-before cycle\n";
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        out += "  " + describe_action(rec, *acts[*it]) + "\n";
      }
      return out + "  " + describe_action(rec, *acts[b]) +
             "  <- cycle closes here";
    }
  }
  return "no cycle";
}

/// A seeded recording of one interleaving: `actions` loads, stores and
/// RMWs by `threads` threads over `locations` multi-writer locations. A
/// load reads the latest version, except one in `stale_one_in` (0: none)
/// reads a random older one, which may close a cycle. For each p in
/// `plants`, a store-buffering cycle on two extra locations is planted
/// before the p-th action (p == actions: after the last); the traffic
/// after it also runs over those locations.
Recording random_recording(std::uint64_t seed, std::size_t threads,
                           std::size_t locations, std::size_t actions,
                           std::uint64_t stale_one_in,
                           const std::vector<std::size_t>& plants = {}) {
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
  const auto plant_due = [&](std::size_t i) {
    for (const std::size_t p : plants) {
      if (p != i) continue;
      // A: W x; R y (initial)   B: W y; R x (initial)
      const int x = add_location(0), y = add_location(0);
      const std::size_t a = rng.below(threads);
      const std::size_t b = (a + 1 + rng.below(threads - 1)) % threads;
      append(a, x, kStore, 1, 0);
      append(b, y, kStore, 1, 0);
      append(a, y, kLoad, 0, 0);
      append(b, x, kLoad, 0, 0);
    }
  };
  for (std::size_t i = 0; i < actions; ++i) {
    plant_due(i);
    const std::size_t t = rng.below(threads);
    const auto l = static_cast<int>(rng.below(versions.size()));
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
  plant_due(actions);
  return rec;
}

/// check_sc's verdict and order, or witness, must equal the reference's.
void expect_matches_reference(const Recording& rec, std::size_t* sc,
                              std::size_t* cyclic) {
  const std::vector<std::size_t> expect = reference_order(rec);
  const bool acyclic = expect.size() == rec.total_actions();
  const SCResult res = check_sc(rec);
  ASSERT_TRUE(res.well_formed) << res.witness;
  ASSERT_EQ(res.sc, acyclic) << res.witness;
  if (acyclic) {
    EXPECT_EQ(res.order, expect);
    EXPECT_TRUE(sc_order_linearizable(rec, res.order));
    ++*sc;
  } else {
    EXPECT_TRUE(res.order.empty());
    EXPECT_EQ(res.witness, reference_witness(rec));
    ++*cyclic;
  }
}

// Seeds 1–240 plant their cycle, if any, at the end of the logs. Seeds
// 241–360 plant one or two mid-log, the second at or after the first,
// so most of the recording is left unordered behind a cycle and the
// checker peels it before building its witness graph; the witness must
// still name the reference's least-id cycle, edge and path.
TEST(WeakMemDifferential, SweepMatchesExplicitGraphKahn) {
  std::size_t sc = 0, cyclic = 0;
  for (std::uint64_t seed = 1; seed <= 360; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng shape(seed * 0x9E3779B97F4A7C15ULL);
    const std::size_t threads = 2 + shape.below(7);  // 2..8
    const std::size_t locations = 1 + shape.below(4);
    const std::size_t actions = 1 + shape.below(160);
    constexpr std::uint64_t kStaleOneIn[] = {0, 40, 6};
    const std::uint64_t stale_one_in = kStaleOneIn[seed % 3];
    std::vector<std::size_t> plants;
    if (seed > 240) {
      plants.push_back(shape.below(actions / 2 + 1));
      if (seed % 2 == 0) {
        plants.push_back(plants[0] + shape.below(actions - plants[0] + 1));
      }
    } else if (seed % 5 == 0) {
      plants.push_back(actions);
    }
    expect_matches_reference(random_recording(seed, threads, locations,
                                               actions, stale_one_in, plants),
                             &sc, &cyclic);
  }
  // Both verdicts must be well represented, or the comparison is weak:
  // at least 60 of each among seeds 1–240, and all 120 mid-log plants.
  EXPECT_GE(sc, 60u);
  EXPECT_GE(cyclic, 60u + 120u);
}

TEST(WeakMemDifferential, SweepMatchesAtTheArtifactThreadCap) {
  std::size_t sc = 0, cyclic = 0;
  expect_matches_reference(
      random_recording(7, kMaxArtifactThreads, 3, 3 * kMaxArtifactThreads, 0),
      &sc, &cyclic);
  expect_matches_reference(
      random_recording(8, kMaxArtifactThreads, 3, 3 * kMaxArtifactThreads, 0,
                       {3 * kMaxArtifactThreads}),
      &sc, &cyclic);
  EXPECT_EQ(sc, 1u);
  EXPECT_EQ(cyclic, 1u);
}

// A few thousand actions with the cycle in the first tenth, so the peel
// has long chains to remove. The reference Tarjan recurses once per
// action on a path, so the recording stays this small.
TEST(WeakMemDifferential, WitnessMatchesWithTheCycleEarlyInALongRecording) {
  std::size_t sc = 0, cyclic = 0;
  for (const std::uint64_t stale_one_in : {0, 40}) {
    SCOPED_TRACE("stale one in " + std::to_string(stale_one_in));
    expect_matches_reference(
        random_recording(11 + stale_one_in, 6, 4, 3000, stale_one_in, {250}),
        &sc, &cyclic);
  }
  EXPECT_EQ(sc, 0u);
  EXPECT_EQ(cyclic, 2u);
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
