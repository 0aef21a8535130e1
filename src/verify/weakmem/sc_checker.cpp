#include "verify/weakmem/sc_checker.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <span>
#include <sstream>
#include <utility>

#include "verify/linearizability.hpp"

namespace bprc::weakmem {

namespace {

const char* order_name(std::uint8_t order) {
  switch (static_cast<std::memory_order>(order)) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "?";
}

/// Global action ids are thread-major: id = base[thread] + seq.
struct Ids {
  std::vector<std::size_t> base;  ///< first id per thread, then the total

  explicit Ids(const Recording& rec) : base(rec.logs.size() + 1, 0) {
    for (std::size_t t = 0; t < rec.logs.size(); ++t) {
      base[t + 1] = base[t] + rec.logs[t].size();
    }
  }
  std::size_t size() const { return base.back(); }
  std::size_t of(const MemAction& a) const {
    return base[static_cast<std::size_t>(a.thread)] + a.seq;
  }
  const MemAction& action(const Recording& rec, std::size_t id) const {
    const auto t = static_cast<std::size_t>(
        std::upper_bound(base.begin(), base.end(), id) - base.begin() - 1);
    return rec.logs[t][id - base[t]];
  }
};

/// Per-location index: writers keyed by modification-order version.
struct LocationIndex {
  /// the write with version v, at writers[v-1]; the vector is dense
  /// because versions are validated contiguous 1..W.
  std::vector<const MemAction*> writers;
  /// loads[v] = the number of plain loads that observed version v, 0..W:
  /// the fr predecessors of the write of version v + 1.
  std::vector<std::size_t> loads;
  std::size_t actions = 0;  ///< loads, stores and RMWs on the location
};

std::string fail(const Recording& rec, const MemAction& a,
                 const char* reason) {
  return describe_action(rec, a) + ": " + reason;
}

/// Validates the version bookkeeping the ordering relies on. Returns the
/// per-location writer index; on failure sets `witness`.
bool build_location_index(const Recording& rec,
                          std::vector<LocationIndex>& index,
                          std::string& witness) {
  index.assign(rec.locations.size(), {});
  // Count writes per location so version ranges can be validated.
  std::vector<std::size_t> writes(rec.locations.size(), 0);
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) {
      if (a.location < 0 ||
          static_cast<std::size_t>(a.location) >= rec.locations.size()) {
        witness = fail(rec, a, "location id out of range");
        return false;
      }
      if (a.kind != MemAction::Kind::kLoad) {
        ++writes[static_cast<std::size_t>(a.location)];
      }
    }
  }
  for (std::size_t l = 0; l < index.size(); ++l) {
    index[l].writers.assign(writes[l], nullptr);
    index[l].loads.assign(writes[l] + 1, 0);
  }
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) {
      const auto l = static_cast<std::size_t>(a.location);
      if (a.kind != MemAction::Kind::kLoad) {
        if (a.mo == 0) {
          witness = fail(rec, a, "store was never flushed (mo version 0)");
          return false;
        }
        if (a.mo > index[l].writers.size()) {
          witness =
              fail(rec, a, "mo version exceeds the location's write count");
          return false;
        }
        if (index[l].writers[a.mo - 1] != nullptr) {
          witness = fail(rec, a, "duplicate mo version on one location");
          return false;
        }
        index[l].writers[a.mo - 1] = &a;
      }
      if (a.kind != MemAction::Kind::kStore) {
        if (a.rf > writes[l]) {
          witness =
              fail(rec, a, "rf version exceeds the location's write count");
          return false;
        }
      }
      if (a.kind == MemAction::Kind::kLoad) ++index[l].loads[a.rf];
      ++index[l].actions;
      if (a.kind == MemAction::Kind::kRmw && a.rf + 1 != a.mo) {
        witness = fail(rec, a, "RMW not atomic: rf version + 1 != mo version");
        return false;
      }
    }
  }
  // Loads must return the value their rf write put there (or the initial
  // payload for rf = 0) — a recorder-integrity check, independent of the
  // order analysis below.
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) {
      if (a.kind != MemAction::Kind::kLoad) continue;
      const auto l = static_cast<std::size_t>(a.location);
      const std::uint64_t expect =
          a.rf == 0 ? rec.locations[l].initial
                    : index[l].writers[a.rf - 1]->value;
      if (a.value != expect) {
        witness = fail(rec, a, "read value disagrees with its rf write");
        return false;
      }
    }
  }
  return true;
}

constexpr std::size_t kNone = SIZE_MAX;

/// The set of threads whose head action is ready, as a two-level bitset:
/// lowest() finds the least member with two count-trailing-zero steps
/// per 4096 threads.
class ReadySet {
 public:
  explicit ReadySet(std::size_t threads)
      : words_((threads + 63) / 64, 0),
        summary_((words_.size() + 63) / 64, 0) {}

  void insert(std::size_t t) {
    words_[t / 64] |= bit(t);
    summary_[t / 4096] |= bit(t / 64);
  }
  void erase(std::size_t t) {
    if ((words_[t / 64] &= ~bit(t)) == 0) summary_[t / 4096] &= ~bit(t / 64);
  }
  std::size_t lowest() const {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      if (summary_[s] == 0) continue;
      const std::size_t w = s * 64 + std::countr_zero(summary_[s]);
      return w * 64 + std::countr_zero(words_[w]);
    }
    return kNone;
  }

 private:
  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % 64);
  }

  std::vector<std::uint64_t> words_, summary_;
};

/// Orders the actions without building the edge graph: the same order a
/// smallest-id-first Kahn sort of po ∪ rf ∪ mo ∪ fr yields. Every action
/// but a thread's first has a po predecessor, so only thread heads can be
/// ready, and ids are thread-major, so the least ready id is the head of
/// the lowest-numbered ready thread. A load of version v is ready once v
/// is emitted; a write of version v once v - 1 is emitted (its rf and mo
/// predecessor) and every load of v - 1 is (its fr predecessors). Writes
/// on a location are emitted in version order, so one emitted-version
/// counter per location and `index[l].loads` (consumed here) track both.
///
/// A blocked head waits on the one condition it lacks: the version it
/// needs emitted (one wake list per version) or, for the write of the
/// next version, the loads of the current one drained (one slot per
/// location). Each head is examined when it becomes head and once per
/// wake, at most twice for a write, so a sweep is O(n) plus the search
/// for the lowest ready thread. Appends each location's RegOp history in
/// the same pass. Returns false iff the sweep stalls, i.e. iff the graph
/// has a cycle; `head[t]` is then the first of thread t's actions left
/// unordered.
bool sweep(const Recording& rec, const Ids& ids,
           std::vector<LocationIndex>& index, std::vector<std::size_t>& head,
           std::vector<std::size_t>& order,
           std::vector<std::vector<RegOp>>& histories) {
  struct Location {
    std::uint64_t emitted = 0;         ///< versions emitted so far
    std::size_t drainer = kNone;       ///< head write waiting on loads
    std::vector<std::size_t> waiting;  ///< [v]: first head waiting for v
  };
  const std::size_t threads = rec.logs.size();
  head.assign(threads, 0);
  std::vector<std::size_t> next_waiter(threads, kNone);
  std::vector<Location> locs(index.size());
  histories.resize(index.size());
  for (std::size_t l = 0; l < index.size(); ++l) {
    locs[l].waiting.assign(index[l].loads.size(), kNone);
    histories[l].reserve(index[l].actions);
  }
  ReadySet ready(threads);

  const auto consider = [&](std::size_t t) {
    if (head[t] == rec.logs[t].size()) return;
    const MemAction& a = rec.logs[t][head[t]];
    const auto l = static_cast<std::size_t>(a.location);
    Location& loc = locs[l];
    const std::uint64_t need =
        a.kind == MemAction::Kind::kLoad ? a.rf : a.mo - 1;
    if (loc.emitted < need) {
      next_waiter[t] = loc.waiting[need];
      loc.waiting[need] = t;
    } else if (a.kind != MemAction::Kind::kLoad && index[l].loads[need] > 0) {
      loc.drainer = t;
    } else {
      ready.insert(t);
    }
  };

  for (std::size_t t = 0; t < threads; ++t) consider(t);
  order.reserve(ids.size());
  for (std::size_t t; (t = ready.lowest()) != kNone;) {
    const MemAction& a = rec.logs[t][head[t]];
    const auto l = static_cast<std::size_t>(a.location);
    Location& loc = locs[l];
    const std::size_t pos = order.size();
    order.push_back(ids.base[t] + head[t]);
    histories[l].push_back({a.kind != MemAction::Kind::kLoad, a.value, 2 * pos,
                            2 * pos + 1, a.thread});
    ready.erase(t);
    ++head[t];
    if (a.kind == MemAction::Kind::kLoad) {
      if (--index[l].loads[a.rf] == 0 && a.rf == loc.emitted &&
          loc.drainer != kNone) {
        consider(std::exchange(loc.drainer, kNone));
      }
    } else {
      loc.emitted = a.mo;
      for (std::size_t w = loc.waiting[a.mo]; w != kNone;) {
        const std::size_t next = next_waiter[w];
        consider(w);
        w = next;
      }
    }
    consider(t);
  }
  return order.size() == ids.size();
}

/// The happens-before edges as one flat CSR array: the successors of
/// action a are succ[first[a] .. first[a + 1]), in emission order.
struct Graph {
  std::vector<std::size_t> first;
  std::vector<std::size_t> succ;

  std::size_t size() const { return first.size() - 1; }
  std::span<const std::size_t> out(std::size_t a) const {
    return {succ.data() + first[a], first[a + 1] - first[a]};
  }
};

/// Calls edge(a, b) for every po, rf, fr and mo edge between actions the
/// sweep left unordered: thread t's from seq `live[t]` on. An ordered
/// action lies on no cycle and no edge leads from an unordered action to
/// it, so this subgraph has every cycle and every path between unordered
/// actions. The order is fixed: it decides which cycle edge a witness
/// reports and the path it prints.
template <class Edge>
void for_each_edge(const Recording& rec, const Ids& ids,
                   const std::vector<LocationIndex>& index,
                   const std::vector<std::size_t>& live, Edge&& edge) {
  const auto unordered = [&](const MemAction& a) {
    return a.seq >= live[static_cast<std::size_t>(a.thread)];
  };
  // po: consecutive actions of one thread.
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    for (std::size_t i = live[t] + 1; i < rec.logs[t].size(); ++i) {
      edge(ids.base[t] + i - 1, ids.base[t] + i);
    }
  }
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    for (std::size_t i = live[t]; i < rec.logs[t].size(); ++i) {
      const MemAction& a = rec.logs[t][i];
      const std::size_t id = ids.base[t] + i;
      const auto& writers = index[static_cast<std::size_t>(a.location)].writers;
      if (a.kind != MemAction::Kind::kStore) {
        // rf: the write this read observed precedes it.
        if (a.rf >= 1 && unordered(*writers[a.rf - 1])) {
          edge(ids.of(*writers[a.rf - 1]), id);
        }
        // fr: this read precedes the write that overwrote what it saw. For
        // an RMW that overwriter is the RMW itself — no edge.
        if (a.rf < writers.size() && writers[a.rf] != &a) {
          edge(id, ids.of(*writers[a.rf]));
        }
      }
      if (a.kind != MemAction::Kind::kLoad && a.mo >= 2 &&
          unordered(*writers[a.mo - 2])) {
        // mo: version v-1 precedes version v.
        edge(ids.of(*writers[a.mo - 2]), id);
      }
    }
  }
}

/// Builds the CSR graph in two passes: count out-degrees, then fill.
Graph build_edges(const Recording& rec, const Ids& ids,
                  const std::vector<LocationIndex>& index,
                  const std::vector<std::size_t>& live) {
  const std::size_t n = ids.size();
  Graph g;
  g.first.assign(n + 1, 0);
  for_each_edge(rec, ids, index, live,
                [&](std::size_t a, std::size_t) { ++g.first[a + 1]; });
  for (std::size_t a = 0; a < n; ++a) g.first[a + 1] += g.first[a];
  g.succ.resize(g.first[n]);
  std::vector<std::size_t> fill(g.first.begin(), g.first.end() - 1);
  for_each_edge(rec, ids, index, live, [&](std::size_t a, std::size_t b) {
    g.succ[fill[a]++] = b;
  });
  return g;
}

/// Strongly connected components (iterative Tarjan): comp[a] == comp[b]
/// iff a and b lie on a common cycle.
std::vector<std::size_t> components(const Graph& g) {
  const std::size_t n = g.size();
  std::vector<std::size_t> index(n, kNone), low(n, 0), comp(n, kNone);
  std::vector<std::size_t> members;  // Tarjan's stack
  std::vector<std::pair<std::size_t, std::size_t>> calls;  // (node, edge)
  std::size_t next_index = 0, next_comp = 0;
  const auto visit = [&](std::size_t v) {
    index[v] = low[v] = next_index++;
    members.push_back(v);
    calls.emplace_back(v, g.first[v]);
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    visit(root);
    while (!calls.empty()) {
      const std::size_t v = calls.back().first;
      const std::size_t e = calls.back().second;
      if (e < g.first[v + 1]) {
        ++calls.back().second;
        const std::size_t w = g.succ[e];
        if (index[w] == kNone) {
          visit(w);
        } else if (comp[w] == kNone) {  // w is still on Tarjan's stack
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      calls.pop_back();
      if (!calls.empty()) {
        const std::size_t u = calls.back().first;
        low[u] = std::min(low[u], low[v]);
      }
      if (low[v] == index[v]) {
        std::size_t w;
        do {
          w = members.back();
          members.pop_back();
          comp[w] = next_comp;
        } while (w != v);
        ++next_comp;
      }
    }
  }
  return comp;
}

/// Finds a path b ⇝ a (BFS over the edge graph) for the cycle witness.
std::vector<std::size_t> find_path(const Graph& g, std::size_t from,
                                   std::size_t to) {
  std::vector<std::size_t> parent(g.size(), SIZE_MAX);
  std::deque<std::size_t> work{from};
  std::vector<bool> seen(g.size(), false);
  seen[from] = true;
  while (!work.empty()) {
    const std::size_t id = work.front();
    work.pop_front();
    if (id == to) break;
    for (const std::size_t succ : g.out(id)) {
      if (!seen[succ]) {
        seen[succ] = true;
        parent[succ] = id;
        work.push_back(succ);
      }
    }
  }
  std::vector<std::size_t> path;
  for (std::size_t id = to; id != SIZE_MAX; id = parent[id]) {
    path.push_back(id);
    if (id == from) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// Describes the happens-before cycle closed by the first edge a→b, in
/// (a, edge) order, whose endpoints share a strongly connected component:
/// b ⇝ a, so a→b closes a cycle and no SC total order explains the run.
std::string cycle_witness(const Recording& rec, const Ids& ids,
                          const Graph& g) {
  const std::vector<std::size_t> comp = components(g);
  for (std::size_t a = 0; a < g.size(); ++a) {
    for (const std::size_t b : g.out(a)) {
      if (a == b || comp[a] != comp[b]) continue;
      std::ostringstream witness;
      witness << "non-SC execution: happens-before cycle\n";
      for (const std::size_t id : find_path(g, b, a)) {
        witness << "  " << describe_action(rec, ids.action(rec, id)) << "\n";
      }
      witness << "  " << describe_action(rec, ids.action(rec, b))
              << "  <- cycle closes here";
      return witness.str();
    }
  }
  return "internal: the SC sweep stalled without a cycle";
}

}  // namespace

std::string describe_action(const Recording& rec, const MemAction& a) {
  std::ostringstream out;
  out << "T" << a.thread << "#" << a.seq << " ";
  switch (a.kind) {
    case MemAction::Kind::kLoad:  out << "R "; break;
    case MemAction::Kind::kStore: out << "W "; break;
    case MemAction::Kind::kRmw:   out << "RMW "; break;
  }
  if (a.location >= 0 &&
      static_cast<std::size_t>(a.location) < rec.locations.size()) {
    out << rec.locations[static_cast<std::size_t>(a.location)].name;
  } else {
    out << "loc" << a.location;
  }
  out << "=" << a.value;
  if (a.kind == MemAction::Kind::kLoad) {
    out << " rf@v" << a.rf;
  } else if (a.kind == MemAction::Kind::kStore) {
    out << " @v" << a.mo;
  } else {
    out << " rf@v" << a.rf << "->v" << a.mo;
  }
  out << " (" << order_name(a.order) << ")";
  return out.str();
}

SCResult check_sc(const Recording& rec) {
  SCResult result;
  const Ids ids(rec);
  if (ids.size() == 0) {
    result.well_formed = result.sc = result.coherent = true;
    return result;
  }

  // Log integrity: entry (t, i) must claim thread t and seq i — loaded
  // artifacts are untrusted input.
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    for (std::size_t i = 0; i < rec.logs[t].size(); ++i) {
      const MemAction& a = rec.logs[t][i];
      if (static_cast<std::size_t>(a.thread) != t ||
          static_cast<std::size_t>(a.seq) != i) {
        result.witness = fail(rec, a, "log entry thread/seq inconsistent");
        return result;
      }
    }
  }

  std::vector<LocationIndex> index;
  if (!build_location_index(rec, index, result.witness)) {
    return result;
  }
  result.well_formed = true;

  std::vector<std::size_t> head;
  std::vector<std::vector<RegOp>> histories;
  if (!sweep(rec, ids, index, head, result.order, histories)) {
    // A stall leaves actions unordered exactly when po ∪ rf ∪ mo ∪ fr has
    // a cycle; only then is the edge graph built, to name it.
    result.order = {};
    result.witness =
        cycle_witness(rec, ids, build_edges(rec, ids, index, head));
    return result;
  }
  result.sc = true;

  // Grade the SC order with the Wing–Gong checker, one sequential RegOp
  // history per location: every read must return the latest write.
  for (std::size_t l = 0; l < histories.size(); ++l) {
    const LinResult lin =
        check_register_linearizable(histories[l], rec.locations[l].initial);
    if (!lin.ok) {
      result.witness = "SC order not coherent on location " +
                       rec.locations[l].name + ": " + lin.witness;
      return result;
    }
  }
  result.coherent = true;
  return result;
}

}  // namespace bprc::weakmem
