#include "verify/weakmem/sc_checker.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <queue>
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

/// The flattened view of a recording: global ids are thread-major, so
/// id = base[thread] + seq, which makes (thread, seq) → id arithmetic.
struct Flat {
  std::vector<const MemAction*> actions;  ///< by global id
  std::vector<std::size_t> base;          ///< first global id per thread

  std::size_t id_of(ProcId thread, std::uint32_t seq) const {
    return base[static_cast<std::size_t>(thread)] + seq;
  }
};

Flat flatten(const Recording& rec) {
  Flat flat;
  flat.base.resize(rec.logs.size());
  std::size_t next = 0;
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    flat.base[t] = next;
    next += rec.logs[t].size();
  }
  flat.actions.reserve(next);
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) flat.actions.push_back(&a);
  }
  return flat;
}

/// Per-location index: writers keyed by modification-order version.
struct LocationIndex {
  /// global id of the write with version v, at writers[v-1]; the vector
  /// is dense because versions are validated contiguous 1..W.
  std::vector<std::size_t> writers;
};

std::string fail(const Recording& rec, const MemAction& a,
                 const char* reason) {
  return describe_action(rec, a) + ": " + reason;
}

/// Validates the version bookkeeping the edge construction relies on.
/// Returns the per-location writer index; on failure sets `witness`.
bool build_location_index(const Recording& rec, const Flat& flat,
                          std::vector<LocationIndex>& index,
                          std::string& witness) {
  index.assign(rec.locations.size(), {});
  // Count writes per location so version ranges can be validated.
  std::vector<std::size_t> writes(rec.locations.size(), 0);
  for (const MemAction* a : flat.actions) {
    if (a->location < 0 ||
        static_cast<std::size_t>(a->location) >= rec.locations.size()) {
      witness = fail(rec, *a, "location id out of range");
      return false;
    }
    if (a->kind != MemAction::Kind::kLoad) {
      ++writes[static_cast<std::size_t>(a->location)];
    }
  }
  for (std::size_t l = 0; l < index.size(); ++l) {
    index[l].writers.assign(writes[l], SIZE_MAX);
  }
  for (std::size_t id = 0; id < flat.actions.size(); ++id) {
    const MemAction& a = *flat.actions[id];
    const auto l = static_cast<std::size_t>(a.location);
    if (a.kind != MemAction::Kind::kLoad) {
      if (a.mo == 0) {
        witness = fail(rec, a, "store was never flushed (mo version 0)");
        return false;
      }
      if (a.mo > index[l].writers.size()) {
        witness = fail(rec, a, "mo version exceeds the location's write count");
        return false;
      }
      if (index[l].writers[a.mo - 1] != SIZE_MAX) {
        witness = fail(rec, a, "duplicate mo version on one location");
        return false;
      }
      index[l].writers[a.mo - 1] = id;
    }
    if (a.kind != MemAction::Kind::kStore) {
      if (a.rf > writes[l]) {
        witness = fail(rec, a, "rf version exceeds the location's write count");
        return false;
      }
    }
    if (a.kind == MemAction::Kind::kRmw && a.rf + 1 != a.mo) {
      witness = fail(rec, a, "RMW not atomic: rf version + 1 != mo version");
      return false;
    }
  }
  // Reads must return the value their rf write put there (or the initial
  // payload for rf = 0) — a recorder-integrity check, independent of the
  // order analysis below.
  for (const MemAction* a : flat.actions) {
    if (a->kind == MemAction::Kind::kStore) continue;
    const auto l = static_cast<std::size_t>(a->location);
    const std::uint64_t expect =
        a->rf == 0 ? rec.locations[l].initial
                   : flat.actions[index[l].writers[a->rf - 1]]->value;
    if (a->kind == MemAction::Kind::kLoad && a->value != expect) {
      witness = fail(rec, *a, "read value disagrees with its rf write");
      return false;
    }
  }
  return true;
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

/// Calls edge(a, b) for every po, rf, fr and mo edge. The order is fixed:
/// it decides which cycle edge a witness reports and the path it prints.
template <class Edge>
void for_each_edge(const Recording& rec, const Flat& flat,
                   const std::vector<LocationIndex>& index, Edge&& edge) {
  // po: consecutive actions of one thread.
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    for (std::size_t i = 1; i < rec.logs[t].size(); ++i) {
      edge(flat.base[t] + i - 1, flat.base[t] + i);
    }
  }
  for (std::size_t id = 0; id < flat.actions.size(); ++id) {
    const MemAction& a = *flat.actions[id];
    const auto& writers = index[static_cast<std::size_t>(a.location)].writers;
    if (a.kind != MemAction::Kind::kStore) {
      // rf: the write this read observed precedes it.
      if (a.rf >= 1) edge(writers[a.rf - 1], id);
      // fr: this read precedes the write that overwrote what it saw. For
      // an RMW that overwriter is the RMW itself — no edge.
      if (a.rf < writers.size() && writers[a.rf] != id) {
        edge(id, writers[a.rf]);
      }
    }
    if (a.kind != MemAction::Kind::kLoad && a.mo >= 2) {
      // mo: version v-1 precedes version v.
      edge(writers[a.mo - 2], id);
    }
  }
}

/// Builds the CSR graph in two passes: count out-degrees, then fill.
Graph build_edges(const Recording& rec, const Flat& flat,
                  const std::vector<LocationIndex>& index) {
  const std::size_t n = flat.actions.size();
  Graph g;
  g.first.assign(n + 1, 0);
  for_each_edge(rec, flat, index,
                [&](std::size_t a, std::size_t) { ++g.first[a + 1]; });
  for (std::size_t a = 0; a < n; ++a) g.first[a + 1] += g.first[a];
  g.succ.resize(g.first[n]);
  std::vector<std::size_t> fill(g.first.begin(), g.first.end() - 1);
  for_each_edge(rec, flat, index, [&](std::size_t a, std::size_t b) {
    g.succ[fill[a]++] = b;
  });
  return g;
}

/// Deterministic topological sort (Kahn, smallest global id first). The
/// result covers every action iff the graph is acyclic.
std::vector<std::size_t> topological_order(const Graph& g) {
  std::vector<std::size_t> indegree(g.size(), 0);
  for (const std::size_t b : g.succ) ++indegree[b];
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      ready;
  for (std::size_t id = 0; id < g.size(); ++id) {
    if (indegree[id] == 0) ready.push(id);
  }
  std::vector<std::size_t> order;
  order.reserve(g.size());
  while (!ready.empty()) {
    const std::size_t id = ready.top();
    ready.pop();
    order.push_back(id);
    for (const std::size_t succ : g.out(id)) {
      if (--indegree[succ] == 0) ready.push(succ);
    }
  }
  return order;
}

/// Strongly connected components (iterative Tarjan): comp[a] == comp[b]
/// iff a and b lie on a common cycle.
std::vector<std::size_t> components(const Graph& g) {
  constexpr std::size_t kNone = SIZE_MAX;
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
std::string cycle_witness(const Recording& rec, const Flat& flat,
                          const Graph& g) {
  const std::vector<std::size_t> comp = components(g);
  for (std::size_t a = 0; a < g.size(); ++a) {
    for (const std::size_t b : g.out(a)) {
      if (a == b || comp[a] != comp[b]) continue;
      std::ostringstream witness;
      witness << "non-SC execution: happens-before cycle\n";
      for (const std::size_t id : find_path(g, b, a)) {
        witness << "  " << describe_action(rec, *flat.actions[id]) << "\n";
      }
      witness << "  " << describe_action(rec, *flat.actions[b])
              << "  <- cycle closes here";
      return witness.str();
    }
  }
  return "internal: topological sort incomplete";
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
  const Flat flat = flatten(rec);
  if (flat.actions.empty()) {
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
  if (!build_location_index(rec, flat, index, result.witness)) {
    return result;
  }
  result.well_formed = true;

  const Graph g = build_edges(rec, flat, index);
  // The sort stalls, leaving actions unordered, exactly when
  // po ∪ rf ∪ mo ∪ fr has a cycle.
  std::vector<std::size_t> order = topological_order(g);
  if (order.size() != flat.actions.size()) {
    result.witness = cycle_witness(rec, flat, g);
    return result;
  }
  result.sc = true;
  result.order = std::move(order);

  // Feed the SC order through the Wing–Gong checker, one sequential
  // RegOp history per location: every read must return the latest write.
  std::vector<std::vector<RegOp>> histories(rec.locations.size());
  for (std::size_t pos = 0; pos < result.order.size(); ++pos) {
    const MemAction& a = *flat.actions[result.order[pos]];
    RegOp op;
    op.is_write = a.kind != MemAction::Kind::kLoad;
    op.value = a.value;
    op.inv = 2 * pos;
    op.res = 2 * pos + 1;
    op.proc = a.thread;
    histories[static_cast<std::size_t>(a.location)].push_back(op);
  }
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
