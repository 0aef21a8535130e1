#include "verify/weakmem/sc_checker.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <span>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

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
};

/// Per-location index: writers keyed by modification-order version.
struct LocationIndex {
  /// the write with version v, at writers[v-1]; the vector is dense
  /// because versions are validated contiguous 1..W.
  std::vector<const MemAction*> writers;
  /// loads[v] = the number of plain loads that observed version v, 0..W:
  /// the fr predecessors of the write of version v + 1.
  std::vector<std::size_t> loads;
};

std::string fail(const Recording& rec, const MemAction& a,
                 const char* reason) {
  return describe_action(rec, a) + ": " + reason;
}

/// Validates the log and the version bookkeeping the ordering relies on.
/// Returns the per-location writer index; on failure sets `witness`.
bool build_location_index(const Recording& rec,
                          std::vector<LocationIndex>& index,
                          std::string& witness) {
  index.assign(rec.locations.size(), {});
  // Count writes per location so version ranges can be validated. The
  // same pass checks log integrity: entry (t, i) must claim thread t and
  // seq i — loaded artifacts are untrusted input. A bad entry anywhere is
  // reported before the first out-of-range location.
  std::vector<std::size_t> writes(rec.locations.size(), 0);
  const MemAction* stray = nullptr;  // first action with a bad location
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    for (std::size_t i = 0; i < rec.logs[t].size(); ++i) {
      const MemAction& a = rec.logs[t][i];
      if (static_cast<std::size_t>(a.thread) != t ||
          static_cast<std::size_t>(a.seq) != i) {
        witness = fail(rec, a, "log entry thread/seq inconsistent");
        return false;
      }
      if (a.location < 0 ||
          static_cast<std::size_t>(a.location) >= rec.locations.size()) {
        if (stray == nullptr) stray = &a;
      } else if (a.kind != MemAction::Kind::kLoad) {
        ++writes[static_cast<std::size_t>(a.location)];
      }
    }
  }
  if (stray != nullptr) {
    witness = fail(rec, *stray, "location id out of range");
    return false;
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
      if (a.kind == MemAction::Kind::kRmw && a.rf + 1 != a.mo) {
        witness = fail(rec, a, "RMW not atomic: rf version + 1 != mo version");
        return false;
      }
    }
  }
  // Loads must return the value their rf write put there (or the initial
  // payload for rf = 0). With this, the sweep's order is a legal register
  // history on every location, so no history needs re-grading after it.
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
/// pop_lowest() removes the least member with two count-trailing-zero
/// steps per 4096 threads.
class ReadySet {
 public:
  explicit ReadySet(std::size_t threads)
      : words_((threads + 63) / 64, 0),
        summary_((words_.size() + 63) / 64, 0) {}

  void insert(std::size_t t) {
    words_[t / 64] |= bit(t);
    summary_[t / 4096] |= bit(t / 64);
  }
  std::size_t pop_lowest() {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      if (summary_[s] == 0) continue;
      const std::size_t w = s * 64 + std::countr_zero(summary_[s]);
      const std::size_t t = w * 64 + std::countr_zero(words_[w]);
      if ((words_[w] &= words_[w] - 1) == 0) summary_[s] &= ~bit(w);
      return t;
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
/// for the lowest ready thread. That search runs only on a switch: a
/// thread keeps emitting while its next head is ready and the emission
/// woke no lower-numbered thread, since readiness only grows and it is
/// then still the lowest ready one. Returns false iff the sweep stalls,
/// i.e. iff the graph has a cycle; `head[t]` is then the first of thread
/// t's actions left unordered.
bool sweep(const Recording& rec, const Ids& ids,
           std::vector<LocationIndex>& index, std::vector<std::size_t>& head,
           std::vector<std::size_t>& order) {
  struct Location {
    std::uint64_t emitted = 0;         ///< versions emitted so far
    std::size_t drainer = kNone;       ///< head write waiting on loads
    std::vector<std::size_t> waiting;  ///< [v]: first head waiting for v
  };
  const std::size_t threads = rec.logs.size();
  head.assign(threads, 0);
  std::vector<std::size_t> next_waiter(threads, kNone);
  std::vector<Location> locs(index.size());
  for (std::size_t l = 0; l < index.size(); ++l) {
    locs[l].waiting.assign(index[l].loads.size(), kNone);
  }
  ReadySet ready(threads);

  // Whether t's head is ready; if not, files it on the wake list or the
  // drain slot of the condition it lacks.
  const auto consider = [&](std::size_t t) {
    if (head[t] == rec.logs[t].size()) return false;
    const MemAction& a = rec.logs[t][head[t]];
    const auto l = static_cast<std::size_t>(a.location);
    Location& loc = locs[l];
    const std::uint64_t need =
        a.kind == MemAction::Kind::kLoad ? a.rf : a.mo - 1;
    if (loc.emitted < need) {
      next_waiter[t] = loc.waiting[need];
      loc.waiting[need] = t;
      return false;
    }
    if (a.kind != MemAction::Kind::kLoad && index[l].loads[need] > 0) {
      loc.drainer = t;
      return false;
    }
    return true;
  };
  std::size_t woken = kNone;  // least thread the last emission made ready
  const auto wake = [&](std::size_t w) {
    if (consider(w)) {
      ready.insert(w);
      woken = std::min(woken, w);
    }
  };

  for (std::size_t t = 0; t < threads; ++t) {
    if (consider(t)) ready.insert(t);
  }
  order.reserve(ids.size());
  // t, the lowest ready thread, stays out of `ready` while it emits.
  for (std::size_t t = ready.pop_lowest(); t != kNone;) {
    const MemAction& a = rec.logs[t][head[t]];
    const auto l = static_cast<std::size_t>(a.location);
    Location& loc = locs[l];
    order.push_back(ids.base[t] + head[t]);
    ++head[t];
    woken = kNone;
    if (a.kind == MemAction::Kind::kLoad) {
      if (--index[l].loads[a.rf] == 0 && a.rf == loc.emitted &&
          loc.drainer != kNone) {
        wake(std::exchange(loc.drainer, kNone));
      }
    } else {
      loc.emitted = a.mo;
      for (std::size_t w = loc.waiting[a.mo]; w != kNone;) {
        const std::size_t next = next_waiter[w];
        wake(w);
        w = next;
      }
    }
    if (consider(t)) {
      if (woken > t) continue;
      ready.insert(t);
    }
    t = ready.pop_lowest();
  }
  return order.size() == ids.size();
}

/// The sweep run backwards over what it left unordered: Kahn's sort of
/// the reversed relation, again without building it. Every unordered
/// action but a thread's last has a po successor, so only thread tails
/// can go, and an action goes once none of its successors is left: a
/// load of version v once the write of v + 1 is gone (its fr successor);
/// a write of v once the write of v + 1 is gone and every unordered load
/// of v is (its mo and rf successors). Writes on a location thus go in
/// decreasing version order, so one gone-from version per location and
/// `index[l].loads` (which the sweep left counting the unordered loads,
/// and which this consumes) track both conditions, and a blocked tail
/// waits on a wake list or a drain slot as in the sweep. What is left,
/// thread t's actions in [head[t], stop[t]), is the core: the actions
/// on a cycle or on a path into one. Costs O(m) for m unordered actions.
void peel(const Recording& rec, std::vector<LocationIndex>& index,
          const std::vector<std::size_t>& head,
          std::vector<std::size_t>& stop) {
  struct Location {
    std::uint64_t gone_from;           ///< least version peeled, W + 1 if none
    std::size_t drainer = kNone;       ///< tail write waiting on loads
    std::vector<std::size_t> waiting;  ///< [v]: first tail waiting for v + 1
  };
  const std::size_t threads = rec.logs.size();
  stop.resize(threads);
  for (std::size_t t = 0; t < threads; ++t) stop[t] = rec.logs[t].size();
  std::vector<std::size_t> next_waiter(threads, kNone);
  std::vector<Location> locs(index.size());
  for (std::size_t l = 0; l < index.size(); ++l) {
    locs[l].gone_from = index[l].writers.size() + 1;
    locs[l].waiting.assign(index[l].loads.size(), kNone);
  }
  std::vector<std::size_t> peelable;  // threads whose tail can go

  // Whether t's tail can go; if not, files it on the wake list or the
  // drain slot of the condition it lacks.
  const auto consider = [&](std::size_t t) {
    if (stop[t] == head[t]) return false;
    const MemAction& a = rec.logs[t][stop[t] - 1];
    const auto l = static_cast<std::size_t>(a.location);
    Location& loc = locs[l];
    const std::uint64_t v = a.kind == MemAction::Kind::kLoad ? a.rf : a.mo;
    if (loc.gone_from > v + 1) {
      next_waiter[t] = loc.waiting[v];
      loc.waiting[v] = t;
      return false;
    }
    if (a.kind != MemAction::Kind::kLoad && index[l].loads[v] > 0) {
      loc.drainer = t;
      return false;
    }
    return true;
  };
  const auto wake = [&](std::size_t w) {
    if (consider(w)) peelable.push_back(w);
  };

  for (std::size_t t = 0; t < threads; ++t) wake(t);
  while (!peelable.empty()) {
    const std::size_t t = peelable.back();
    peelable.pop_back();
    do {
      const MemAction& a = rec.logs[t][--stop[t]];
      const auto l = static_cast<std::size_t>(a.location);
      Location& loc = locs[l];
      if (a.kind == MemAction::Kind::kLoad) {
        if (--index[l].loads[a.rf] == 0 && a.rf + 1 == loc.gone_from &&
            loc.drainer != kNone) {
          wake(std::exchange(loc.drainer, kNone));
        }
      } else {
        loc.gone_from = a.mo;
        for (std::size_t w = loc.waiting[a.mo - 1]; w != kNone;) {
          const std::size_t next = next_waiter[w];
          wake(w);
          w = next;
        }
      }
    } while (consider(t));
  }
}

/// A dense id of a core action; also an edge offset.
using Node = std::uint32_t;
constexpr Node kNoNode = UINT32_MAX;

/// The core the peel left, thread t's actions in [head[t], stop[t]),
/// numbered densely in thread-major order. The numbering keeps the order
/// of global ids, so a witness built on it names the same cycle.
struct Dense {
  std::vector<Node> base;  ///< first id per thread, then the total
  const std::vector<std::size_t>& head;
  const std::vector<std::size_t>& stop;

  Dense(const std::vector<std::size_t>& head_at,
        const std::vector<std::size_t>& stop_at)
      : base(head_at.size() + 1, 0), head(head_at), stop(stop_at) {
    std::size_t total = 0;
    for (std::size_t t = 0; t < head.size(); ++t) {
      base[t] = static_cast<Node>(total);
      total += stop[t] - head[t];
      // At most three edges per action (see for_each_edge): every id and
      // every edge offset fits a Node.
      BPRC_REQUIRE(total <= (kNoNode - 1) / 3,
                   "too many core actions for a cycle witness");
    }
    base.back() = static_cast<Node>(total);
  }
  std::size_t size() const { return base.back(); }
  bool contains(const MemAction& a) const {
    const auto t = static_cast<std::size_t>(a.thread);
    return a.seq >= head[t] && a.seq < stop[t];
  }
  Node of(const MemAction& a) const {
    const auto t = static_cast<std::size_t>(a.thread);
    return base[t] + static_cast<Node>(a.seq - head[t]);
  }
  const MemAction& action(const Recording& rec, Node id) const {
    const auto t = static_cast<std::size_t>(
        std::upper_bound(base.begin(), base.end(), id) - base.begin() - 1);
    return rec.logs[t][head[t] + id - base[t]];
  }
};

/// Calls edge(a, b) for every po, rf, fr and mo edge between core actions,
/// by dense id. Every cycle lies in the core, and every path between two
/// actions of one cycle's component, so this subgraph has all the witness
/// needs; the edges it drops lead out of the core and lie on no cycle.
/// Each action is the head of at most three edges: po and rf and fr for
/// a load, po and rf and mo for an RMW (whose fr overwriter is itself),
/// po and mo for a store. The order is fixed: it decides which cycle edge
/// a witness reports and the path it prints.
template <class Edge>
void for_each_edge(const Recording& rec, const Dense& ids,
                   const std::vector<LocationIndex>& index, Edge&& edge) {
  // po: consecutive actions of one thread.
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    for (Node id = ids.base[t] + 1; id < ids.base[t + 1]; ++id) {
      edge(id - 1, id);
    }
  }
  for (std::size_t t = 0; t < rec.logs.size(); ++t) {
    Node id = ids.base[t];
    for (std::size_t i = ids.head[t]; i < ids.stop[t]; ++i, ++id) {
      const MemAction& a = rec.logs[t][i];
      const auto& writers = index[static_cast<std::size_t>(a.location)].writers;
      if (a.kind != MemAction::Kind::kStore) {
        // rf: the write this read observed precedes it.
        if (a.rf >= 1 && ids.contains(*writers[a.rf - 1])) {
          edge(ids.of(*writers[a.rf - 1]), id);
        }
        // fr: this read precedes the write that overwrote what it saw. For
        // an RMW that overwriter is the RMW itself — no edge.
        if (a.rf < writers.size() && writers[a.rf] != &a &&
            ids.contains(*writers[a.rf])) {
          edge(id, ids.of(*writers[a.rf]));
        }
      }
      if (a.kind != MemAction::Kind::kLoad && a.mo >= 2 &&
          ids.contains(*writers[a.mo - 2])) {
        // mo: version v-1 precedes version v.
        edge(ids.of(*writers[a.mo - 2]), id);
      }
    }
  }
}

/// The happens-before edges among the core actions as one flat CSR
/// array: the successors of a are succ[first[a] .. first[a + 1]), in
/// for_each_edge's order.
struct Graph {
  std::size_t n;
  const Node* first;
  const Node* succ;

  std::span<const Node> out(Node a) const {
    return {succ + first[a], first[a + 1] - first[a]};
  }
};

/// Strongly connected components (iterative Tarjan): comp[a] == comp[b]
/// iff a and b lie on a common cycle. `num` and `low` hold n entries,
/// `members` (Tarjan's stack) n and `calls` ((node, edge) frames) 2n.
void components(const Graph& g, Node* num, Node* low, Node* comp,
                Node* members, Node* calls) {
  std::fill_n(num, g.n, kNoNode);
  std::fill_n(comp, g.n, kNoNode);
  std::size_t depth = 0, stacked = 0;  // frames in calls, nodes in members
  Node next_num = 0, next_comp = 0;
  const auto visit = [&](Node v) {
    num[v] = low[v] = next_num++;
    members[stacked++] = v;
    calls[2 * depth] = v;
    calls[2 * depth + 1] = g.first[v];
    ++depth;
  };
  for (Node root = 0; root < g.n; ++root) {
    if (num[root] != kNoNode) continue;
    visit(root);
    while (depth > 0) {
      const Node v = calls[2 * depth - 2];
      const Node e = calls[2 * depth - 1];
      if (e < g.first[v + 1]) {
        ++calls[2 * depth - 1];
        const Node w = g.succ[e];
        if (num[w] == kNoNode) {
          visit(w);
        } else if (comp[w] == kNoNode) {  // w is still on Tarjan's stack
          low[v] = std::min(low[v], num[w]);
        }
        continue;
      }
      if (--depth > 0) {
        const Node u = calls[2 * depth - 2];
        low[u] = std::min(low[u], low[v]);
      }
      if (low[v] == num[v]) {
        Node w;
        do {
          w = members[--stacked];
          comp[w] = next_comp;
        } while (w != v);
        ++next_comp;
      }
    }
  }
}

/// Finds a path from ⇝ to (BFS over the edge graph) for the cycle witness.
/// `parent` and `queue` hold n entries.
std::vector<Node> find_path(const Graph& g, Node from, Node to, Node* parent,
                            Node* queue) {
  std::fill_n(parent, g.n, kNoNode);
  parent[from] = from;
  std::size_t head = 0, tail = 0;
  queue[tail++] = from;
  while (head < tail) {
    const Node id = queue[head++];
    if (id == to) break;
    for (const Node succ : g.out(id)) {
      if (parent[succ] == kNoNode) {
        parent[succ] = id;
        queue[tail++] = succ;
      }
    }
  }
  std::vector<Node> path;
  for (Node id = to;; id = parent[id]) {
    path.push_back(id);
    if (id == from || parent[id] == kNoNode) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// Describes the happens-before cycle closed by the first edge a→b, in
/// (a, edge) order, whose endpoints share a strongly connected component:
/// b ⇝ a, so a→b closes a cycle and no SC total order explains the run.
/// The graph spans the core the peel leaves of the actions unordered
/// from `head` on; its CSR array, Tarjan and BFS share one scratch
/// allocation sized to the core. The peel drops only actions in trivial
/// components, and every action on a path into a cycle stays, so the
/// least-id action on a cycle, its first in-component edge and the BFS
/// path are those the whole unordered region would give.
std::string cycle_witness(const Recording& rec,
                          std::vector<LocationIndex>& index,
                          const std::vector<std::size_t>& head) {
  std::vector<std::size_t> stop;
  peel(rec, index, head, stop);
  const Dense ids(head, stop);
  const std::size_t n = ids.size();
  const auto scratch = std::make_unique_for_overwrite<Node[]>(10 * n + 1);
  Node* const first = scratch.get();    // n + 1
  Node* const succ = first + n + 1;     // up to 3n edges
  Node* const num = succ + 3 * n;       // n; the BFS parent after Tarjan
  Node* const low = num + n;            // n; the BFS queue after Tarjan
  Node* const comp = low + n;           // n
  Node* const members = comp + n;       // n
  Node* const calls = members + n;      // 2n

  // Two passes: count out-degrees, then fill.
  std::fill_n(first, n + 1, 0);
  for_each_edge(rec, ids, index, [&](Node a, Node) { ++first[a + 1]; });
  for (std::size_t a = 0; a < n; ++a) first[a + 1] += first[a];
  BPRC_REQUIRE(first[n] <= 3 * n, "more edges than the witness bound");
  std::copy_n(first, n, num);  // fill cursors
  for_each_edge(rec, ids, index, [&](Node a, Node b) { succ[num[a]++] = b; });
  const Graph g{n, first, succ};

  components(g, num, low, comp, members, calls);
  for (Node a = 0; a < n; ++a) {
    for (const Node b : g.out(a)) {
      if (a == b || comp[a] != comp[b]) continue;
      std::ostringstream witness;
      witness << "non-SC execution: happens-before cycle\n";
      for (const Node id : find_path(g, b, a, num, low)) {
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
    result.well_formed = result.sc = true;
    return result;
  }

  std::vector<LocationIndex> index;
  if (!build_location_index(rec, index, result.witness)) {
    return result;
  }
  result.well_formed = true;

  std::vector<std::size_t> head;
  if (!sweep(rec, ids, index, head, result.order)) {
    // A stall leaves actions unordered exactly when po ∪ rf ∪ mo ∪ fr has
    // a cycle; only then is the edge graph built, on the cycle's core, to
    // name it.
    result.order = {};
    result.witness = cycle_witness(rec, index, head);
    return result;
  }
  result.sc = true;
  return result;
}

}  // namespace bprc::weakmem
