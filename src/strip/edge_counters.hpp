// Concurrent bounded encoding of the distance graph (§4.3).
//
// The signed capped difference s(i,j) ∈ [−K, K] between two processes is
// represented by a pair of counters on a cycle of size 3K:
//
//     e_i[j], e_j[i] ∈ {0 .. 3K−1},
//
// where e_i[j] lives in process i's register (written only by i) and
// e_j[i] in j's. Decoding: let d = (e_i[j] − e_j[i]) mod 3K;
//
//     d ∈ {0..K}        ⇒  i leads j by d      (s(i,j) = +d)
//     3K−d ∈ {1..K}     ⇒  j leads i by 3K−d   (s(i,j) = −(3K−d))
//     otherwise         ⇒  corrupt (protocol invariant violation).
//
// Because a process only ever increments its counter while trailing or
// while leading by < K (inc_counters below), honest executions keep the
// clockwise gap between the two pointers within {0..K} from the leader's
// side; the cycle size 3K (not 2K+1) leaves the slack the concurrent
// protocol needs when increments are computed from snapshot views.
//
// The counters are pure data (they travel inside the scannable-memory
// record); the functions here are the pure encode/decode/transition logic
// shared by the consensus protocol and the tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "strip/distance_graph.hpp"
#include "util/assert.hpp"
#include "util/small_vector.hpp"

namespace bprc {

/// One process's row of edge counters: entry j is e_self[j] ∈ {0..3K−1}.
/// Entry self is unused and stays 0. Inline up to n = 16 (every process
/// count the benches use); wider rows spill to the heap.
using EdgeCounters = SmallVector<std::uint8_t, 16>;

/// The cycle the paper pays for at strip constant K (see the header
/// comment for why it is 3K and not the information-theoretic 2K+1).
/// Callers running a swept SpaceBudget pass their own cycle instead.
inline int default_edge_cycle(int K) { return 3 * K; }

/// The all-zero initial row (everyone tied).
inline EdgeCounters initial_edge_counters(int n) {
  return EdgeCounters(static_cast<std::size_t>(n), 0);
}

/// Decodes the capped signed difference r_i − r_j from the two counters
/// on a cycle of the given size. Any cycle ≥ 2K+1 decodes unambiguously
/// (the BPRC_REQUIRE makes smaller, aliasing cycles unrepresentable —
/// under-provisioned budgets run on a safe physical cycle and latch the
/// declared deficit instead, consensus/bprc.cpp). Returns nullopt if the
/// pair is not a valid encoding (which honest executions never produce;
/// the consensus protocol asserts on it).
inline std::optional<int> decode_edge(std::uint8_t e_ij, std::uint8_t e_ji,
                                      int K, int cycle) {
  BPRC_REQUIRE(cycle > 2 * K, "edge cycle must exceed 2K to decode");
  BPRC_REQUIRE(e_ij < cycle && e_ji < cycle, "edge counter out of cycle");
  const int d = (static_cast<int>(e_ij) - static_cast<int>(e_ji) + cycle) %
                cycle;
  if (d <= K) return d;            // i leads (or tie at 0)
  if (cycle - d <= K) return -(cycle - d);  // j leads
  return std::nullopt;
}

inline std::optional<int> decode_edge(std::uint8_t e_ij, std::uint8_t e_ji,
                                      int K) {
  return decode_edge(e_ij, e_ji, K, default_edge_cycle(K));
}

/// Builds the distance graph from a snapshot view of every process's edge
/// counters (§4.3 `make_graph`). `rows[i][j]` = e_i[j].
inline DistanceGraph make_graph(const std::vector<EdgeCounters>& rows, int K,
                                int cycle) {
  const int n = static_cast<int>(rows.size());
  DistanceGraph g(n, K);
  for (int i = 0; i < n; ++i) {
    BPRC_REQUIRE(static_cast<int>(rows[static_cast<std::size_t>(i)].size()) ==
                     n,
                 "edge counter row has wrong width");
    for (int j = i + 1; j < n; ++j) {
      const auto s = decode_edge(
          rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
          rows[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)], K,
          cycle);
      BPRC_REQUIRE(s.has_value(),
                   "scanned edge counters decode to no valid difference");
      g.set_signed_diff(i, j, *s);
    }
  }
  return g;
}

inline DistanceGraph make_graph(const std::vector<EdgeCounters>& rows,
                                int K) {
  return make_graph(rows, K, default_edge_cycle(K));
}

/// §4.3 `inc_graph`, the counter-level transition for process i moving up
/// one round: for each j, increment e_i[j] (mod 3K) iff
///   * i leads j by < K (extend the lead), or
///   * j leads i along a tight edge (close the gap).
/// `g` must be the graph decoded from the same snapshot as `row` (process
/// i's own row, which only i writes, so its local copy is current).
/// `dists` is caller scratch for the all-pairs path values, reused across
/// calls so a round's increment allocates nothing.
inline void inc_counters(int i, const DistanceGraph& g, EdgeCounters& row,
                         int cycle, std::vector<int>& dists) {
  const int K = g.K();
  BPRC_REQUIRE(cycle > 2 * K, "edge cycle must exceed 2K to increment");
  const int n = g.nprocs();
  g.all_dists_into(dists);  // one FW for all tight checks
  const std::vector<int>& d = dists;
  for (int j = 0; j < n; ++j) {
    if (j == i) continue;
    const int s = g.signed_diff(i, j);
    const bool extend = s >= 0 && s < K;
    const bool catch_up =
        s < 0 && -s == d[static_cast<std::size_t>(j) *
                             static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(i)];
    if (extend || catch_up) {
      auto& e = row[static_cast<std::size_t>(j)];
      e = static_cast<std::uint8_t>((e + 1) % cycle);
    }
  }
}

inline void inc_counters(int i, const DistanceGraph& g, EdgeCounters& row,
                         int cycle) {
  std::vector<int> dists;
  inc_counters(i, g, row, cycle, dists);
}

inline void inc_counters(int i, const DistanceGraph& g, EdgeCounters& row) {
  inc_counters(i, g, row, default_edge_cycle(g.K()));
}

}  // namespace bprc
