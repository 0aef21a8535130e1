// The distance graph G(S) of the token game (§4.2).
//
// Nodes are processes; there is an edge (i,j) whenever r_i ≥ r_j, with
// weight w(i,j) = min(r_i − r_j, K). Internally the graph is one
// antisymmetric matrix of K-capped signed differences
//
//     s(i,j) = clamp(r_i − r_j, −K, +K),      s(i,j) = −s(j,i),
//
// which encodes both edge directions and both weights (property 1 of the
// paper: both edges exist iff both weights are 0 iff s = 0).
//
// Key facts the implementation relies on (validated by the Claim 4.1
// property tests against the sequential TokenGame):
//
//  * dist(i,j), the maximum weight of a simple path i→j, equals the exact
//    shrunken difference r_i − r_j whenever r_i ≥ r_j: consecutive gaps in
//    a shrunken multiset are ≤ K, so the descending chain through the
//    intermediate tokens is an uncapped (tight) path (property 5). There
//    are no positive cycles, so max-plus Floyd–Warshall computes it.
//
//  * the paper's inc(i,G) condition "(j,i) ∈ max_paths(k,i) for some k"
//    collapses to "w(j,i) == dist(j,i)" — the direct edge is itself a max
//    path. (If the direct edge underestimates, prepending it to any k→j
//    max path also underestimates, and vice versa.) An edge with
//    w(j,i)=K < dist(j,i) is "slack": j's real lead exceeds K, so i
//    moving up one round must NOT reduce the stored cap.
//
// inc(i) — the effect of move_token_i on G (Claim 4.1):
//    for every j ≠ i:
//      s(i,j) ≥ 0 (i ahead or tied): extend the lead, capped at K;
//      s(i,j) < 0 (j ahead):         close the gap by 1 iff the edge is
//                                    tight, else leave the cap at −K.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace bprc {

class DistanceGraph {
 public:
  /// The all-tied initial state (every token at the same position).
  DistanceGraph(int n, int K);

  /// Builds G(S) from (shrunken normalized) token positions.
  static DistanceGraph from_positions(const std::vector<std::int64_t>& pos,
                                      int K);

  int nprocs() const { return n_; }
  int K() const { return k_; }

  /// Edge (i,j) ∈ E  ⟺  r_i ≥ r_j.
  bool has_edge(int i, int j) const { return signed_diff(i, j) >= 0; }

  /// w(i,j) = min(r_i − r_j, K); caller must ensure has_edge(i,j).
  int weight(int i, int j) const;

  /// The K-capped signed difference s(i,j) ∈ [−K, K].
  int signed_diff(int i, int j) const;

  /// Max-weight path value i→j (= exact shrunken difference when r_i≥r_j);
  /// −1 when no path exists (i strictly behind j).
  int dist(int i, int j) const;

  /// All-pairs max-weight path values (row-major n×n, −1 = no path): one
  /// Floyd–Warshall instead of n of them — the hot path of inc().
  std::vector<int> all_dists() const;
  /// all_dists() into a caller buffer (resized to n×n; no allocation once
  /// it has held an n×n matrix).
  void all_dists_into(std::vector<int>& d) const;

  /// True iff the direct edge (i,j) attains dist(i,j) — the paper's
  /// "∃k: (i,j) ∈ max_paths(k,j)" condition.
  bool edge_is_tight(int i, int j) const;

  /// i is a leader iff (i,j) ∈ E for every j (token at the maximum).
  bool is_leader(int i) const;

  /// Applies the abstract inc(i, G) transformation (token i moves up 1).
  void inc(int i);

  /// Direct mutator used by the edge-counter decoder (§4.3) when
  /// reconstructing a graph from scanned counters.
  void set_signed_diff(int i, int j, int s);

  /// Back to the all-tied state, keeping n and K: the in-place equivalent
  /// of reconstructing, for decoders that rebuild the graph every scan.
  void reset_tied() { std::fill(s_.begin(), s_.end(), 0); }

  friend bool operator==(const DistanceGraph& a, const DistanceGraph& b) {
    return a.n_ == b.n_ && a.k_ == b.k_ && a.s_ == b.s_;
  }

  /// Human-readable matrix dump for test failure messages.
  std::vector<std::vector<int>> matrix() const;

 private:
  std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(j);
  }
  void check_ids(int i, int j) const;

  int n_;
  int k_;
  std::vector<std::int8_t> s_;  ///< antisymmetric capped-difference matrix
};

}  // namespace bprc
