#include "strip/distance_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bprc {

namespace {
constexpr int kNoPath = -1;
}

DistanceGraph::DistanceGraph(int n, int K)
    : n_(n),
      k_(K),
      s_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0) {
  BPRC_REQUIRE(n >= 1, "distance graph needs at least one node");
  BPRC_REQUIRE(K >= 1 && K <= 127, "K must fit the int8 capped difference");
}

DistanceGraph DistanceGraph::from_positions(
    const std::vector<std::int64_t>& pos, int K) {
  DistanceGraph g(static_cast<int>(pos.size()), K);
  for (int i = 0; i < g.n_; ++i) {
    for (int j = 0; j < g.n_; ++j) {
      const std::int64_t diff = pos[static_cast<std::size_t>(i)] -
                                pos[static_cast<std::size_t>(j)];
      const std::int64_t capped =
          std::clamp<std::int64_t>(diff, -K, K);
      g.s_[g.idx(i, j)] = static_cast<std::int8_t>(capped);
    }
  }
  return g;
}

void DistanceGraph::check_ids(int i, int j) const {
  BPRC_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_,
               "node id out of range");
}

int DistanceGraph::signed_diff(int i, int j) const {
  check_ids(i, j);
  return s_[idx(i, j)];
}

int DistanceGraph::weight(int i, int j) const {
  const int s = signed_diff(i, j);
  BPRC_REQUIRE(s >= 0, "weight() requires the edge (i,j) to exist");
  return s;
}

void DistanceGraph::set_signed_diff(int i, int j, int s) {
  check_ids(i, j);
  BPRC_REQUIRE(i != j, "diagonal of the difference matrix is fixed at 0");
  BPRC_REQUIRE(s >= -k_ && s <= k_, "capped difference out of [-K, K]");
  s_[idx(i, j)] = static_cast<std::int8_t>(s);
  s_[idx(j, i)] = static_cast<std::int8_t>(-s);
}

int DistanceGraph::dist(int i, int j) const {
  check_ids(i, j);
  const std::vector<int> d = all_dists();
  return d[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(j)];
}

std::vector<int> DistanceGraph::all_dists() const {
  std::vector<int> d;
  all_dists_into(d);
  return d;
}

void DistanceGraph::all_dists_into(std::vector<int>& d) const {
  // Max-plus Floyd–Warshall over the edge weights. No positive cycles
  // (property 2), so simple-path maxima equal walk maxima and the closure
  // is well-defined. n is small (≤ 64); O(n³) is fine at this call rate.
  const std::size_t n = static_cast<std::size_t>(n_);
  d.assign(n * n, kNoPath);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const std::int8_t s = s_[a * n + b];
      if (a == b) {
        d[a * n + b] = 0;
      } else if (s >= 0) {
        d[a * n + b] = s;
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t a = 0; a < n; ++a) {
      const int dak = d[a * n + k];
      if (dak == kNoPath) continue;
      for (std::size_t b = 0; b < n; ++b) {
        const int dkb = d[k * n + b];
        if (dkb == kNoPath) continue;
        d[a * n + b] = std::max(d[a * n + b], dak + dkb);
      }
    }
  }
}

bool DistanceGraph::edge_is_tight(int i, int j) const {
  const int s = signed_diff(i, j);
  if (s < 0) return false;
  return s == dist(i, j);
}

bool DistanceGraph::is_leader(int i) const {
  for (int j = 0; j < n_; ++j) {
    if (signed_diff(i, j) < 0) return false;
  }
  return true;
}

void DistanceGraph::inc(int i) {
  check_ids(i, i);
  // All tightness checks must use the pre-move graph; one Floyd–Warshall
  // serves every edge. Collect the new row first, then install it.
  const std::vector<int> d = all_dists();
  std::vector<std::int8_t> new_row(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j) {
    if (j == i) continue;
    const int s = signed_diff(i, j);
    int next = s;
    if (s >= 0) {
      next = std::min(s + 1, k_);  // extend the lead, capped at K
    } else if (-s == d[static_cast<std::size_t>(j) *
                           static_cast<std::size_t>(n_) +
                       static_cast<std::size_t>(i)]) {
      next = s + 1;  // tight gap (w(j,i) == dist(j,i)): close it by one
    }
    // else: slack edge (j leads by more than K); the cap stays at -K.
    new_row[static_cast<std::size_t>(j)] = static_cast<std::int8_t>(next);
  }
  for (int j = 0; j < n_; ++j) {
    if (j == i) continue;
    set_signed_diff(i, j, new_row[static_cast<std::size_t>(j)]);
  }
}

std::vector<std::vector<int>> DistanceGraph::matrix() const {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(n_),
                                    std::vector<int>(static_cast<std::size_t>(n_), 0));
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      out[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          s_[idx(i, j)];
    }
  }
  return out;
}

}  // namespace bprc
