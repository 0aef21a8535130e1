// Per-layer micro-probes: each times one layer's public entry point in
// isolation, on inputs read at run time, so that the traced run can
// report a cost per call next to the workload passes.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "coin/coin_logic.hpp"
#include "explore/seen_cache.hpp"
#include "runtime/fiber.hpp"
#include "runtime/sim_runtime.hpp"
#include "snapshot/scannable_memory.hpp"
#include "strip/edge_counters.hpp"
#include "util/rng.hpp"
#include "util/space_budget.hpp"

namespace pb {

namespace {

/// Keeps a computed value observable so the timed loop is not removed.
std::uint64_t g_sink = 0;

/// ns per switch: a fiber that yields `rounds` times costs 2·rounds
/// switches (resume in, yield out).
double ctx_switch_ns() {
  constexpr int kRounds = 2'000'000;
  bprc::Fiber* self = nullptr;
  bprc::Fiber fiber([&self] {
    for (int i = 0; i < kRounds; ++i) self->yield();
  });
  self = &fiber;
  const Clock::time_point t0 = Clock::now();
  while (!fiber.finished()) fiber.resume();
  return static_cast<double>(ns_since(t0)) / (2.0 * kRounds);
}

/// ns per ScannableMemory::scan_into by a solo scanner in the simulator,
/// checkpoint cost of its register reads included.
double scan_ns(int n) {
  constexpr int kScans = 20'000;
  bprc::SimRuntime rt(n, std::make_unique<bprc::RoundRobinAdversary>(), 1);
  bprc::ScannableMemory<std::uint64_t> mem(rt, 0);
  rt.spawn(0, [&mem] {
    std::vector<std::uint64_t> view;
    for (int i = 0; i < kScans; ++i) {
      mem.scan_into(view);
      g_sink += view.back();
    }
  });
  const Clock::time_point t0 = Clock::now();
  rt.run(~std::uint64_t{0});
  return static_cast<double>(ns_since(t0)) / kScans;
}

double coin_value_ns(int n) {
  constexpr int kCalls = 2'000'000;
  const bprc::CoinParams params = bprc::CoinParams::standard(n);
  std::vector<std::int64_t> counters(static_cast<std::size_t>(n), 0);
  bprc::Rng rng(7);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    const auto self = static_cast<std::size_t>(i % n);
    counters[self] = bprc::walk_step(counters[self], rng.flip(), params);
    g_sink += static_cast<std::uint64_t>(
        bprc::coin_value(counters, static_cast<int>(self), params));
  }
  return static_cast<double>(ns_since(t0)) / kCalls;
}

/// Rows of a valid edge-counter configuration: process i has advanced
/// min(i, K) rounds past everyone it leads (a staircase of leads).
std::vector<bprc::EdgeCounters> staircase_rows(int n, int K) {
  std::vector<bprc::EdgeCounters> rows(static_cast<std::size_t>(n),
                                       bprc::initial_edge_counters(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) {
      rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>(std::min(i - j, K));
    }
  }
  return rows;
}

double make_graph_ns(int n) {
  constexpr int kCalls = 200'000;
  const int K = bprc::SpaceBudget{}.K;
  const std::vector<bprc::EdgeCounters> rows = staircase_rows(n, K);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    const bprc::DistanceGraph g = bprc::make_graph(rows, K);
    g_sink += static_cast<std::uint64_t>(g.signed_diff(0, n - 1));
  }
  return static_cast<double>(ns_since(t0)) / kCalls;
}

double inc_counters_ns(int n) {
  constexpr int kCalls = 200'000;
  const int K = bprc::SpaceBudget{}.K;
  const bprc::DistanceGraph g = bprc::make_graph(staircase_rows(n, K), K);
  bprc::EdgeCounters row = bprc::initial_edge_counters(n);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    bprc::inc_counters(0, g, row);
    g_sink += row[1];
  }
  return static_cast<double>(ns_since(t0)) / kCalls;
}

/// ns per SeenCache::visit at `entries` states: each key is inserted
/// once (kNew) and visited again at the same depth (kMerged).
double cache_visit_ns(std::uint64_t entries) {
  bprc::explore::SeenCache cache(bprc::explore::SeenCache::Layout::kCompact);
  std::vector<std::uint64_t> keys(entries);
  std::uint64_t state = 0x5EED;
  for (std::uint64_t& k : keys) {
    k = bprc::splitmix64(state) | 1;  // never the reserved zero key
  }
  const Clock::time_point t0 = Clock::now();
  for (const std::uint64_t k : keys) {
    g_sink += static_cast<std::uint64_t>(cache.visit(k, 3));
  }
  for (const std::uint64_t k : keys) {
    g_sink += static_cast<std::uint64_t>(cache.visit(k, 3));
  }
  return static_cast<double>(ns_since(t0)) / (2.0 * static_cast<double>(entries));
}

}  // namespace

void trace_probes(std::uint64_t cache_entries, Result& out) {
  out.add("runtime.ctx_switch_ns", ctx_switch_ns(), "ns");
  out.add("snapshot.scan_ns.n3", scan_ns(3), "ns");
  out.add("snapshot.scan_ns.n8", scan_ns(8), "ns");
  out.add("coin.value_ns.n8", coin_value_ns(8), "ns");
  out.add("strip.make_graph_ns.n3", make_graph_ns(3), "ns");
  out.add("strip.make_graph_ns.n8", make_graph_ns(8), "ns");
  out.add("strip.inc_counters_ns.n8", inc_counters_ns(8), "ns");
  out.add("explore.cache_visit_ns", cache_visit_ns(cache_entries), "ns");
  // Reading the sink keeps the timed loops' results observable.
  out.note("probe checksum " + std::to_string(g_sink & 0xFF));
}

}  // namespace pb
