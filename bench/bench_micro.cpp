// E9 — micro-benchmarks (google-benchmark) for the primitives no
// perfbench probe times: graph distance queries, token-game moves, bounded
// timestamp labels and coin flips. The fiber switch, simulator step,
// snapshot scan, make_graph, inc_counters and coin_value costs come from
// `python3 perfbench/run.py --trace 1` (perfbench/README.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "strip/distance_graph.hpp"
#include "strip/token_game.hpp"
#include "timestamp/bounded_timestamps.hpp"
#include "util/rng.hpp"

namespace bprc {
namespace {

void BM_GraphDist(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  TokenGame game(n, 2);
  for (int m = 0; m < 100; ++m) {
    game.move_token(static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
  }
  const DistanceGraph g = DistanceGraph::from_positions(game.positions(), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.dist(static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(n))),
                             0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GraphDist)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_TokenGameMove(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TokenGame game(n, 2);
  Rng rng(9);
  for (auto _ : state) {
    game.move_token(static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenGameMove)->Arg(8)->Arg(32);

void BM_BoundedTimestampNewLabel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BoundedTimestampSystem ts(n);
  Rng rng(13);
  std::vector<BoundedTimestampSystem::Label> labels(
      static_cast<std::size_t>(n), ts.initial_label());
  for (auto _ : state) {
    const auto fresh = ts.new_label(labels);
    labels[rng.below(static_cast<std::uint64_t>(n))] = fresh;
    benchmark::DoNotOptimize(labels);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundedTimestampNewLabel)->Arg(4)->Arg(16);

void BM_RngFlip(benchmark::State& state) {
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.flip());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngFlip);

}  // namespace
}  // namespace bprc

BENCHMARK_MAIN();
