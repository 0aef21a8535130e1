// Shared plumbing for the experiment harnesses (bench/bench_*.cpp).
//
// Every harness runs with no arguments in seconds on a single laptop core
// and prints fixed-width tables; BPRC_SCALE multiplies the Monte-Carlo
// trial counts for higher-fidelity runs, BPRC_JOBS sets the worker-thread
// count for the Monte-Carlo cells (default: hardware concurrency).
// EXPERIMENTS.md is regenerated from exactly this output — run_cells
// delivers outcomes in trial order, so the tables are byte-identical at
// every BPRC_JOBS level.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "consensus/abrahamson.hpp"
#include "consensus/aspnes_herlihy.hpp"
#include "consensus/bprc.hpp"
#include "consensus/driver.hpp"
#include "consensus/strong_coin.hpp"
#include "engine/adversaries.hpp"
#include "engine/executor.hpp"
#include "engine/trial.hpp"
#include "runtime/adversary.hpp"
#include "util/env.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace bprc::bench {

/// Per-cell seed derivation for sweep harnesses: a splitmix64 chain over
/// (cell_id, trial). Affine maps with small multipliers (the old
/// `seed * 977 + 5`) alias across cells — cell (a, trial t) can land on
/// the same adversary seed as cell (b, trial u) whenever
/// a*977 + t = b*977 + u — silently correlating supposedly independent
/// Monte-Carlo columns. Hashing both coordinates through splitmix64
/// decorrelates every (cell, trial) pair.
inline std::uint64_t cell_seed(std::uint64_t cell_id, std::uint64_t trial) {
  std::uint64_t s = cell_id;
  std::uint64_t mixed = splitmix64(s);  // advance by cell id
  s = mixed ^ (trial * 0x9E3779B97F4A7C15ULL);
  return splitmix64(s);
}

/// Cell id for (n, adversary-name) sweep cells: FNV-1a over the name,
/// mixed with n. Feed the result to cell_seed.
inline std::uint64_t sweep_cell(int n, const std::string& adversary) {
  return fnv_mix_bytes(kFnvOffset, adversary) ^
         (static_cast<std::uint64_t>(n) << 1);
}

inline ProtocolFactory bprc_factory(int n, int K = 2, int b = 4) {
  return [n, K, b](Runtime& rt) {
    return std::make_unique<BPRCConsensus>(rt, BPRCParams::standard(n, K, b));
  };
}

inline ProtocolFactory bprc_factory_params(BPRCParams params) {
  return [params](Runtime& rt) {
    return std::make_unique<BPRCConsensus>(rt, params);
  };
}

inline ProtocolFactory ah_factory(int n, int b = 4) {
  return [n, b](Runtime& rt) {
    return std::make_unique<AspnesHerlihyConsensus>(
        rt, CoinParams::standard(n, b));
  };
}

inline ProtocolFactory local_coin_factory() {
  return [](Runtime& rt) { return std::make_unique<LocalCoinConsensus>(rt); };
}

inline ProtocolFactory strong_factory(std::uint64_t coin_seed) {
  return [coin_seed](Runtime& rt) {
    return std::make_unique<StrongCoinConsensus>(rt, coin_seed);
  };
}

/// Adversary factory keyed by name, freshly seeded per run. Forwards to
/// the engine registry (engine/adversaries.hpp) — the one name→adversary
/// mapping the whole repo shares; BPRC_REQUIRE on unknown names.
inline std::unique_ptr<Adversary> make_adversary(const std::string& name,
                                                 std::uint64_t seed) {
  return engine::make_adversary(name, seed);
}

/// Worker threads for the Monte-Carlo cells: BPRC_JOBS if set (>= 1),
/// else hardware concurrency. BPRC_JOBS=1 is the exact serial path; a
/// value above engine::kMaxJobs aborts, like a malformed one.
inline unsigned bench_jobs() {
  const std::int64_t v = env_int("BPRC_JOBS", 0);
  if (v > engine::kMaxJobs) {
    std::fprintf(stderr, "BPRC_JOBS=%lld exceeds the ceiling of %u\n",
                 static_cast<long long>(v), engine::kMaxJobs);
    std::fflush(stderr);
    std::abort();
  }
  return v >= 1 ? static_cast<unsigned>(v) : engine::default_jobs();
}

/// Engine-backed Monte-Carlo cell runner — the one trial loop every
/// bench_* harness uses. Executes `trials` independent trials (indices
/// 0..trials-1) across an engine::TrialExecutor worker pool and delivers
/// each outcome to `grade` strictly in trial order, so every
/// Samples/Proportion fold — and therefore every printed table — is
/// byte-identical at any BPRC_JOBS level.
///
/// `execute` runs on a worker thread: it may use the worker's pinned
/// SimReuse (or build its own SimRuntime) but must not touch shared
/// mutable state. `grade` runs single-threaded.
template <typename Outcome>
inline void run_cells(
    std::uint64_t trials,
    const std::function<Outcome(std::uint64_t, SimReuse&)>& execute,
    const std::function<void(std::uint64_t, Outcome&&)>& grade,
    unsigned jobs = 0) {
  engine::TrialExecutor executor({jobs == 0 ? bench_jobs() : jobs, 0});
  std::uint64_t generated = 0;
  executor.run_ordered<std::uint64_t, Outcome>(
      [&]() -> std::optional<std::uint64_t> {
        if (generated >= trials) return std::nullopt;
        return generated++;
      },
      execute,
      [&grade](std::size_t, const std::uint64_t& trial, Outcome&& out) {
        grade(trial, std::move(out));
        return true;
      });
}

/// Split inputs 0,1,0,1,... — the hardest input pattern.
inline std::vector<int> split_inputs(int n) {
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) inputs[static_cast<std::size_t>(i)] = i % 2;
  return inputs;
}

inline constexpr std::uint64_t kRunBudget = 400'000'000;

}  // namespace bprc::bench
