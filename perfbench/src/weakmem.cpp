#include "weakmem.hpp"

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "verify/linearizability.hpp"
#include "verify/weakmem/sc_checker.hpp"

namespace pb {

using bprc::MemAction;
using bprc::weakmem::Recording;
using bprc::weakmem::SCResult;

namespace {

/// Rounds per thread: 4 threads × 1430 rounds × 7 actions ≈ 40k actions,
/// where the checker's quadratic per-location cost dominates its wall.
constexpr int kRounds = 1430;

/// Recordings graded per batch. Exactly one of them is planted, at a
/// seeded index, so every batch weighs the same.
constexpr int kBatch = 4;

/// Bound of the counter-walk location's ±1 walk (NativeBoundedCounter's
/// bound in the native lane's counter-walk case).
constexpr std::int64_t kCounterBound = 8;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001B3ULL;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0x9E3779B97F4A7C15ULL);
  return bprc::splitmix64(state);
}

struct Batch {
  std::vector<Recording> recordings;
  std::vector<bool> planted;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  std::uint64_t actions = 0;
};

Batch make_batch(std::uint64_t seed, std::uint64_t index) {
  Batch batch;
  const std::uint64_t batch_seed = mix(seed, index);
  const auto planted_at = static_cast<int>(batch_seed % kBatch);
  for (int i = 0; i < kBatch; ++i) {
    const bool planted = i == planted_at;
    batch.recordings.push_back(generate_recording(
        mix(batch_seed, static_cast<std::uint64_t>(i) + 1), kRounds, planted));
    batch.planted.push_back(planted);
    batch.digest = fnv(batch.digest, recording_digest(batch.recordings.back()));
    batch.actions += batch.recordings.back().total_actions();
  }
  return batch;
}

/// The verdict a recording must get: SC unplanted, a cycle planted.
bool verdict_matches(const SCResult& result, bool planted) {
  return planted ? result.well_formed && !result.sc : result.ok();
}

}  // namespace

Recording generate_recording(std::uint64_t seed, int rounds, bool planted) {
  constexpr int n = kWeakmemThreads;
  constexpr int ctr = n;  // location id of the shared counter
  const std::uint64_t ops_per_thread =
      static_cast<std::uint64_t>(rounds) * kActionsPerRound;
  const std::uint64_t total = ops_per_thread * n;

  Recording rec;
  rec.case_name = planted ? "perfbench-sb-planted" : "perfbench-sc";
  for (int t = 0; t < n; ++t) {
    rec.locations.push_back({"slot" + std::to_string(t), 0});
  }
  rec.locations.push_back({"ctr", 0});
  rec.logs.resize(n);

  // versions[l][v] = payload of version v of location l (v = 0: initial).
  std::vector<std::vector<std::uint64_t>> versions(n + 1,
                                                   std::vector<std::uint64_t>{0});
  std::vector<std::uint64_t> pos(n, 0);
  std::vector<std::uint64_t> store_mo(n, 0);  // version of this round's store
  std::vector<int> active;
  for (int t = 0; t < n; ++t) active.push_back(t);
  bprc::Rng rng(seed);
  bprc::Rng plant_rng(seed ^ 0x5B5B5B5BULL);

  struct Plant {
    std::uint64_t trigger = ~std::uint64_t{0};
    int a = -1, b = -1;
    std::uint64_t rf = 0, value = 0;
    bool done = false;
  } plant;
  if (planted) plant.trigger = plant_rng.below(total / 2);

  for (std::uint64_t step = 0; step < total; ++step) {
    const std::size_t slot = rng.below(active.size());
    const int t = active[slot];
    const auto k = static_cast<int>(pos[t] % kActionsPerRound);
    const std::uint64_t round = pos[t] / kActionsPerRound;
    auto& log = rec.logs[static_cast<std::size_t>(t)];

    MemAction a;
    a.thread = t;
    a.seq = static_cast<std::uint32_t>(log.size());
    a.order = static_cast<std::uint8_t>(std::memory_order_seq_cst);
    if (k == 0) {  // scan-storm write of the thread's own slot
      a.location = t;
      a.kind = MemAction::Kind::kStore;
      a.value = (static_cast<std::uint64_t>(t + 1) << 32) | (round + 1);
      versions[t].push_back(a.value);
      a.mo = versions[t].size() - 1;
      store_mo[t] = a.mo;
    } else if (k <= n) {  // collect: read every slot
      const int j = k - 1;
      a.location = j;
      a.kind = MemAction::Kind::kLoad;
      a.rf = versions[j].size() - 1;
      a.value = versions[j].back();
      if (planted && plant.a < 0 && step >= plant.trigger && j != t &&
          pos[j] % kActionsPerRound == 0 && pos[j] < ops_per_thread) {
        // t (= A) has stored and now reads B's slot before B's next
        // store; B's coming read of A's slot will miss A's store.
        plant.a = t;
        plant.b = j;
        plant.rf = store_mo[t] - 1;
        plant.value = versions[t][plant.rf];
      } else if (plant.a >= 0 && !plant.done && t == plant.b &&
                 j == plant.a) {
        a.rf = plant.rf;
        a.value = plant.value;
        plant.done = true;
      }
    } else if (k == n + 1) {  // counter-walk ±1 step, clamped
      a.location = ctr;
      a.kind = MemAction::Kind::kRmw;
      a.rf = versions[ctr].size() - 1;
      const auto prev = static_cast<std::int64_t>(versions[ctr].back());
      std::int64_t next = prev + (rng.flip() ? 1 : -1);
      if (next > kCounterBound) next = kCounterBound;
      if (next < -kCounterBound) next = -kCounterBound;
      a.value = static_cast<std::uint64_t>(next);
      versions[ctr].push_back(a.value);
      a.mo = a.rf + 1;
    } else {  // counter read
      a.location = ctr;
      a.kind = MemAction::Kind::kLoad;
      a.rf = versions[ctr].size() - 1;
      a.value = versions[ctr].back();
    }
    log.push_back(a);
    if (++pos[t] == ops_per_thread) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(slot));
    }
  }
  BPRC_REQUIRE(!planted || plant.done, "weakmem generator failed to plant");
  return rec;
}

std::uint64_t recording_digest(const Recording& rec) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& loc : rec.locations) {
    for (const char c : loc.name) h = fnv(h, static_cast<unsigned char>(c));
    h = fnv(h, loc.initial);
  }
  for (const auto& log : rec.logs) {
    h = fnv(h, log.size());
    for (const MemAction& a : log) {
      h = fnv(h, static_cast<std::uint64_t>(a.thread));
      h = fnv(h, a.seq);
      h = fnv(h, static_cast<std::uint64_t>(a.location));
      h = fnv(h, static_cast<std::uint64_t>(a.kind));
      h = fnv(h, a.order);
      h = fnv(h, a.value);
      h = fnv(h, a.rf);
      h = fnv(h, a.mo);
    }
  }
  return h;
}

void run_weakmem(const Options& opt, Result& out) {
  std::vector<double> setup_s;
  Batch batch;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    Batch again = make_batch(opt.seed, 0);
    setup_s.push_back(seconds_since(t0));
    out.require(i == 0 || again.digest == batch.digest,
                "weakmem generator is not deterministic");
    batch = std::move(again);
  }

  std::vector<double> rates;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t index = 1;; ++index) {
    std::uint64_t check_ns = 0;
    for (std::size_t i = 0; i < batch.recordings.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const SCResult result = bprc::weakmem::check_sc(batch.recordings[i]);
      check_ns += ns_since(t0);
      ++out.attempted;
      if (!verdict_matches(result, batch.planted[i])) ++out.failed;
    }
    rates.push_back(static_cast<double>(batch.actions) /
                    (static_cast<double>(check_ns) * 1e-9));
    if (seconds_since(start) >= opt.seconds) break;
    batch = make_batch(opt.seed, index);
  }

  out.require(out.failed == 0, "weakmem verdicts differ from the planted flags");
  out.note("weakmem: " + std::to_string(rates.size()) + " batches of " +
           std::to_string(kBatch) + " recordings, " +
           std::to_string(batch.actions / kBatch) +
           " actions each, actions_per_s " + spread(rates));
  out.note("setup_s " + spread(setup_s));
  out.add("setup_s", median(setup_s), "s");
  out.add("work_per_s", median(rates), "1/s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

void trace_weakmem(const Options& opt, Result& out) {
  const Batch batch = make_batch(opt.seed, 0);

  std::vector<bool> verdicts;
  std::uint64_t untraced_ns = 0;
  for (std::size_t i = 0; i < batch.recordings.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    const SCResult result = bprc::weakmem::check_sc(batch.recordings[i]);
    untraced_ns += ns_since(t0);
    verdicts.push_back(result.ok());
    ++out.attempted;
    if (!verdict_matches(result, batch.planted[i])) ++out.failed;
  }

  // Traced pass: check_sc spanned per recording, then the Wing–Gong part
  // of it re-timed on the per-location histories its SC order implies.
  std::uint64_t traced_ns = 0, lin_ns = 0, lin_ops = 0;
  for (std::size_t i = 0; i < batch.recordings.size(); ++i) {
    const Recording& rec = batch.recordings[i];
    const Clock::time_point t0 = Clock::now();
    const SCResult result = bprc::weakmem::check_sc(rec);
    traced_ns += ns_since(t0);
    out.require(result.ok() == verdicts[i],
                "traced weakmem verdict differs from the untraced one");
    if (!result.sc) continue;

    // Same construction as check_sc: global ids are thread-major.
    std::vector<const MemAction*> flat;
    for (const auto& log : rec.logs) {
      for (const MemAction& a : log) flat.push_back(&a);
    }
    std::vector<std::vector<bprc::RegOp>> histories(rec.locations.size());
    for (std::size_t p = 0; p < result.order.size(); ++p) {
      const MemAction& a = *flat[result.order[p]];
      histories[static_cast<std::size_t>(a.location)].push_back(
          {a.kind != MemAction::Kind::kLoad, a.value, 2 * p, 2 * p + 1,
           a.thread});
    }
    const Clock::time_point t1 = Clock::now();
    for (std::size_t l = 0; l < histories.size(); ++l) {
      const bprc::LinResult lin = bprc::check_register_linearizable(
          histories[l], rec.locations[l].initial);
      out.require(lin.ok, "SC order not coherent in the lin re-check");
      lin_ops += histories[l].size();
    }
    lin_ns += ns_since(t1);
  }

  out.add("verify.lin_share",
          static_cast<double>(lin_ns) / static_cast<double>(traced_ns),
          "ratio");
  out.add("verify.lin_us_per_op",
          static_cast<double>(lin_ns) * 1e-3 / static_cast<double>(lin_ops),
          "us");
  out.add("verify.actions_per_recording",
          static_cast<double>(batch.actions) / kBatch, "count");
  out.add("trace.overhead_frac.weakmem",
          static_cast<double>(traced_ns) / static_cast<double>(untraced_ns) -
              1.0,
          "ratio");
  out.note("trace weakmem: check_sc " +
           std::to_string(static_cast<double>(untraced_ns) * 1e-9) +
           " s untraced, " +
           std::to_string(static_cast<double>(traced_ns) * 1e-9) +
           " s traced, Wing-Gong re-check " +
           std::to_string(static_cast<double>(lin_ns) * 1e-9) + " s");
}

}  // namespace pb
