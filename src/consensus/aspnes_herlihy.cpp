#include "consensus/aspnes_herlihy.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "util/assert.hpp"
#include "util/latch_max.hpp"

namespace bprc {

std::int64_t AHRecord::coin(std::int64_t r) const {
  const auto it = std::lower_bound(
      coins.begin(), coins.end(), r,
      [](const AHRoundCoin& c, std::int64_t v) { return c.round < v; });
  return it != coins.end() && it->round == r ? it->counter : 0;
}

AspnesHerlihyConsensus::AspnesHerlihyConsensus(Runtime& rt, CoinParams coin,
                                               int trail)
    : rt_(rt),
      coin_(coin),
      trail_(trail),
      mem_(rt, AHRecord{}),
      decisions_(static_cast<std::size_t>(coin.n), -1),
      decision_rounds_(static_cast<std::size_t>(coin.n), 0) {
  BPRC_REQUIRE(coin_.n == rt.nprocs(),
               "params sized for a different process count");
  BPRC_REQUIRE(trail_ >= 2, "decide distance must be at least 2");
}

void AspnesHerlihyConsensus::track(const AHRecord& rec) {
  latch_max(max_round_, rec.round);
  for (const AHRoundCoin& c : rec.coins) {
    latch_max(max_counter_, c.counter < 0 ? -c.counter : c.counter);
  }
}

int AspnesHerlihyConsensus::propose(int input) {
  BPRC_REQUIRE(input == 0 || input == 1, "input must be a bit");
  const ProcId me = rt_.self();
  const int n = coin_.n;
  const std::int64_t barrier = static_cast<std::int64_t>(coin_.b) * n;

  AHRecord rec;
  rec.pref = static_cast<std::int8_t>(input);
  rec.round = 1;

  auto publish = [&](int walk_delta, bool decided) {
    Hint hint;
    hint.round = static_cast<std::int32_t>(std::min<std::int64_t>(
        rec.round, std::numeric_limits<std::int32_t>::max()));
    hint.pref = rec.pref;
    hint.walk_delta = static_cast<std::int8_t>(walk_delta);
    hint.counter = rec.coin(rec.round + 1);
    hint.decided = decided;
    rt_.publish_hint(hint);
  };

  publish(0, false);
  mem_.write(rec);

  while (true) {
    // Read in place: the scanner's own snapshot buffer, no copy.
    const std::vector<Toggled<AHRecord>>& view = mem_.scan();
    scans_.fetch_add(1, std::memory_order_relaxed);

    std::int64_t max_round = rec.round;
    for (const auto& e : view) max_round = std::max(max_round, e.value.round);
    const bool leader = rec.round == max_round;

    // Decide: I lead, and everyone whose preference differs trails by the
    // full decide distance.
    if (rec.pref == kPref0 || rec.pref == kPref1) {
      bool can_decide = leader;
      for (int j = 0; j < n && can_decide; ++j) {
        if (j == me) continue;
        const auto& r = view[static_cast<std::size_t>(j)].value;
        if (r.pref != rec.pref && rec.round - r.round < trail_) {
          can_decide = false;
        }
      }
      if (can_decide) {
        decisions_[static_cast<std::size_t>(me)] = rec.pref;
        decision_rounds_[static_cast<std::size_t>(me)] = rec.round;
        publish(0, true);
        track(rec);
        return rec.pref;
      }
    }

    // Leaders agree -> adopt and advance.
    std::optional<std::int8_t> agreed;
    bool leaders_agree = true;
    for (int j = 0; j < n && leaders_agree; ++j) {
      const auto& r = view[static_cast<std::size_t>(j)].value;
      if (r.round != max_round) continue;
      if (r.pref != kPref0 && r.pref != kPref1) {
        leaders_agree = false;
      } else if (agreed.has_value() && *agreed != r.pref) {
        leaders_agree = false;
      } else {
        agreed = r.pref;
      }
    }
    if (leaders_agree && agreed.has_value()) {
      rec.pref = *agreed;
      rec.round += 1;
      publish(0, false);
      mem_.write(rec);
      track(rec);
      continue;
    }

    // Leaders disagree; withdraw my preference.
    if (rec.pref == kPref0 || rec.pref == kPref1) {
      rec.pref = kBottom;
      publish(0, false);
      mem_.write(rec);
      continue;
    }

    // Shared coin for round r+1 over the unbounded strip: sum every
    // process's counter at location r+1 (nothing is ever withdrawn).
    const std::int64_t target = rec.round + 1;
    std::int64_t walk = 0;
    for (int j = 0; j < n; ++j) {
      walk += (j == me ? rec : view[static_cast<std::size_t>(j)].value)
                  .coin(target);
    }
    if (walk > barrier || walk < -barrier) {
      rec.pref = walk > barrier ? kPref1 : kPref0;
      rec.round += 1;
      publish(0, false);
      mem_.write(rec);
      track(rec);
      continue;
    }

    const bool flip = rt_.rng().flip();
    publish(flip ? 1 : -1, false);
    if (rec.coins.empty() || rec.coins.back().round != target) {
      BPRC_REQUIRE(rec.coins.empty() || rec.coins.back().round < target,
                   "coin rounds must grow");
      rec.coins.push_back({target, 0});
      coin_locations_.fetch_add(1, std::memory_order_relaxed);
    }
    rec.coins.back().counter += flip ? 1 : -1;
    flips_.fetch_add(1, std::memory_order_relaxed);
    mem_.write(rec, /*payload=*/flip ? 1 : -1);
    publish(0, false);
    track(rec);
  }
}

int AspnesHerlihyConsensus::decision(ProcId p) const {
  return decisions_[static_cast<std::size_t>(p)];
}

std::int64_t AspnesHerlihyConsensus::decision_round(ProcId p) const {
  return decision_rounds_[static_cast<std::size_t>(p)];
}

MemoryFootprint AspnesHerlihyConsensus::footprint() const {
  MemoryFootprint f;
  f.bounded = false;
  f.max_round_stored = max_round_.load(std::memory_order_relaxed);
  f.max_counter = max_counter_.load(std::memory_order_relaxed);
  f.coin_locations = coin_locations_.load(std::memory_order_relaxed);
  f.static_bound = 0;
  return f;
}

}  // namespace bprc
