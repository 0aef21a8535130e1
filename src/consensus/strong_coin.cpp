#include "consensus/strong_coin.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "util/assert.hpp"
#include "util/latch_max.hpp"

namespace bprc {

StrongCoinConsensus::StrongCoinConsensus(Runtime& rt, std::uint64_t coin_seed,
                                         int trail)
    : rt_(rt),
      trail_(trail),
      mem_(rt, StrongCoinRecord{}),
      coin_(rt, coin_seed),
      decisions_(static_cast<std::size_t>(rt.nprocs()), -1),
      decision_rounds_(static_cast<std::size_t>(rt.nprocs()), 0) {
  BPRC_REQUIRE(trail_ >= 2, "decide distance must be at least 2");
}

int StrongCoinConsensus::propose(int input) {
  BPRC_REQUIRE(input == 0 || input == 1, "input must be a bit");
  const ProcId me = rt_.self();
  const int n = rt_.nprocs();

  StrongCoinRecord rec;
  rec.pref = static_cast<std::int8_t>(input);
  rec.round = 1;

  auto publish = [&](bool decided) {
    Hint hint;
    hint.round = static_cast<std::int32_t>(std::min<std::int64_t>(
        rec.round, std::numeric_limits<std::int32_t>::max()));
    hint.pref = rec.pref;
    hint.decided = decided;
    rt_.publish_hint(hint);
  };

  publish(false);
  mem_.write(rec);

  while (true) {
    const std::vector<StrongCoinRecord> view = mem_.scan();

    std::int64_t max_round = rec.round;
    for (const auto& r : view) max_round = std::max(max_round, r.round);
    const bool leader = rec.round == max_round;

    if (rec.pref == kPref0 || rec.pref == kPref1) {
      bool can_decide = leader;
      for (int j = 0; j < n && can_decide; ++j) {
        if (j == me) continue;
        const auto& r = view[static_cast<std::size_t>(j)];
        if (r.pref != rec.pref && rec.round - r.round < trail_) {
          can_decide = false;
        }
      }
      if (can_decide) {
        decisions_[static_cast<std::size_t>(me)] = rec.pref;
        decision_rounds_[static_cast<std::size_t>(me)] = rec.round;
        publish(true);
        return rec.pref;
      }
    }

    std::optional<std::int8_t> agreed;
    bool leaders_agree = true;
    for (int j = 0; j < n && leaders_agree; ++j) {
      const auto& r = view[static_cast<std::size_t>(j)];
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
    } else {
      // One atomic shared flip settles the round for everyone who flips it.
      rec.pref = coin_.flip(rec.round + 1) ? kPref1 : kPref0;
    }
    rec.round += 1;
    latch_max(max_round_, rec.round);
    publish(false);
    mem_.write(rec);
  }
}

int StrongCoinConsensus::decision(ProcId p) const {
  return decisions_[static_cast<std::size_t>(p)];
}

std::int64_t StrongCoinConsensus::decision_round(ProcId p) const {
  return decision_rounds_[static_cast<std::size_t>(p)];
}

MemoryFootprint StrongCoinConsensus::footprint() const {
  MemoryFootprint f;
  f.bounded = false;  // explicit round numbers live in the registers
  f.max_round_stored = max_round_.load(std::memory_order_relaxed);
  f.max_counter = 0;
  f.coin_locations = static_cast<std::int64_t>(coin_.phases_used());
  f.static_bound = 0;
  return f;
}

}  // namespace bprc
