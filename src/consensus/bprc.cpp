#include "consensus/bprc.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/latch_max.hpp"

namespace bprc {

namespace {

// Physical layout: the declared budget when it suffices, the paper's
// layout otherwise. An under-provisioned budget never shrinks what the
// instance allocates — it shrinks what the instance is ALLOWED to use,
// and the demand latches below record every access beyond the allowance
// so footprint() can report the violation instead of decoding junk.
int physical_cycle(const BPRCParams& p) {
  const int declared = p.space.cycle();
  return declared > 2 * p.K ? declared : default_edge_cycle(p.K);
}

int physical_slots(const BPRCParams& p) {
  return p.space.slots >= p.K + 1 ? p.space.slots : p.K + 1;
}

BPRCRecord initial_record(const BPRCParams& p) {
  BPRCRecord rec;
  rec.pref = kUnwritten;
  rec.coins = CoinSlots::with_slot_count(physical_slots(p));
  rec.edges = initial_edge_counters(p.n);
  return rec;
}

}  // namespace

BPRCConsensus::BPRCConsensus(Runtime& rt, BPRCParams params, ArrowImpl arrows)
    : rt_(rt),
      params_(params),
      cycle_phys_(physical_cycle(params)),
      slots_phys_(physical_slots(params)),
      cycle_deficient_(params.space.cycle() < 2 * params.K + 1),
      slots_deficient_(params.space.slots < params.K + 1),
      mem_(rt, initial_record(params), arrows),
      decisions_(static_cast<std::size_t>(params.n), -1),
      decision_rounds_(static_cast<std::size_t>(params.n), 0) {
  BPRC_REQUIRE(params_.n == rt.nprocs(),
               "params sized for a different process count");
  BPRC_REQUIRE(params_.K >= 2, "the protocol requires K >= 2");
  BPRC_REQUIRE(params_.coin.n == params_.n, "coin params out of sync");
  BPRC_REQUIRE(params_.space.validate(), "invalid space budget");
  BPRC_REQUIRE(params_.space.K == params_.K, "space budget K out of sync");
  BPRC_REQUIRE(params_.space.b == params_.coin.b,
               "space budget b out of sync with coin params");
}

void BPRCConsensus::scan_view(View& view) {
  // In-place twin of "scan, copy the edge rows out, make_graph": the
  // snapshot lands in the caller's reused buffers and the graph is decoded
  // straight from the scanned records — zero allocations in steady state.
  mem_.scan_into(view.recs);
  scans_.fetch_add(1, std::memory_order_relaxed);
  view.graph.reset_tied();
  for (int i = 0; i < params_.n; ++i) {
    for (int j = i + 1; j < params_.n; ++j) {
      const auto s = decode_edge(
          view.recs[static_cast<std::size_t>(i)]
              .edges[static_cast<std::size_t>(j)],
          view.recs[static_cast<std::size_t>(j)]
              .edges[static_cast<std::size_t>(i)],
          params_.K, cycle_phys_);
      BPRC_REQUIRE(s.has_value(),
                   "scanned edge counters decode to no valid difference");
      if (cycle_deficient_) {
        // On the declared cycle c this difference would alias (decode to
        // both +|s| and −|s|) once |s| ≥ c − K; the smallest cycle that
        // decodes it unambiguously is 2|s|+1 cells.
        const int mag = *s < 0 ? -*s : *s;
        if (mag >= params_.space.cycle() - params_.K) {
          latch_max(cycle_demand_, 2 * static_cast<std::int64_t>(mag) + 1);
        }
      }
      view.graph.set_signed_diff(i, j, *s);
    }
  }
}

bool BPRCConsensus::all_disagree_trail_K(ProcId me, std::int8_t pref,
                                         const View& view) const {
  // Line 2's guard: every process whose visible preference differs from
  // mine (⊥ and unwritten count as differing) must trail me by the full
  // cap K.
  for (int j = 0; j < params_.n; ++j) {
    if (j == me) continue;
    if (view.recs[static_cast<std::size_t>(j)].pref == pref) continue;
    if (view.graph.signed_diff(me, j) != params_.K) return false;
  }
  return true;
}

std::optional<std::int8_t> BPRCConsensus::leaders_agreement(
    const View& view) const {
  // Leaders are the graph-maximal processes. They "agree" when every
  // leader's preference is the same concrete value (not ⊥, not unwritten).
  std::optional<std::int8_t> value;
  for (int j = 0; j < params_.n; ++j) {
    if (!view.graph.is_leader(j)) continue;
    const std::int8_t p = view.recs[static_cast<std::size_t>(j)].pref;
    if (p != kPref0 && p != kPref1) return std::nullopt;
    if (value.has_value() && *value != p) return std::nullopt;
    value = p;
  }
  return value;
}

CoinValue BPRCConsensus::next_coin_value(ProcId me, const BPRCRecord& mine,
                                         View& view) const {
  // §5 `function next_coin_value`: assemble the counter view c̄ for the
  // coin of my round r+1. My own contribution is my "next" slot; a
  // process j ahead of or tied with me by w < K contributes its slot for
  // round r+1 = r_j - w + 1; everyone else reads as withdrawn (0).
  std::vector<std::int64_t>& counters = view.counters;
  counters.assign(static_cast<std::size_t>(params_.n), 0);
  counters[static_cast<std::size_t>(me)] = mine.coins.next_slot();
  for (int j = 0; j < params_.n; ++j) {
    if (j == me) continue;
    const int s = view.graph.signed_diff(j, me);
    if (s >= 0 && s < params_.K) {
      // Serving a reader that trails by s takes s+2 ring slots (next,
      // current, and s−1 older ones still unrecycled); a budget with
      // fewer would have withdrawn this contribution already.
      if (slots_deficient_ && s + 2 > params_.space.slots) {
        latch_max(slot_demand_, s + 2);
      }
      counters[static_cast<std::size_t>(j)] =
          view.recs[static_cast<std::size_t>(j)].coins.read_for_trailing(s);
    }
  }
  return coin_value(counters, me, params_.coin);
}

void BPRCConsensus::do_inc(ProcId me, BPRCRecord& rec,
                           const DistanceGraph& graph,
                           std::vector<int>& dists) {
  // §5 `function inc`: advance the coin pointer (recycling and zeroing the
  // K+1-rounds-old slot) and apply the guarded edge-counter increments
  // computed from the scanned graph.
  //
  // Slot-demand accounting for under-declared rings. The snapshot
  // registers of the simulator mean a trailing read can never observe a
  // recycled slot (reader distance and ring come from the same record
  // snapshot), so the deficit is charged where the protocol's contract
  // needs the slack instead: advancing while process j sits within
  // serving range leaves j trailing by w = diff+1, and serving a
  // trailing-by-w reader that races this very advance takes w+2 retained
  // rounds — the static w+1 plus the one-round slack that is exactly the
  // paper's K+1st slot. A budget declaring fewer has, at this step,
  // committed to recycling a round some racing reader may still need.
  if (slots_deficient_) {
    for (int j = 0; j < params_.n; ++j) {
      if (j == me) continue;
      const int w = graph.signed_diff(me, j) + 1;
      if (w >= 1 && w < params_.K && w + 2 > params_.space.slots) {
        latch_max(slot_demand_, w + 2);
      }
    }
  }
  rec.coins.advance();
  inc_counters(me, graph, rec.edges, cycle_phys_, dists);
}

void BPRCConsensus::publish(ProcId me, const BPRCRecord& rec,
                            std::int64_t round, int walk_delta,
                            bool decided) {
  (void)me;
  Hint hint;
  hint.round = static_cast<std::int32_t>(std::min<std::int64_t>(
      round, std::numeric_limits<std::int32_t>::max()));
  hint.pref = rec.pref;
  hint.walk_delta = static_cast<std::int8_t>(walk_delta);
  hint.counter = rec.coins.next_slot();
  hint.decided = decided;
  rt_.publish_hint(hint);
}

int BPRCConsensus::propose(int input) {
  BPRC_REQUIRE(input == 0 || input == 1, "input must be a bit");
  const ProcId me = rt_.self();
  BPRC_REQUIRE(decisions_[static_cast<std::size_t>(me)] == -1,
               "propose called twice by one process");

  BPRCRecord rec = initial_record(params_);
  rec.pref = static_cast<std::int8_t>(input);
  std::int64_t round = 0;

  // Initial write: pref := input, round := inc(round). The inc is
  // computed against the all-tied initial graph (this process has not yet
  // observed anyone, and from the initial state the correct move is to
  // pull one step ahead of everyone regardless of what they have done).
  View view{{},
            DistanceGraph(params_.n, params_.K),
            {},
            std::vector<std::int64_t>(static_cast<std::size_t>(params_.n))};
  do_inc(me, rec, view.graph, view.dists);
  round = 1;
  publish(me, rec, round, 0, false);
  mem_.write(rec);

  while (true) {
    scan_view(view);

    // Line 2: decide.
    if ((rec.pref == kPref0 || rec.pref == kPref1) &&
        view.graph.is_leader(me) &&
        all_disagree_trail_K(me, rec.pref, view)) {
      decisions_[static_cast<std::size_t>(me)] = rec.pref;
      decision_rounds_[static_cast<std::size_t>(me)] = round;
      publish(me, rec, round, 0, true);
      return rec.pref;
    }

    // Lines 3-4: adopt the leaders' agreed value and advance.
    if (const auto agreed = leaders_agreement(view)) {
      rec.pref = *agreed;
      do_inc(me, rec, view.graph, view.dists);
      ++round;
      latch_max(max_round_, round);
      publish(me, rec, round, 0, false);
      mem_.write(rec);
      continue;
    }

    // Lines 5-6: leaders disagree; withdraw my preference (round kept).
    if (rec.pref == kPref0 || rec.pref == kPref1) {
      rec.pref = kBottom;
      publish(me, rec, round, 0, false);
      mem_.write(rec);
      continue;
    }

    // Line 7: flip the shared coin for round r+1 until it decides.
    const CoinValue cv = next_coin_value(me, rec, view);
    if (cv == CoinValue::kUndecided) {
      const bool flip = rt_.rng().flip();
      // The strong adversary sees the flip before the write lands.
      publish(me, rec, round, flip ? 1 : -1, false);
      std::int64_t& slot = rec.coins.next_slot();
      slot = walk_step(slot, flip, params_.coin);
      latch_max(max_counter_, slot < 0 ? -slot : slot);
      flips_.fetch_add(1, std::memory_order_relaxed);
      mem_.write(rec, /*payload=*/flip ? 1 : -1);
      publish(me, rec, round, 0, false);
      continue;
    }

    // Line 8: adopt the coin's value and advance.
    rec.pref = (cv == CoinValue::kHeads) ? kPref1 : kPref0;
    do_inc(me, rec, view.graph, view.dists);
    ++round;
    latch_max(max_round_, round);
    publish(me, rec, round, 0, false);
    mem_.write(rec);
  }
}

int BPRCConsensus::decision(ProcId p) const {
  return decisions_[static_cast<std::size_t>(p)];
}

std::int64_t BPRCConsensus::decision_round(ProcId p) const {
  return decision_rounds_[static_cast<std::size_t>(p)];
}

MemoryFootprint BPRCConsensus::footprint() const {
  MemoryFootprint f;
  f.bounded = true;
  f.max_round_stored = 0;  // no round number exists in shared memory
  f.coin_locations =
      static_cast<std::int64_t>(params_.n) * params_.space.slots;
  // A latched deficit outranks the walk-counter report: the declared
  // budget could not have served some access this execution performed,
  // so the (bound, demand) pair becomes the footprint verdict and the
  // driver grades it kBoundedMemory.
  const std::int64_t cyc_demand = cycle_demand_.load(std::memory_order_relaxed);
  if (cyc_demand > params_.space.cycle()) {
    f.static_bound = params_.space.cycle();
    f.max_counter = cyc_demand;
    return f;
  }
  const std::int64_t sl_demand = slot_demand_.load(std::memory_order_relaxed);
  if (sl_demand > params_.space.slots) {
    f.static_bound = params_.space.slots;
    f.max_counter = sl_demand;
    return f;
  }
  f.max_counter = max_counter_.load(std::memory_order_relaxed);
  f.static_bound = params_.coin.m + 1;
  return f;
}

}  // namespace bprc
