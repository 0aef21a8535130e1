// The golden-schedule digest the replay and engine tests pin.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/adversary.hpp"
#include "util/fnv.hpp"

namespace bprc {

/// FNV-1a over a recorded pick sequence and its crash events; the exact
/// digest the performance work was validated against.
inline std::uint64_t schedule_hash(
    const std::vector<ProcId>& schedule,
    const std::vector<CrashPlanAdversary::Crash>& crashes) {
  std::uint64_t h = kFnvOffset;
  for (const ProcId p : schedule) h = fnv_mix(h, static_cast<std::uint64_t>(p));
  for (const auto& c : crashes) {
    h = fnv_mix(h, c.at_step * 31 + static_cast<std::uint64_t>(c.victim));
  }
  return h;
}

}  // namespace bprc
