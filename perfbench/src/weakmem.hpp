// The `weakmem` workload's input generator: recordings shaped like the
// native lane's scan-storm and counter-walk cases, built from a seeded
// sequentially consistent interleaving, optionally with one planted
// store-buffering cycle.
#pragma once

#include <cstdint>

#include "verify/weakmem/recorder.hpp"

namespace pb {

/// Threads per recording (the native lane's default --n 4).
inline constexpr int kWeakmemThreads = 4;

/// Actions one thread performs per round: a store to its own slot, a
/// collect of every slot, a counter RMW and a counter read.
inline constexpr int kActionsPerRound = 1 + kWeakmemThreads + 2;

/// Generates one recording of kWeakmemThreads threads running `rounds`
/// rounds each, interleaved by a generator seeded with `seed`. Every
/// thread runs the same program, so each location's history length (what
/// the checker's cost depends on) is fixed by `rounds` alone.
///
/// Unplanted, the recording is SC by construction: every action takes
/// effect atomically in interleaving order. Planted, exactly one collect
/// read is served a stale slot version so that it closes a
/// store-buffering cycle in po ∪ fr:
///
///   A: W slot[A] ; R slot[B] (old)     B: W slot[B] ; R slot[A] (old)
bprc::weakmem::Recording generate_recording(std::uint64_t seed, int rounds,
                                            bool planted);

/// FNV-1a over every field of every location and action: equal digests
/// mean byte-identical recordings.
std::uint64_t recording_digest(const bprc::weakmem::Recording& rec);

}  // namespace pb
