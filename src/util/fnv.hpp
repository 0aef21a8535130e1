// FNV-1a, the one digest family of the repository: explorer schedule
// digests and state fingerprints, campaign summary and matrix digests,
// frontier fingerprints and the golden schedule hashes the tests pin.
#pragma once

#include <cstdint>
#include <string_view>

namespace bprc {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// Folds one value into `h`.
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

/// Folds every byte of `bytes` into `h`, one value per byte.
inline std::uint64_t fnv_mix_bytes(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h = fnv_mix(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

}  // namespace bprc
