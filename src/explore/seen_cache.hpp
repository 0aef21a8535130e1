// Seen-state cache for the exploration driver: fingerprint → shallowest
// depth at which the state was expanded.
//
// Open-addressing, power-of-two table with linear probing over parallel
// arrays: 8-byte full fingerprint keys plus 1-byte depth tags, ≤0.5 load
// factor, allocation-free per visit. Keys keep all 64 fingerprint bits, so
// decisions are exactly a plain map's (SeenCacheTest checks against one).
// The explorer requires branch_depth ≤ 255 when the cache is on. Key 0
// marks an empty slot: callers canonicalize a zero fingerprint first.
//
// Optional budget (`max_bytes`): when doubling the table would exceed it,
// the cache instead *evicts by depth* — it keeps the shallowest entries
// (each guards the largest subtree) up to a cutoff that frees at least
// half the table, and refuses to store deeper states from then on.
// Dropping entries is sound: a missing entry means a revisited state is
// re-explored, never that one is skipped. The trade is prune ratio for
// boundedness, and `evictions()` reports how often it was taken.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace bprc::explore {

/// The canonical stand-in for a zero fingerprint (raw key 0 marks an
/// empty slot); applied by callers.
inline constexpr std::uint64_t kSeenZeroKey = 0x9E3779B97F4A7C15ULL;

class SeenCache {
 public:
  /// The only layout. Kept as a constructor tag for existing callers.
  enum class Layout { kCompact };
  enum class Visit {
    kNew,     ///< first time here (at any depth): explore the subtree
    kMerged,  ///< seen at this depth or shallower: prune
    kRedo,    ///< seen only deeper: re-explore (and remember the new depth)
  };

  explicit SeenCache(Layout /*layout*/, std::uint64_t max_bytes = 0)
      : budget_(max_bytes) {
    rehash(kInitialCapacity);
    note_bytes();
  }

  Visit visit(std::uint64_t key, std::uint8_t depth) {
    BPRC_REQUIRE(key != 0, "zero fingerprints must be canonicalized");
    const std::size_t slot = find_slot(key);
    if (keys_[slot] == key) {
      if (depths_[slot] <= depth) return Visit::kMerged;
      depths_[slot] = depth;
      return Visit::kRedo;
    }
    if (depth > insert_cutoff_) return Visit::kNew;  // post-eviction: too deep
    keys_[slot] = key;
    depths_[slot] = depth;
    ++size_;
    if (size_ * 2 >= keys_.size()) grow_or_evict();
    return Visit::kNew;
  }

  std::uint64_t entries() const { return size_; }

  /// Accounted footprint right now: the parallel arrays.
  std::uint64_t bytes() const {
    return keys_.size() * (sizeof(std::uint64_t) + sizeof(std::uint8_t));
  }

  std::uint64_t peak_bytes() const { return peak_bytes_; }
  std::uint64_t evictions() const { return evictions_; }

  /// Serializes every (key, depth) entry, for frontier checkpoints. Order
  /// is deterministic for a deterministic history (slot order).
  void snapshot(std::vector<std::pair<std::uint64_t, std::uint8_t>>* out) const {
    out->clear();
    out->reserve(size_);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) out->emplace_back(keys_[i], depths_[i]);
    }
  }

  /// Rebuilds the cache from a snapshot (resume path). Lookup results are
  /// independent of insertion order, so a restored cache merges exactly
  /// like the one it was saved from.
  void restore(const std::vector<std::pair<std::uint64_t, std::uint8_t>>& in) {
    std::size_t cap = kInitialCapacity;
    while (cap < in.size() * 2 + 1) cap *= 2;
    rehash(cap);
    for (const auto& [k, d] : in) {
      const std::size_t slot = find_slot(k);
      if (keys_[slot] == 0) {
        keys_[slot] = k;
        depths_[slot] = d;
        ++size_;
      } else if (d < depths_[slot]) {
        depths_[slot] = d;
      }
    }
    note_bytes();
  }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  static std::size_t mix(std::uint64_t key) {
    // splitmix64 finalizer: fingerprints are FNV folds, whose low bits
    // alone are not uniform enough for a power-of-two table.
    key ^= key >> 30;
    key *= 0xBF58476D1CE4E5B9ULL;
    key ^= key >> 27;
    key *= 0x94D049BB133111EBULL;
    key ^= key >> 31;
    return static_cast<std::size_t>(key);
  }

  std::size_t find_slot(std::uint64_t key) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (keys_[i] != 0 && keys_[i] != key) i = (i + 1) & mask;
    return i;
  }

  void rehash(std::size_t capacity) {
    keys_.assign(capacity, 0);
    depths_.assign(capacity, 0);
    size_ = 0;
  }

  void grow_or_evict() {
    const std::uint64_t doubled =
        static_cast<std::uint64_t>(keys_.size()) * 2 * 9;
    if (budget_ == 0 || doubled <= budget_) {
      std::vector<std::uint64_t> old_keys = std::move(keys_);
      std::vector<std::uint8_t> old_depths = std::move(depths_);
      rehash(old_keys.size() * 2);
      reinsert(old_keys, old_depths);
      note_bytes();
      return;
    }
    // Over budget: keep the shallowest entries — each guards the largest
    // subtree — up to the deepest cutoff that still frees half the table,
    // and stop storing anything deeper.
    std::uint64_t histogram[256] = {};
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) ++histogram[depths_[i]];
    }
    const std::uint64_t room = keys_.size() / 4;
    std::uint64_t kept = 0;
    int cutoff = -1;
    for (int d = 0; d < 256; ++d) {
      if (kept + histogram[d] > room) break;
      kept += histogram[d];
      cutoff = d;
    }
    insert_cutoff_ = cutoff;
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint8_t> old_depths = std::move(depths_);
    rehash(old_keys.size());
    reinsert(old_keys, old_depths);
    ++evictions_;
  }

  void reinsert(const std::vector<std::uint64_t>& old_keys,
                const std::vector<std::uint8_t>& old_depths) {
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == 0) continue;
      if (static_cast<int>(old_depths[i]) > insert_cutoff_) continue;
      const std::size_t slot = find_slot(old_keys[i]);
      keys_[slot] = old_keys[i];
      depths_[slot] = old_depths[i];
      ++size_;
    }
  }

  void note_bytes() {
    const std::uint64_t b = bytes();
    if (b > peak_bytes_) peak_bytes_ = b;
  }

  std::uint64_t budget_;

  std::vector<std::uint64_t> keys_;  // 0 = empty slot
  std::vector<std::uint8_t> depths_;
  std::size_t size_ = 0;
  int insert_cutoff_ = 255;  ///< depths beyond this are not stored

  std::uint64_t evictions_ = 0;
  std::uint64_t peak_bytes_ = 0;
};

}  // namespace bprc::explore
