// Atomic high-water marks, the footprint statistics the protocols keep.
#pragma once

#include <atomic>
#include <type_traits>

namespace bprc {

/// Raises `a` to `v` if `v` is larger. A CAS loop, not load-then-store:
/// concurrent raisers (ThreadRuntime, the native lane) lose no update.
template <class T>
void latch_max(std::atomic<T>& a, std::type_identity_t<T> v) {
  T cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace bprc
