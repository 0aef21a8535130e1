// The alternating-bit ("toggle") wrapper of Section 2.2.
//
// The paper adds an alternating bit to each value register V_i so that two
// values written by consecutive writes of the same process always differ —
// the scan's double-collect equality test then reliably detects an
// intervening write even when the user payload repeats. The bit costs one
// bit of bounded space and is invisible to readers of the user value.
#pragma once

#include <cstdint>

namespace bprc {

/// A user value together with the alternating bit and a *ghost* write
/// sequence number. The ghost field exists solely so the verification
/// library can identify which write execution a scan returned; it is
/// metadata of the test harness, never consulted by algorithm code, and is
/// excluded from equality (algorithms compare exactly what the paper's
/// processes can see: payload + toggle bit).
template <class T>
struct Toggled {
  T value{};
  bool toggle = false;
  std::uint64_t ghost_index = 0;

  friend bool operator==(const Toggled& a, const Toggled& b) {
    return a.toggle == b.toggle && a.value == b.value;
  }
  friend bool operator!=(const Toggled& a, const Toggled& b) {
    return !(a == b);
  }
};

/// Turns `entry` into its successor for a new write, in place: payload
/// replaced, toggle flipped, ghost index advanced. In place so a writer
/// can keep its last entry and never build a temporary record.
template <class T>
void advance_toggled(Toggled<T>& entry, const T& value) {
  entry.value = value;
  entry.toggle = !entry.toggle;
  ++entry.ghost_index;
}

}  // namespace bprc
