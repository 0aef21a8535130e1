// A second opinion on weakmem::check_sc's SC order, for tests only.
//
// check_sc takes its sweep's total order as the whole verdict
// (sc_checker.hpp says why each location's history in that order is
// already legal). The tests keep the independent oracle: the order is
// cut into one sequential RegOp history per location and graded by the
// Wing–Gong register-linearizability checker that grades simulated runs.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "verify/linearizability.hpp"
#include "verify/weakmem/recorder.hpp"

namespace bprc::weakmem {

/// Whether `check_register_linearizable` accepts every location's
/// history in `order` (global ids, thread-major; the op at position p
/// spans [2p, 2p + 1]).
inline ::testing::AssertionResult sc_order_linearizable(
    const Recording& rec, const std::vector<std::size_t>& order) {
  std::vector<const MemAction*> flat;
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) flat.push_back(&a);
  }
  if (order.size() != flat.size()) {
    return ::testing::AssertionFailure()
           << "the order has " << order.size() << " of " << flat.size()
           << " actions";
  }
  std::vector<std::vector<RegOp>> histories(rec.locations.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    const MemAction& a = *flat[order[p]];
    histories[static_cast<std::size_t>(a.location)].push_back(
        {a.kind != MemAction::Kind::kLoad, a.value, 2 * p, 2 * p + 1,
         a.thread});
  }
  for (std::size_t l = 0; l < histories.size(); ++l) {
    const LinResult lin =
        check_register_linearizable(histories[l], rec.locations[l].initial);
    if (!lin.ok) {
      return ::testing::AssertionFailure()
             << "SC order not linearizable on location "
             << rec.locations[l].name << ": " << lin.witness;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace bprc::weakmem
