#include "consensus/multivalue.hpp"

#include "util/assert.hpp"

namespace bprc {

MultiValueConsensus::MultiValueConsensus(Runtime& rt, int value_bits,
                                         const ProtocolFactory& binary_factory)
    : rt_(rt),
      value_bits_(value_bits),
      announcements_(rt, Announcement{}),
      decisions_(static_cast<std::size_t>(rt.nprocs()), ~std::uint64_t{0}) {
  BPRC_REQUIRE(value_bits >= 1 && value_bits <= 63,
               "value_bits must be in [1, 63]");
  bits_.reserve(static_cast<std::size_t>(value_bits));
  for (int i = 0; i < value_bits; ++i) {
    bits_.push_back(binary_factory(rt));
  }
}

std::uint64_t MultiValueConsensus::propose(std::uint64_t input) {
  const ProcId me = rt_.self();
  BPRC_REQUIRE(value_bits_ == 63 || input < (std::uint64_t{1} << value_bits_),
               "input exceeds the configured value domain");
  BPRC_REQUIRE(decisions_[static_cast<std::size_t>(me)] == ~std::uint64_t{0},
               "propose called twice by one process");

  // Phase 1: announce the input (write-once), so later candidate switches
  // always have a matching announced value to fall back on.
  announcements_.write(Announcement{true, input});

  // Phase 2: bit-by-bit binary agreement, high bit first.
  std::uint64_t candidate = input;
  std::uint64_t decided_prefix = 0;
  std::uint64_t prefix_mask = 0;
  for (int i = value_bits_ - 1; i >= 0; --i) {
    const std::uint64_t bit_mask = std::uint64_t{1} << i;
    const int proposal = (candidate & bit_mask) != 0 ? 1 : 0;
    const int decided =
        bits_[static_cast<std::size_t>(value_bits_ - 1 - i)]->propose(
            proposal);
    if (decided == 1) decided_prefix |= bit_mask;
    prefix_mask |= bit_mask;
    if (decided != proposal) {
      // My candidate lost this bit: adopt an announced input that matches
      // everything decided so far. The proposer of the winning bit had
      // one, and its announcement precedes this rescan.
      bool switched = false;
      for (const auto& e : announcements_.scan()) {
        const Announcement& a = e.value;
        if (a.valid && (a.value & prefix_mask) == decided_prefix) {
          candidate = a.value;
          switched = true;
          break;
        }
      }
      BPRC_REQUIRE(switched,
                   "no announced input matches the decided prefix — the "
                   "transform's invariant is broken");
    }
  }

  BPRC_REQUIRE((candidate & prefix_mask) == decided_prefix,
               "candidate diverged from the decided bits");
  decisions_[static_cast<std::size_t>(me)] = candidate;
  return candidate;
}

}  // namespace bprc
