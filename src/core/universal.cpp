#include "core/universal.hpp"

#include <algorithm>
#include <set>

namespace bprc {

namespace {
constexpr int kOwnerBits = 6;
constexpr int kSeqBits = 16;
constexpr int kPayloadBits = 16;
constexpr int kValueBits = kOwnerBits + kSeqBits + kPayloadBits;  // 38
}  // namespace

UniversalLog::UniversalLog(Runtime& rt, int capacity,
                           ProtocolFactory binary_factory)
    : rt_(rt),
      board_(rt, Pending{}),
      local_decided_(static_cast<std::size_t>(rt.nprocs())),
      known_length_(static_cast<std::size_t>(rt.nprocs()), 0),
      next_seq_(static_cast<std::size_t>(rt.nprocs()), 0) {
  BPRC_REQUIRE(capacity >= 1, "log needs at least one slot");
  BPRC_REQUIRE(rt.nprocs() < (1 << kOwnerBits),
               "process count exceeds the owner field");
  slots_.reserve(static_cast<std::size_t>(capacity));
  for (int s = 0; s < capacity; ++s) {
    slots_.push_back(std::make_unique<MultiValueConsensus>(rt_, kValueBits,
                                                           binary_factory));
  }
  for (auto& cache : local_decided_) {
    cache.assign(static_cast<std::size_t>(capacity), std::nullopt);
  }
}

std::uint64_t UniversalLog::encode(ProcId owner, std::uint32_t seq,
                                   std::uint32_t payload) {
  BPRC_REQUIRE(seq < (1u << kSeqBits), "sequence number exceeds field");
  BPRC_REQUIRE(payload < (1u << kPayloadBits), "payload exceeds field");
  return (static_cast<std::uint64_t>(owner)
          << (kSeqBits + kPayloadBits)) |
         (static_cast<std::uint64_t>(seq) << kPayloadBits) | payload;
}

UniversalLog::Entry UniversalLog::decode(std::uint64_t word) {
  Entry e;
  e.payload = static_cast<std::uint32_t>(word & ((1u << kPayloadBits) - 1));
  e.seq = static_cast<std::uint32_t>((word >> kPayloadBits) &
                                     ((1u << kSeqBits) - 1));
  e.owner =
      static_cast<ProcId>(word >> (kSeqBits + kPayloadBits));
  return e;
}

UniversalLog::Entry UniversalLog::drive_slot(int slot) {
  const ProcId me = rt_.self();
  auto& cache =
      local_decided_[static_cast<std::size_t>(me)][static_cast<std::size_t>(slot)];
  if (cache.has_value()) return *cache;

  // Helping policy: slot s belongs, by rotation, to process s mod n — if
  // that process has a pending command on the board, everyone proposes
  // it, so it wins by validity. Otherwise propose my own pending command;
  // otherwise any pending; otherwise an owner-stamped no-op.
  const std::vector<Toggled<Pending>>& board = board_.scan();
  const int n = rt_.nprocs();
  const ProcId preferred = static_cast<ProcId>(slot % n);
  std::uint64_t proposal;
  if (board[static_cast<std::size_t>(preferred)].value.active) {
    const auto& p = board[static_cast<std::size_t>(preferred)].value;
    proposal = encode(preferred, p.seq, p.payload);
  } else if (board[static_cast<std::size_t>(me)].value.active) {
    const auto& p = board[static_cast<std::size_t>(me)].value;
    proposal = encode(me, p.seq, p.payload);
  } else {
    proposal = encode(me, 0, 0);  // no-op filler (seq 0 never announced)
    for (ProcId q = 0; q < n; ++q) {
      if (board[static_cast<std::size_t>(q)].value.active) {
        const auto& p = board[static_cast<std::size_t>(q)].value;
        proposal = encode(q, p.seq, p.payload);
        break;
      }
    }
  }

  const std::uint64_t decided =
      slots_[static_cast<std::size_t>(slot)]->propose(proposal);
  cache = decode(decided);
  known_length_[static_cast<std::size_t>(me)] = std::max(
      known_length_[static_cast<std::size_t>(me)], slot + 1);
  return *cache;
}

int UniversalLog::append(std::uint32_t payload) {
  const ProcId me = rt_.self();
  const std::uint32_t seq = ++next_seq_[static_cast<std::size_t>(me)];
  board_.write(Pending{true, seq, payload});

  for (int slot = known_length_[static_cast<std::size_t>(me)];
       slot < capacity(); ++slot) {
    const Entry e = drive_slot(slot);
    if (e.owner == me && e.seq == seq) {
      // Placed. Retire the announcement so helpers stop proposing it.
      board_.write(Pending{false, seq, payload});
      return slot;
    }
  }
  BPRC_REQUIRE(false,
               "log capacity exhausted — size UniversalLog for at least "
               "n slots per append");
  return -1;
}

std::optional<UniversalLog::Entry> UniversalLog::decided(int slot) const {
  BPRC_REQUIRE(slot >= 0 && slot < capacity(), "slot out of range");
  std::optional<Entry> result;
  for (const auto& cache : local_decided_) {
    const auto& entry = cache[static_cast<std::size_t>(slot)];
    if (!entry.has_value()) continue;
    if (result.has_value()) {
      BPRC_REQUIRE(result->owner == entry->owner &&
                       result->seq == entry->seq &&
                       result->payload == entry->payload,
                   "processes disagree on a decided slot");
    } else {
      result = entry;
    }
  }
  return result;
}

std::vector<UniversalLog::Entry> UniversalLog::log() const {
  std::vector<Entry> out;
  std::set<std::pair<ProcId, std::uint32_t>> seen;
  for (int slot = 0; slot < capacity(); ++slot) {
    const auto entry = decided(slot);
    if (!entry.has_value()) break;  // contiguous decided prefix only
    if (entry->seq == 0) continue;  // no-op filler
    if (!seen.insert({entry->owner, entry->seq}).second) {
      continue;  // duplicate win by a racing helper
    }
    out.push_back(*entry);
  }
  return out;
}

}  // namespace bprc
