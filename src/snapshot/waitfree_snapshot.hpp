// Wait-free atomic snapshot — the AADGMS construction (Afek, Attiya,
// Dolev, Gafni, Merritt, Shavit 1990), the direct successor of this
// paper's scannable memory.
//
// The §2 scannable memory trades wait-freedom away: a scan can be starved
// by an endless stream of new writes (acceptable for the consensus
// protocol, whose processes alternate write/scan). One year later the
// snapshot problem was solved wait-free by HELPING: every update embeds a
// full scan in its register; a scanner that sees the same writer move
// TWICE during its own scan may borrow that writer's embedded view — the
// embedded scan ran entirely inside the scanner's interval, so returning
// it linearizes. After n+1 dirty double-collects some writer has moved
// twice, so a scan finishes in O(n²) steps no matter what.
//
// This implementation is the classic unbounded variant (per-writer
// sequence numbers; bounding them needs the handshake machinery of the
// full AADGMS paper). It serves as the "what came next" comparator in
// experiment E1 and shares the P1/P2/P3 checkers: borrowed views must
// satisfy exactly the same properties.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "registers/register.hpp"
#include "runtime/runtime.hpp"
#include "util/assert.hpp"
#include "verify/snapshot_props.hpp"

namespace bprc {

template <class T>
class WaitFreeSnapshot {
 public:
  WaitFreeSnapshot(Runtime& rt, T initial, SnapshotHistory* recorder = nullptr)
      : rt_(rt), n_(rt.nprocs()), recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->nprocs = n_;
    const std::size_t width = static_cast<std::size_t>(n_);
    Entry init;
    init.value = initial;
    init.seq = 0;
    init.embedded_values.assign(width, initial);
    init.embedded_ghosts.assign(width, 0);
    registers_.reserve(width);
    for (ProcId j = 0; j < n_; ++j) {
      registers_.push_back(std::make_unique<SWMRRegister<Entry>>(
          rt_, j, init, /*object_id=*/j));
    }
    local_.assign(width, init);
  }

  int nprocs() const { return n_; }

  /// Wait-free update: embed a scan, then write value+view in one
  /// register operation (the AADGMS update).
  void update(const T& v, std::int64_t payload = 0) {
    const ProcId me = rt_.self();
    const std::uint64_t inv = record_tick(rt_, recorder_);
    View embedded = scan_internal();
    Entry& mine = local_[static_cast<std::size_t>(me)];
    mine.value = v;
    mine.seq += 1;
    mine.embedded_values = std::move(embedded.values);
    mine.embedded_ghosts = std::move(embedded.ghosts);
    registers_[static_cast<std::size_t>(me)]->write(mine, payload);
    const std::uint64_t res = record_tick(rt_, recorder_);
    if (recorder_ != nullptr) {
      const std::scoped_lock lock(rec_mu_);
      recorder_->add_write({me, mine.seq, inv, res});
    }
  }

  /// Wait-free scan: double-collect until clean, or borrow the embedded
  /// view of a writer observed moving twice. Completes within n+1
  /// attempts unconditionally.
  std::vector<T> scan() {
    const std::uint64_t inv = record_tick(rt_, recorder_);
    View view = scan_internal();
    const std::uint64_t res = record_tick(rt_, recorder_);
    if (recorder_ != nullptr) {
      SnapScanRec rec{rt_.self(), inv, res, std::move(view.ghosts)};
      const std::scoped_lock lock(rec_mu_);
      recorder_->add_scan(std::move(rec));
    }
    return std::move(view.values);
  }

  std::uint64_t scan_borrows() const {
    return borrows_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    T value{};
    std::uint64_t seq = 0;  ///< the unbounded part (see header)
    std::vector<T> embedded_values;
    std::vector<std::uint64_t> embedded_ghosts;
  };

  struct View {
    std::vector<T> values;
    std::vector<std::uint64_t> ghosts;
  };

  View scan_internal() {
    const ProcId me = rt_.self();
    const std::size_t width = static_cast<std::size_t>(n_);
    std::vector<Entry> c1(width);
    std::vector<Entry> c2(width);
    // moved[j]: we observed j's seq advance once already.
    std::vector<bool> moved(width, false);
    while (true) {
      for (ProcId j = 0; j < n_; ++j) {
        c1[static_cast<std::size_t>(j)] =
            j == me ? local_[static_cast<std::size_t>(me)]
                    : registers_[static_cast<std::size_t>(j)]->read();
      }
      for (ProcId j = 0; j < n_; ++j) {
        c2[static_cast<std::size_t>(j)] =
            j == me ? local_[static_cast<std::size_t>(me)]
                    : registers_[static_cast<std::size_t>(j)]->read();
      }
      bool clean = true;
      for (std::size_t j = 0; j < width && clean; ++j) {
        clean = c1[j].seq == c2[j].seq;
      }
      if (clean) {
        View out;
        out.values.reserve(width);
        out.ghosts.reserve(width);
        for (const auto& e : c2) {
          out.values.push_back(e.value);
          out.ghosts.push_back(e.seq);
        }
        return out;
      }
      for (std::size_t j = 0; j < width; ++j) {
        if (c1[j].seq == c2[j].seq) continue;
        if (moved[j]) {
          // Second observed move: j's currently-registered embedded view
          // was taken by an update that started after our scan began —
          // borrow it.
          borrows_.fetch_add(1, std::memory_order_relaxed);
          View out;
          out.values = c2[j].embedded_values;
          out.ghosts = c2[j].embedded_ghosts;
          return out;
        }
        moved[j] = true;
      }
    }
  }

  Runtime& rt_;
  int n_;
  SnapshotHistory* recorder_;
  std::mutex rec_mu_;
  std::vector<Entry> local_;  ///< per-writer shadow of its own register
  std::vector<std::unique_ptr<SWMRRegister<Entry>>> registers_;
  std::atomic<std::uint64_t> borrows_{0};
};

}  // namespace bprc
