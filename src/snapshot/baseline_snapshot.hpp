// Unbounded double-collect snapshot — the pre-1989 comparator.
//
// The standard way to get a snapshot before the bounded scannable memory
// existed: attach an unbounded sequence number to every value; a scan
// collects all registers repeatedly until two consecutive collects agree
// on every sequence number. Functionally equivalent to the scannable
// memory (same P1–P3 properties under the same progress condition) but
// the sequence numbers grow without bound — this class is the "what the
// paper removes" arm of experiment E6, and it instruments exactly that
// growth (max_sequence_number).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "registers/register.hpp"
#include "runtime/runtime.hpp"
#include "util/latch_max.hpp"
#include "verify/snapshot_props.hpp"

namespace bprc {

template <class T>
class UnboundedSnapshot {
 public:
  UnboundedSnapshot(Runtime& rt, T initial, SnapshotHistory* recorder = nullptr)
      : rt_(rt), n_(rt.nprocs()), recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->nprocs = n_;
    values_.reserve(static_cast<std::size_t>(n_));
    for (ProcId j = 0; j < n_; ++j) {
      values_.push_back(std::make_unique<SWMRRegister<Entry>>(
          rt_, j, Entry{initial, 0}, /*object_id=*/j));
    }
    local_.assign(static_cast<std::size_t>(n_), Entry{initial, 0});
  }

  int nprocs() const { return n_; }

  void write(const T& v, std::int64_t payload = 0) {
    const ProcId me = rt_.self();
    const std::uint64_t inv = record_tick(rt_, recorder_);
    Entry& mine = local_[static_cast<std::size_t>(me)];
    mine = Entry{v, mine.seq + 1};
    values_[static_cast<std::size_t>(me)]->write(mine, payload);
    latch_max(max_seq_, mine.seq);
    const std::uint64_t res = record_tick(rt_, recorder_);
    if (recorder_ != nullptr) {
      const std::scoped_lock lock(rec_mu_);
      recorder_->add_write({me, mine.seq, inv, res});
    }
  }

  std::vector<T> scan() {
    const ProcId me = rt_.self();
    const std::uint64_t inv = record_tick(rt_, recorder_);
    const std::size_t width = static_cast<std::size_t>(n_);
    std::vector<Entry> collect1(width);
    std::vector<Entry> collect2(width);
    while (true) {
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) {
          collect1[static_cast<std::size_t>(j)] =
              values_[static_cast<std::size_t>(j)]->read();
        }
      }
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) {
          collect2[static_cast<std::size_t>(j)] =
              values_[static_cast<std::size_t>(j)]->read();
        }
      }
      bool dirty = false;
      for (ProcId j = 0; j < n_ && !dirty; ++j) {
        if (j != me && collect1[static_cast<std::size_t>(j)].seq !=
                           collect2[static_cast<std::size_t>(j)].seq) {
          dirty = true;
        }
      }
      if (!dirty) break;
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
    collect2[static_cast<std::size_t>(me)] =
        local_[static_cast<std::size_t>(me)];
    const std::uint64_t res = record_tick(rt_, recorder_);
    if (recorder_ != nullptr) {
      SnapScanRec rec{me, inv, res, {}};
      rec.view.reserve(width);
      for (const auto& e : collect2) rec.view.push_back(e.seq);
      const std::scoped_lock lock(rec_mu_);
      recorder_->add_scan(std::move(rec));
    }
    std::vector<T> view;
    view.reserve(width);
    for (auto& e : collect2) view.push_back(std::move(e.value));
    return view;
  }

  std::uint64_t scan_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  /// The unbounded quantity: the largest sequence number ever stored in a
  /// register. Grows linearly with writes — the growth the paper's
  /// construction eliminates.
  std::uint64_t max_sequence_number() const {
    return max_seq_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    T value;
    std::uint64_t seq;
  };

  Runtime& rt_;
  int n_;
  SnapshotHistory* recorder_;
  std::mutex rec_mu_;
  std::vector<Entry> local_;  ///< per-writer shadow of its own register
  std::vector<std::unique_ptr<SWMRRegister<Entry>>> values_;
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> max_seq_{0};
};

}  // namespace bprc
