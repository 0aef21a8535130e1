// Scannable memory — the bounded snapshot primitive of Section 2.
//
// One single-writer register V_i per process (wrapped with the alternating
// toggle bit of §2.2) plus, for every ordered pair (scanner i, writer j),
// a two-writer "arrow" register A[i][j] ∈ {0,1}:
//
//   value 1 = arrow pointing from j to i: "j has begun a write i may have
//             missed";  value 0 = arrow directed away (i has reset it).
//
// write_j(v):  raise A[i][j] for every i ≠ j, then write V_j.
// scan_i():    reset A[i][j] for every j ≠ i; collect all values twice;
//              collect the arrows; if any value changed between collects
//              or any arrow was raised, start over — otherwise the second
//              collect is a snapshot (properties P1–P3, checked by
//              src/verify/snapshot_props against recorded histories).
//
// The write is wait-free; the scan can be forced to retry only by an
// endless stream of *new* writes — the paper's progress condition, which
// the consensus protocol meets because every process alternates scan and
// write.
//
// scan() hands back the scanner's own snapshot buffer — the first
// collect, which the second collect compared against in place — as a
// const reference valid until that process's next scan: no record is
// copied out. scan_into() is the copy-out wrapper for callers that want
// plain values in a vector of their own.
//
// The arrows can be backed either by native 2W2R registers or by Bloom's
// bounded construction from single-writer registers (ArrowImpl::kBloom),
// exercising the full citation lineage of the paper at ~2× step cost.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "registers/bloom_2w2r.hpp"
#include "registers/register.hpp"
#include "registers/toggle.hpp"
#include "runtime/runtime.hpp"
#include "util/assert.hpp"
#include "verify/snapshot_props.hpp"

namespace bprc {

template <class T>
class ScannableMemory {
 public:
  enum class ArrowImpl { kNative, kBloom };

  /// Creates the memory for rt.nprocs() processes, every slot holding
  /// `initial` (ghost index 0). If `recorder` is non-null, every completed
  /// write and scan is logged for the property checkers.
  ScannableMemory(Runtime& rt, T initial, ArrowImpl arrows = ArrowImpl::kNative,
                  SnapshotHistory* recorder = nullptr)
      : rt_(rt),
        n_(rt.nprocs()),
        recorder_(recorder),
        last_written_(static_cast<std::size_t>(n_),
                      Toggled<T>{initial, false, 0}) {
    if (recorder_ != nullptr) recorder_->nprocs = n_;
    snaps_.resize(static_cast<std::size_t>(n_));
    values_.reserve(static_cast<std::size_t>(n_));
    for (ProcId j = 0; j < n_; ++j) {
      values_.push_back(std::make_unique<SWMRRegister<Toggled<T>>>(
          rt_, j, Toggled<T>{initial, false, 0}, /*object_id=*/j));
    }
    arrows_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
    for (ProcId i = 0; i < n_; ++i) {
      for (ProcId j = 0; j < n_; ++j) {
        if (i == j) continue;
        const int id = n_ + i * n_ + j;
        if (arrows == ArrowImpl::kNative) {
          slot(i, j).native =
              std::make_unique<MRMWRegister<bool>>(rt_, false, id);
        } else {
          // Writers of A[i][j] are the scanner i and the writer j.
          slot(i, j).bloom =
              std::make_unique<Bloom2W2R<bool>>(rt_, i, j, false, id);
        }
      }
    }
  }

  int nprocs() const { return n_; }

  /// Write operation of the calling process (§2.2 `procedure write`).
  void write(const T& v, std::int64_t payload = 0) {
    const ProcId me = rt_.self();
    const std::uint64_t inv = record_tick(rt_, recorder_);
    for (ProcId i = 0; i < n_; ++i) {
      if (i != me) arrow_write(i, me, true);
    }
    // The successor entry is built in the writer's shadow copy, which
    // only the writer itself reads: no temporary record.
    Toggled<T>& entry = last_written_[static_cast<std::size_t>(me)];
    advance_toggled(entry, v);
    values_[static_cast<std::size_t>(me)]->write(entry, payload);
    if (recorder_ != nullptr) {
      const std::uint64_t res = rt_.now();
      const std::scoped_lock lock(rec_mu_);
      recorder_->add_write({me, entry.ghost_index, inv, res});
    }
  }

  /// Scan operation of the calling process (§2.2 `function scan`).
  /// Returns the n-wide snapshot view in the caller's own scan buffer,
  /// valid until the caller's next scan; the caller's own slot holds its
  /// own most recently written entry. The first collect reads each
  /// register into the buffer and the second collect compares the value
  /// it is served against the buffer in place (same checkpoint, trace
  /// hook and weakened-read resolution as any read), adopting the served
  /// ghost index on equality — so the view is the second collect's, as
  /// the paper's scan returns. In steady state a scan allocates nothing.
  const std::vector<Toggled<T>>& scan() {
    const ProcId me = rt_.self();
    const std::uint64_t inv = record_tick(rt_, recorder_);
    const std::size_t width = static_cast<std::size_t>(n_);
    // Indexed by the scanning process, so concurrent scans by distinct
    // processes (ThreadRuntime) never share a buffer.
    std::vector<Toggled<T>>& snap = snaps_[static_cast<std::size_t>(me)];
    snap.resize(width, last_written_[static_cast<std::size_t>(me)]);

    while (true) {
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) arrow_write(me, j, false);
      }
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) {
          values_[static_cast<std::size_t>(j)]->read_into(
              snap[static_cast<std::size_t>(j)]);
        }
      }
      bool changed = false;
      for (ProcId j = 0; j < n_; ++j) {
        if (j == me) continue;
        Toggled<T>& first = snap[static_cast<std::size_t>(j)];
        const bool same = values_[static_cast<std::size_t>(j)]->read_with(
            [&first](const Toggled<T>& served) {
              if (served != first) return false;
              first.ghost_index = served.ghost_index;
              return true;
            });
        changed = changed || !same;
      }
      bool raised = false;
      for (ProcId j = 0; j < n_ && !raised; ++j) {
        if (j != me && arrow_read(me, j)) raised = true;
      }
      if (!raised && !changed) break;
      retries_.fetch_add(1, std::memory_order_relaxed);
    }

    snap[static_cast<std::size_t>(me)] =
        last_written_[static_cast<std::size_t>(me)];
    if (recorder_ != nullptr) {
      SnapScanRec rec{me, inv, rt_.now(), {}};
      rec.view.reserve(width);
      for (const auto& entry : snap) rec.view.push_back(entry.ghost_index);
      const std::scoped_lock lock(rec_mu_);
      recorder_->add_scan(std::move(rec));
    }
    return snap;
  }

  /// scan() copied out into plain values: `out` is resized to n and
  /// copy-assigned slot by slot, so a reused `out` (with T's heap members
  /// at stable sizes) keeps the scan allocation-free.
  void scan_into(std::vector<T>& out) {
    const std::vector<Toggled<T>>& snap = scan();
    out.resize(snap.size());
    for (std::size_t j = 0; j < snap.size(); ++j) out[j] = snap[j].value;
  }

  /// Total scan-attempt retries across all processes (progress metric for
  /// experiment E1).
  std::uint64_t scan_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  struct ArrowSlot {
    std::unique_ptr<MRMWRegister<bool>> native;
    std::unique_ptr<Bloom2W2R<bool>> bloom;
  };

  ArrowSlot& slot(ProcId i, ProcId j) {
    return arrows_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(j)];
  }

  void arrow_write(ProcId i, ProcId j, bool v) {
    ArrowSlot& s = slot(i, j);
    if (s.native != nullptr) {
      s.native->write(v);
    } else {
      s.bloom->write(v);
    }
  }

  bool arrow_read(ProcId i, ProcId j) {
    ArrowSlot& s = slot(i, j);
    return s.native != nullptr ? s.native->read() : s.bloom->read();
  }

  Runtime& rt_;
  int n_;
  SnapshotHistory* recorder_;
  std::mutex rec_mu_;
  std::vector<Toggled<T>> last_written_;  ///< per-writer local shadow copy
  std::vector<std::vector<Toggled<T>>> snaps_;  ///< per-scanner scan buffer
  std::vector<std::unique_ptr<SWMRRegister<Toggled<T>>>> values_;
  std::vector<ArrowSlot> arrows_;
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace bprc
