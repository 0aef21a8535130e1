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
    scratch_.resize(static_cast<std::size_t>(n_));
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
    const std::uint64_t inv = rt_.now();
    for (ProcId i = 0; i < n_; ++i) {
      if (i != me) arrow_write(i, me, true);
    }
    // The successor entry is built in the writer's shadow copy, which
    // only the writer itself reads: no temporary record.
    Toggled<T>& entry = last_written_[static_cast<std::size_t>(me)];
    advance_toggled(entry, v);
    values_[static_cast<std::size_t>(me)]->write(entry, payload);
    const std::uint64_t res = rt_.now();
    if (recorder_ != nullptr) {
      const std::scoped_lock lock(rec_mu_);
      recorder_->add_write({me, entry.ghost_index, inv, res});
    }
  }

  /// Scan operation of the calling process (§2.2 `function scan`).
  /// Returns an n-wide snapshot view; the caller's own slot holds its own
  /// most recently written value.
  std::vector<T> scan() {
    std::vector<T> view;
    scan_into(view);
    return view;
  }

  /// scan() variant that copy-assigns the snapshot into `out` (resized to
  /// n). In steady state — `out` reused across calls, T's heap members at
  /// stable sizes — the whole scan allocates nothing: the collects land in
  /// per-scanner scratch buffers and the register reads go through
  /// read_into. The consensus hot loop (one scan per protocol step) calls
  /// this directly.
  void scan_into(std::vector<T>& out) {
    const ProcId me = rt_.self();
    const std::uint64_t inv = rt_.now();
    const std::size_t width = static_cast<std::size_t>(n_);
    // Scratch is indexed by the scanning process, so concurrent scans by
    // distinct processes (ThreadRuntime) never share a buffer.
    ScanScratch& scratch = scratch_[static_cast<std::size_t>(me)];
    std::vector<Toggled<T>>& collect1 = scratch.collect1;
    std::vector<Toggled<T>>& collect2 = scratch.collect2;
    collect1.resize(width);
    collect2.resize(width);

    while (true) {
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) arrow_write(me, j, false);
      }
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) {
          values_[static_cast<std::size_t>(j)]->read_into(
              collect1[static_cast<std::size_t>(j)]);
        }
      }
      for (ProcId j = 0; j < n_; ++j) {
        if (j != me) {
          values_[static_cast<std::size_t>(j)]->read_into(
              collect2[static_cast<std::size_t>(j)]);
        }
      }
      bool dirty = false;
      for (ProcId j = 0; j < n_ && !dirty; ++j) {
        if (j != me && arrow_read(me, j)) dirty = true;
      }
      for (ProcId j = 0; j < n_ && !dirty; ++j) {
        if (j != me &&
            collect1[static_cast<std::size_t>(j)] !=
                collect2[static_cast<std::size_t>(j)]) {
          dirty = true;
        }
      }
      if (!dirty) break;
      retries_.fetch_add(1, std::memory_order_relaxed);
    }

    collect2[static_cast<std::size_t>(me)] =
        last_written_[static_cast<std::size_t>(me)];
    const std::uint64_t res = rt_.now();
    if (recorder_ != nullptr) {
      SnapScanRec rec{me, inv, res, {}};
      rec.view.reserve(width);
      for (const auto& entry : collect2) rec.view.push_back(entry.ghost_index);
      const std::scoped_lock lock(rec_mu_);
      recorder_->add_scan(std::move(rec));
    }

    out.resize(width);
    for (std::size_t j = 0; j < width; ++j) {
      out[j] = collect2[j].value;  // copy, not move: scratch keeps capacity
    }
  }

  /// Total scan-attempt retries across all processes (progress metric for
  /// experiment E1).
  std::uint64_t scan_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  /// Double-collect buffers of one scanner, reused across its scans.
  struct ScanScratch {
    std::vector<Toggled<T>> collect1;
    std::vector<Toggled<T>> collect2;
  };

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
  std::vector<ScanScratch> scratch_;      ///< per-scanner, see ScanScratch
  std::vector<std::unique_ptr<SWMRRegister<Toggled<T>>>> values_;
  std::vector<ArrowSlot> arrows_;
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace bprc
