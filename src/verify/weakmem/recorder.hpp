// Action-list recording for the native-atomics lane.
//
// The native registers (src/registers/native/) report every primitive
// atomic operation to a MemActionSink. WeakMemRecorder is the standard
// sink: one append-only log per thread (so recording is lock-free on the
// hot path — each OS thread touches only its own vector), plus the
// location table. The resulting Recording is what the offline SC checker
// (sc_checker.hpp) consumes, and what `.bprc-weakmem` artifacts persist:
// an artifact is a complete recorded execution, so replaying it re-runs
// the analysis and reproduces the verdict bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"

namespace bprc::weakmem {

/// The most threads a `.bprc-weakmem` artifact may declare.
inline constexpr std::size_t kMaxArtifactThreads = 4096;

/// A complete recorded native execution: the location table plus one
/// program-ordered action list per thread.
struct Recording {
  struct Location {
    std::string name;
    std::uint64_t initial = 0;  ///< payload version-0 reads observe
  };

  std::vector<Location> locations;
  std::vector<std::vector<MemAction>> logs;  ///< index = thread id
  std::string case_name;                     ///< workload label for reports

  std::size_t total_actions() const {
    std::size_t n = 0;
    for (const auto& log : logs) n += log.size();
    return n;
  }
};

/// MemActionSink that builds a Recording in memory.
///
/// Threading contract (see MemActionSink): on_action and patch_mo touch
/// only logs[a.thread], and each thread is the sole writer of its own
/// log, so no synchronization is needed beyond the run's join.
/// on_location is called at register construction, before threads start.
class WeakMemRecorder final : public MemActionSink {
 public:
  explicit WeakMemRecorder(int nthreads) {
    rec_.logs.resize(static_cast<std::size_t>(nthreads));
  }

  int on_location(const char* name, std::uint64_t initial) override {
    rec_.locations.push_back({name, initial});
    return static_cast<int>(rec_.locations.size()) - 1;
  }

  std::size_t on_action(const MemAction& a) override {
    auto& log = rec_.logs[static_cast<std::size_t>(a.thread)];
    MemAction entry = a;
    entry.seq = static_cast<std::uint32_t>(log.size());
    log.push_back(entry);
    return log.size() - 1;
  }

  void patch_mo(ProcId thread, std::size_t index, std::uint64_t mo) override {
    rec_.logs[static_cast<std::size_t>(thread)][index].mo = mo;
  }

  /// The finished recording. Call only after the run has joined.
  Recording& recording() { return rec_; }
  const Recording& recording() const { return rec_; }

 private:
  Recording rec_;
};

/// Writes `rec` as a `.bprc-weakmem` v1 artifact, a keyed-line record
/// (util/record_text.hpp; unknown keys are refused): `case`, `threads`,
/// `locations`, one `loc id initial name` per location, `actions`, one
/// `act thread seq location L|S|R order value rf mo` per action, `end`.
/// Returns false on I/O failure.
bool save_recording(const Recording& rec, const std::string& path);

/// Parses a `.bprc-weakmem` artifact; nullopt + `err` on malformed input.
std::optional<Recording> load_recording(const std::string& path,
                                        std::string* err);

/// True if the file at `path` starts with the weakmem artifact header
/// (used by bprc_torture --replay to dispatch on artifact kind).
bool is_weakmem_artifact(const std::string& path);

}  // namespace bprc::weakmem
