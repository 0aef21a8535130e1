// Self-contained, replayable failure artifacts (`.bprc-repro` files).
//
// An artifact freezes everything a failing torture run needs to be
// re-executed bit-for-bit in the deterministic simulator: protocol name,
// process inputs, seed, step budget, the (minimized) schedule, and the
// crash events. It is a keyed-line record (grammar, strictness and atomic
// save: util/record_text.hpp), hand-editable for manual bisection (see
// docs/TESTING.md):
//
//   bprc-repro v1
//   protocol broken-racy
//   inputs 0 1
//   adversary round-robin        # provenance: the strategy that found it
//   seed 7
//   max-steps 2000000
//   semantics regular            # optional: register semantics (default
//                                # atomic; docs/REGISTER_SEMANTICS.md)
//   space K=3 cycle=3 slots=4 b=8 mscale=4
//                                # optional: space budget (default = the
//                                # paper's; docs/SPACE_BUDGETS.md)
//   failure consistency
//   note decisions=0,1
//   crash 37 0                   # zero or more: at_step victim
//   flips 0 1 1                  # optional: forced local-coin flip prefix
//   stale-reads 1 0 1            # optional: recorded stale-read choices
//   schedule 0 1 0 1 1 0
//   end
//
// Unknown keys are skipped (forward compatibility). `flips` carries the
// coin-flip prefix the exploration driver (src/explore/) resolved by hand;
// replay re-forces it through a ScriptedFlipTape. `semantics` and
// `stale-reads` exist only for weak-register artifacts and `space` only at
// a non-default budget, so older artifacts keep their bytes. A semantics,
// budget or failure class this build does not recognize is rejected with
// a diagnostic, never guessed at.
#pragma once

#include <optional>
#include <string>

#include "fault/campaign.hpp"
#include "util/record_text.hpp"

namespace bprc::fault {

struct Repro {
  int version = 1;
  TortureRun run;  ///< crash_plan holds provenance only; replay uses `crashes`
  FailureClass failure = FailureClass::kNone;
  std::vector<CrashPlanAdversary::Crash> crashes;
  std::vector<ProcId> schedule;
  std::vector<bool> flips;  ///< forced flip prefix; empty = seed-derived
  /// Recorded stale-read choices (run.semantics != kAtomic only); empty =
  /// every weakened read resolves to the atomic answer.
  std::vector<int> stales;
  std::string note;  ///< free-form one-liner about the observed violation
  /// Generative replay (`mode generative` line): re-execute the run with
  /// its original adversary and seed instead of a scripted schedule. This
  /// is how kWorkerCrash quarantine artifacts stay replayable — the trial
  /// killed the process that would have recorded its schedule, but
  /// (adversary, seed) regenerate the identical run. Replaying one is
  /// expected to re-kill the replayer; that is the reproduction.
  bool generative = false;
};

std::string serialize_repro(const Repro& repro);

/// Parses serialize_repro output; nullopt + `err` message on malformed
/// input (user-supplied files must not abort the process).
std::optional<Repro> parse_repro(const std::string& text, std::string* err);

/// File wrappers over record::read_file / record::write_file (atomic).
bool save_repro(const std::string& path, const Repro& repro);
std::optional<Repro> load_repro(const std::string& path, std::string* err);

/// Re-executes the artifact in the simulator.
ConsensusRunResult replay_repro(const Repro& repro);

/// Builds the artifact for a (possibly shrunk) failure.
Repro make_repro(const TortureFailure& fail,
                 const std::vector<ProcId>& schedule,
                 const std::vector<CrashPlanAdversary::Crash>& crashes);

// ---- The TortureRun block ----------------------------------------------
// Shared by `.bprc-repro` and the shard wire's failure block
// (src/shard/wire.cpp). The two keep their historical line orders, so
// each writer calls the per-line emitters itself.

/// Parses the current line into `run` if its key belongs to the block
/// (protocol, inputs, adversary, plan-crash, seed, max-steps, semantics,
/// space): true if it parsed; nullopt for any other key.
std::optional<bool> read_run_line(record::Reader& r, TortureRun* run);
/// Readers shared with the formats around the block: an `at_step victim`
/// crash, appended; stale-read choices (each >= 0); a failure-class name.
bool read_crash(record::Reader& r,
                std::vector<CrashPlanAdversary::Crash>* out);
bool read_stales(record::Reader& r, std::vector<int>* out);
bool read_failure_class(record::Reader& r, FailureClass* out);

/// Emitters: protocol/inputs/adversary; seed/max-steps; semantics; space
/// (nothing at the default budget); one `<key> at_step victim` per crash.
void write_run_head(record::Writer& w, const TortureRun& run);
void write_run_limits(record::Writer& w, const TortureRun& run);
void write_semantics(record::Writer& w, const TortureRun& run);
void write_space(record::Writer& w, const TortureRun& run);
void write_crashes(record::Writer& w, std::string_view key,
                   const std::vector<CrashPlanAdversary::Crash>& crashes);

}  // namespace bprc::fault
