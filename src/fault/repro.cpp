#include "fault/repro.hpp"

#include <algorithm>

#include "engine/adversaries.hpp"
#include "fault/protocols.hpp"

namespace bprc::fault {

namespace {

std::string join_ints(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(v[i]);
  }
  return out;
}

/// Generative replay instantiates the adversary by name; a scripted one
/// keeps it as provenance only (the explorer writes `adversary explore`).
/// Checked on the `adversary` and the `mode` line, whichever comes last.
bool generative_adversary_known(record::Reader& r, const Repro& repro) {
  const std::string& name = repro.run.adversary;
  const auto& names = engine::adversary_names();
  return !repro.generative || name.empty() ||
         std::ranges::find(names, name) != names.end() ||
         r.fail("unknown adversary '" + name + "' for generative replay");
}

bool read_repro_line(record::Reader& r, Repro* repro) {
  const std::string_view key = r.key();
  if (const auto ok = read_run_line(r, &repro->run)) {
    return *ok &&
           (key != "adversary" || generative_adversary_known(r, *repro));
  }
  if (key == "crash") return read_crash(r, &repro->crashes);
  if (key == "failure") {
    return r.once() && read_failure_class(r, &repro->failure) && r.eol();
  }
  if (key == "note") {
    if (r.once()) repro->note = r.rest();
    return r.ok();
  }
  if (key == "mode") {
    std::string mode;
    repro->generative = true;  // the only mode; any other is refused
    return r.once() && r.word(&mode) && r.eol() &&
           (mode == "generative" || r.malformed("unknown replay mode")) &&
           generative_adversary_known(r, *repro);
  }
  if (key == "flips") return r.once() && r.bits(&repro->flips);
  if (key == "stale-reads") return r.once() && read_stales(r, &repro->stales);
  if (key == "schedule") return r.once() && r.list(&repro->schedule);
  return true;  // unknown keys: skipped for forward compatibility
}

}  // namespace

std::optional<bool> read_run_line(record::Reader& r, TortureRun* run) {
  const std::string_view key = r.key();
  if (key == "plan-crash") return read_crash(r, &run->crash_plan);
  // Refused here, not aborted on in replay: unknown protocols, non-bits.
  if (key == "protocol") {
    return r.once() && r.word(&run->protocol) && r.eol() &&
           (find_protocol(run->protocol) != nullptr ||
            r.fail("unknown protocol '" + run->protocol + "'"));
  }
  if (key == "inputs") {
    return r.once() &&
           r.list(&run->inputs, [](int v) { return v == 0 || v == 1; },
                  "inputs are bits");
  }
  if (key == "adversary") {
    return r.once() && r.word(&run->adversary) && r.eol();
  }
  if (key == "seed") return r.once() && r.num(&run->seed) && r.eol();
  if (key == "max-steps") return r.once() && r.num(&run->max_steps) && r.eol();
  if (key == "semantics") {
    // Reject, never guess: an unknown register model would replay a
    // different run and report its verdict as the recorded one.
    std::string name;
    return r.once() && r.word(&name) && r.eol() &&
           (register_semantics_from_string(name, &run->semantics) ||
            r.fail("unrecognized register semantics '" + name +
                   "' (this build knows atomic, regular, safe): " +
                   std::string(r.line())));
  }
  if (key != "space") return std::nullopt;
  // Same rule: a mangled budget is never replaced by the default.
  if (!r.once()) return false;
  std::string why;
  const auto parsed = SpaceBudget::parse(std::string(r.rest()), &why);
  if (parsed.has_value()) run->space = *parsed;
  return parsed.has_value() || r.malformed(why);
}

bool read_crash(record::Reader& r,
                std::vector<CrashPlanAdversary::Crash>* out) {
  CrashPlanAdversary::Crash crash{};
  if (!(r.num(&crash.at_step) && r.num(&crash.victim) && r.eol())) {
    return false;
  }
  out->push_back(crash);
  return true;
}

bool read_stales(record::Reader& r, std::vector<int>* out) {
  return r.list(out, [](int c) { return c >= 0; }, "choices are >= 0");
}

bool read_failure_class(record::Reader& r, FailureClass* out) {
  std::string name;
  if (!r.word(&name)) return false;
  // failure_class_from_string maps unknown names to kNone; tell a
  // genuine "none" from garbage by round-tripping.
  *out = failure_class_from_string(name);
  return name == to_string(*out) || r.malformed("unknown failure class");
}

void write_run_head(record::Writer& w, const TortureRun& run) {
  w.line("protocol", run.protocol);
  w.line("inputs", run.inputs);
  w.line("adversary", run.adversary);
}

void write_run_limits(record::Writer& w, const TortureRun& run) {
  w.line("seed", run.seed);
  w.line("max-steps", run.max_steps);
}

void write_semantics(record::Writer& w, const TortureRun& run) {
  w.line("semantics", to_string(run.semantics));
}

void write_space(record::Writer& w, const TortureRun& run) {
  if (!run.space.is_default()) w.line("space", run.space.to_string());
}

void write_crashes(record::Writer& w, std::string_view key,
                   const std::vector<CrashPlanAdversary::Crash>& crashes) {
  for (const auto& crash : crashes) w.line(key, crash.at_step, crash.victim);
}

std::string serialize_repro(const Repro& repro) {
  record::Writer w;
  w.header("bprc-repro", repro.version);
  write_run_head(w, repro.run);
  write_run_limits(w, repro.run);
  // The weak-register and space lines are omitted at their defaults so
  // historical artifacts keep their exact bytes.
  if (repro.run.semantics != RegisterSemantics::kAtomic) {
    write_semantics(w, repro.run);
  }
  write_space(w, repro.run);
  w.line("failure", to_string(repro.failure));
  if (!repro.note.empty()) w.line("note", repro.note);
  if (repro.generative) w.line("mode", "generative");
  write_crashes(w, "plan-crash", repro.run.crash_plan);
  write_crashes(w, "crash", repro.crashes);
  if (!repro.flips.empty()) w.line("flips", repro.flips);
  if (!repro.stales.empty()) w.line("stale-reads", repro.stales);
  w.line("schedule", repro.schedule);
  w.line("end");
  return w.take();
}

std::optional<Repro> parse_repro(const std::string& text, std::string* err) {
  // A malformed artifact must be rejected, never mis-replayed: a half-read
  // schedule would replay a *different* run and report its verdict as the
  // recorded one. The codec's strict fields and once-only keys enforce it.
  record::Reader r(text, "bprc-repro", err);
  Repro repro;
  if (!r.header(repro.version)) return std::nullopt;
  while (r.next() && !r.at_end()) {
    if (!read_repro_line(r, &repro)) return std::nullopt;
  }
  if (!r.finish()) return std::nullopt;

  const int n = repro.run.n();
  const auto reject = [&](const std::string& what) -> std::optional<Repro> {
    r.fail_record(what);
    return std::nullopt;
  };
  if (repro.run.protocol.empty() || repro.run.inputs.empty()) {
    return reject("missing protocol or inputs");
  }
  if (repro.generative && repro.run.adversary.empty()) {
    return reject("generative replay without an adversary");
  }
  if (repro.run.max_steps == 0) return reject("missing max-steps");
  if (n > kRunnableMaskBits) {
    // Replay depends on the simulator's O(1) runnable digest being
    // authoritative for every recorded pick; a wider configuration would
    // replay outside that validated envelope. Refuse loudly instead.
    return reject("recorded n=" + std::to_string(n) +
                  " exceeds this build's runnable-bitmask width (" +
                  std::to_string(kRunnableMaskBits) +
                  " processes); cannot replay this artifact");
  }
  for (const ProcId p : repro.schedule) {
    if (p < 0 || p >= n) return reject("schedule entry out of range");
  }
  for (const auto& crash : repro.crashes) {
    if (crash.victim < 0 || crash.victim >= n) {
      return reject("crash victim out of range");
    }
  }
  if (!repro.stales.empty() &&
      repro.run.semantics == RegisterSemantics::kAtomic) {
    // Choices that can never be consumed mean the artifact lost (or never
    // had) its semantics line — replaying it atomically would not be the
    // recorded run.
    return reject("stale-reads present but semantics is atomic");
  }
  return repro;
}

bool save_repro(const std::string& path, const Repro& repro) {
  return record::write_file(path, serialize_repro(repro));
}

std::optional<Repro> load_repro(const std::string& path, std::string* err) {
  const auto text = record::read_file(path, err);
  return text.has_value() ? parse_repro(*text, err) : std::nullopt;
}

ConsensusRunResult replay_repro(const Repro& repro) {
  if (repro.generative) {
    // Re-execute with the original adversary and seed — the only faithful
    // replay when no schedule could be recorded (worker-killing trials).
    return execute_run(repro.run, std::chrono::nanoseconds::zero(),
                       /*schedule=*/nullptr, /*crashes=*/nullptr);
  }
  return replay_run(repro.run, repro.schedule, repro.crashes,
                    /*reuse=*/nullptr,
                    repro.flips.empty() ? nullptr : &repro.flips,
                    repro.stales);
}

Repro make_repro(const TortureFailure& fail,
                 const std::vector<ProcId>& schedule,
                 const std::vector<CrashPlanAdversary::Crash>& crashes) {
  Repro repro;
  repro.run = fail.run;
  repro.failure = fail.failure;
  repro.schedule = schedule;
  repro.crashes = crashes;
  repro.stales = fail.stales;
  if (fail.failure == FailureClass::kWorkerCrash) {
    // The trial killed its worker before any trace could be streamed
    // back; only a generative re-execution reproduces it.
    repro.generative = true;
    repro.note = "trial killed its worker process (quarantined); "
                 "generative replay will re-trigger the crash";
    return repro;
  }
  std::string note = "reason=";
  note += to_string(fail.reason);
  note += " decisions=";
  note += join_ints(fail.result.decisions);
  repro.note = note;
  return repro;
}

}  // namespace bprc::fault
