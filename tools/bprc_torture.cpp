// bprc_torture — fault-injection campaign CLI.
//
// Sweeps (protocol × n × adversary × crash plan × input pattern × seed)
// over the deterministic simulator, checks every consensus invariant
// after each run, and turns any failure into a minimal replayable
// `.bprc-repro` artifact via delta-debugging. See docs/TESTING.md
// ("Torture harness") for the workflow.
//
//   bprc_torture                 full campaign (thousands of runs)
//   bprc_torture --smoke         few hundred runs; the ctest tier-1 mode
//   bprc_torture --inject-bug    run the pipeline against a protocol with
//                                a seeded bug: the campaign must catch it,
//                                shrink it, write the artifact, and replay
//                                it from disk (exit 0 iff all of that worked)
//   bprc_torture --replay F      re-run an artifact; exit 0 iff the
//                                recorded failure class reproduces
//   bprc_torture --list          registered protocols and adversaries
//   bprc_torture --jobs N        shard the sweep over N worker threads
//                                (engine::TrialExecutor). Default:
//                                hardware concurrency; --jobs 1 is the
//                                exact serial path. Failure reports,
//                                artifacts, and the summary digest are
//                                byte-identical at every jobs level.
//                                Forbidden with --replay (replay is
//                                definitionally serial).
//   bprc_torture --workers N     shard the sweep over N forked worker
//                                *processes* under the fault-tolerant
//                                coordinator (src/shard/): a trial that
//                                crashes its worker is retried and, past
//                                the respawn budget, quarantined as a
//                                worker-crash finding instead of killing
//                                the campaign. Digest identical to the
//                                serial run. --reap K turns on the
//                                WorkerReaper chaos harness (SIGKILLs K
//                                workers mid-sweep; digest unaffected).
//   bprc_torture --shard I/K     execute shard I of K in-process and
//                                write a mergeable .bprc-shard file
//   bprc_torture --merge F...    re-fold a full set of shard files into
//                                the exact serial report
//
// SIGINT/SIGTERM anywhere in a sweep flush the partial report — failures
// found so far are shrunk and persisted, the summary and digest print —
// before exiting 130; the coordinator forwards the signal to its workers
// and reaps them first.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "engine/adversaries.hpp"
#include "engine/executor.hpp"
#include "fault/campaign.hpp"
#include "fault/native.hpp"
#include "fault/protocols.hpp"
#include "fault/repro.hpp"
#include "fault/shrink.hpp"
#include "shard/coordinator.hpp"
#include "util/record_text.hpp"
#include "util/space_budget.hpp"
#include "util/stats.hpp"
#include "verify/weakmem/recorder.hpp"
#include "verify/weakmem/sc_checker.hpp"

namespace {

using namespace bprc;
using namespace bprc::fault;

struct Options {
  bool smoke = false;
  bool inject_bug = false;
  bool list = false;
  bool list_protocols = false;
  bool list_adversaries = false;
  bool quiet = false;
  bool verbose = false;
  bool jobs_given = false;
  unsigned jobs = 0;           // 0 = hardware concurrency
  std::string replay_path;
  std::string out_dir = ".";
  std::vector<std::string> protocols;
  std::vector<std::string> adversaries;
  std::vector<RegisterSemantics> semantics;  // empty = atomic-only matrix
  std::vector<SpaceBudget> spaces;           // empty = paper-default budget
  std::vector<int> ns;
  std::uint64_t seeds = 0;     // 0 = mode default
  std::uint64_t seed0 = 1;
  std::uint64_t budget = 0;    // 0 = mode default
  std::int64_t deadline_ms = -1;  // <0 = mode default
  std::size_t max_failures = 8;
  // Process sharding (src/shard/).
  bool workers_given = false;
  unsigned workers = 0;            // coordinator mode worker count
  std::uint64_t reap = 0;          // WorkerReaper kill count
  std::uint64_t reap_seed = 0x5EED;
  int max_respawns = 2;
  std::int64_t heartbeat_ms = -1;  // <0 = coordinator default
  bool shard_given = false;
  std::size_t shard_index = 0;     // --shard I/K
  std::size_t shard_count = 0;
  std::string shard_out;           // --shard-out FILE
  std::vector<std::string> merge_paths;  // --merge F1 F2 ...
  // Native-atomics lane (src/fault/native.hpp).
  bool native = false;
  bool check_sc = false;
  std::string native_case;         // empty = every non-broken case
  int native_iters = 0;            // 0 = case default
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bprc_torture [options]\n"
               "  --smoke            small matrix (tier-1 CI mode)\n"
               "  --inject-bug       pipeline self-test on a seeded bug\n"
               "  --replay FILE      re-run a .bprc-repro artifact\n"
               "  --list             print protocols and adversaries\n"
               "  --list-protocols   print one protocol per line with its\n"
               "                     registry traits (crash tolerance, stale-\n"
               "                     read liveness, safe-read tolerance,\n"
               "                     space sensitivity, ...); the name stays\n"
               "                     the first token for scripts\n"
               "  --list-adversaries print adversary names, one per line\n"
               "  --jobs N           worker threads for the sweep (default:\n"
               "                     hardware concurrency; 1 = serial)\n"
               "  --workers N        worker *processes* under the crash-\n"
               "                     surviving coordinator (digest-identical\n"
               "                     to the serial run)\n"
               "  --reap K           chaos: SIGKILL K workers mid-sweep on a\n"
               "                     seeded schedule (requires --workers)\n"
               "  --reap-seed S      seed for the reaper schedule\n"
               "  --max-respawns N   worker deaths a single trial may cause\n"
               "                     before quarantine (default 2)\n"
               "  --heartbeat-ms MS  worker liveness timeout (coordinator)\n"
               "  --shard I/K        run shard I of K (0-based) and write a\n"
               "                     mergeable shard file\n"
               "  --shard-out FILE   shard file path (default\n"
               "                     shard-I-of-K.bprc-shard)\n"
               "  --merge FILES...   re-fold shard files into the serial\n"
               "                     report (consumes remaining arguments)\n"
               "  --native           run the native-atomics cases on real\n"
               "                     threads (std::atomic registers)\n"
               "  --native-case NAME one native case (implies --native;\n"
               "                     broken cases must be named explicitly)\n"
               "  --check-sc         record every native atomic op and run\n"
               "                     the offline SC checker;\n"
               "                     violations write a replayable\n"
               "                     .bprc-weakmem artifact into --out\n"
               "  --iters N          per-thread iterations for native cases\n"
               "  --protocol NAME    restrict to protocol (repeatable)\n"
               "  --adversary NAME   restrict to adversary (repeatable)\n"
               "  --register-semantics NAME\n"
               "                     sweep under atomic|regular|safe register\n"
               "                     semantics (repeatable; default atomic).\n"
               "                     Under regular/safe the adversary — not a\n"
               "                     PRNG — resolves reads that race a write,\n"
               "                     and the choices land in the artifact so\n"
               "                     --replay is bit-identical\n"
               "  --space SPEC       sweep at a space budget, e.g.\n"
               "                     K=3,b=8 or 'K=2 cycle=2 slots=3'\n"
               "                     (keys K cycle slots b mscale; cycle is\n"
               "                     the multiplier, physical cycle = K*mult;\n"
               "                     repeatable; default = paper budget\n"
               "                     K=2 cycle=3 slots=3 b=4 mscale=4).\n"
               "                     Space-insensitive protocols are skipped\n"
               "                     (and counted) at non-default budgets\n"
               "  --n N              process count, 1..1024 (repeatable)\n"
               "  --seeds K          seeds per sweep cell\n"
               "  --seed S           base seed (default 1)\n"
               "  --budget STEPS     per-run step budget\n"
               "  --deadline-ms MS   per-run wall-clock watchdog (0 = off)\n"
               "  --max-failures K   stop after K failures (default 8)\n"
               "  --out DIR          artifact output directory (default .)\n"
               "  --quiet            suppress per-failure detail\n"
               "  --verbose          per-run step-rate log lines\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bprc_torture: %s needs a value\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  auto bad = [](const char* option, const char* value) {
    std::fprintf(stderr, "bprc_torture: bad %s '%s'\n", option, value);
    return false;
  };
  auto number = [&](int& i, auto* out) {
    const char* v = need_value(i);
    if (v == nullptr) return false;
    return record::parse_number(v, out) || bad(argv[i - 1], v);
  };
  // A thread or process count: refused above engine::kMaxJobs, before
  // anything is started.
  auto count = [&](int& i, unsigned* out) {
    if (!number(i, out)) return false;
    if (*out <= engine::kMaxJobs) return true;
    std::fprintf(stderr, "bprc_torture: %s %u exceeds the ceiling of %u\n",
                 argv[i - 1], *out, engine::kMaxJobs);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--smoke") opt.smoke = true;
    else if (arg == "--inject-bug") opt.inject_bug = true;
    else if (arg == "--list") opt.list = true;
    else if (arg == "--list-protocols") opt.list_protocols = true;
    else if (arg == "--list-adversaries") opt.list_adversaries = true;
    else if (arg == "--jobs") {
      if (!count(i, &opt.jobs)) return false;
      opt.jobs_given = true;
    }
    else if (arg == "--native") opt.native = true;
    else if (arg == "--native-case") {
      if (!(v = need_value(i))) return false;
      opt.native_case = v;
      opt.native = true;
    }
    else if (arg == "--check-sc") opt.check_sc = true;
    else if (arg == "--iters") { if (!number(i, &opt.native_iters)) return false; }
    else if (arg == "--quiet" || arg == "-q") opt.quiet = true;
    else if (arg == "--verbose" || arg == "-v") opt.verbose = true;
    else if (arg == "--replay") { if (!(v = need_value(i))) return false; opt.replay_path = v; }
    else if (arg == "--out") { if (!(v = need_value(i))) return false; opt.out_dir = v; }
    else if (arg == "--protocol") { if (!(v = need_value(i))) return false; opt.protocols.push_back(v); }
    else if (arg == "--register-semantics") {
      if (!(v = need_value(i))) return false;
      RegisterSemantics s;
      if (!register_semantics_from_string(v, &s)) {
        std::fprintf(stderr,
                     "bprc_torture: unknown register semantics '%s' "
                     "(this build knows atomic, regular, safe)\n", v);
        return false;
      }
      opt.semantics.push_back(s);
    }
    else if (arg == "--space") {
      if (!(v = need_value(i))) return false;
      std::string why;
      const auto budget = SpaceBudget::parse(v, &why);
      if (!budget) {
        std::fprintf(stderr, "bprc_torture: bad --space '%s': %s\n", v,
                     why.c_str());
        return false;
      }
      opt.spaces.push_back(*budget);
    }
    else if (arg == "--adversary") { if (!(v = need_value(i))) return false; opt.adversaries.push_back(v); }
    else if (arg == "--n") {
      // A process count: the native lane starts one thread per process.
      int n = 0;
      if (!number(i, &n)) return false;
      if (n < 1 || static_cast<unsigned>(n) > engine::kMaxJobs) {
        std::fprintf(stderr, "bprc_torture: --n %d is outside [1, %u]\n", n,
                     engine::kMaxJobs);
        return false;
      }
      opt.ns.push_back(n);
    }
    else if (arg == "--seeds") { if (!number(i, &opt.seeds)) return false; }
    else if (arg == "--seed") { if (!number(i, &opt.seed0)) return false; }
    else if (arg == "--budget") { if (!number(i, &opt.budget)) return false; }
    else if (arg == "--deadline-ms") { if (!number(i, &opt.deadline_ms)) return false; }
    else if (arg == "--max-failures") { if (!number(i, &opt.max_failures)) return false; }
    else if (arg == "--workers") {
      if (!count(i, &opt.workers)) return false;
      opt.workers_given = true;
    }
    else if (arg == "--reap") { if (!number(i, &opt.reap)) return false; }
    else if (arg == "--reap-seed") { if (!number(i, &opt.reap_seed)) return false; }
    else if (arg == "--max-respawns") { if (!number(i, &opt.max_respawns)) return false; }
    else if (arg == "--heartbeat-ms") { if (!number(i, &opt.heartbeat_ms)) return false; }
    else if (arg == "--shard") {
      if (!(v = need_value(i))) return false;
      const std::string_view text = v;
      const std::size_t slash = text.find('/');
      if (slash == std::string_view::npos ||
          !record::parse_number(text.substr(0, slash), &opt.shard_index) ||
          !record::parse_number(text.substr(slash + 1), &opt.shard_count)) {
        return bad("--shard", v);
      }
      if (opt.shard_index >= opt.shard_count) {
        std::fprintf(stderr,
                     "bprc_torture: --shard wants I/K with 0 <= I < K\n");
        return false;
      }
      opt.shard_given = true;
    }
    else if (arg == "--shard-out") { if (!(v = need_value(i))) return false; opt.shard_out = v; }
    else if (arg == "--merge") {
      // Greedy: every remaining argument is a shard file.
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bprc_torture: --merge needs shard files\n");
        return false;
      }
      while (i + 1 < argc) opt.merge_paths.push_back(argv[++i]);
    }
    else if (arg == "--help" || arg == "-h") { usage(stdout); std::exit(0); }
    else {
      std::fprintf(stderr, "bprc_torture: unknown option %s\n", arg.c_str());
      usage(stderr);
      return false;
    }
  }
  return true;
}

bool validate_names(const Options& opt) {
  // Straight off the registry, not protocol_names(): the listings hide
  // crashes_process protocols (broken-segv) so no sweep stumbles into
  // them, but naming one explicitly is exactly how the shard
  // supervisor's quarantine path is exercised.
  for (const std::string& p : opt.protocols) {
    if (find_protocol(p) == nullptr) {
      std::fprintf(stderr, "bprc_torture: unknown protocol '%s'\n", p.c_str());
      return false;
    }
  }
  const auto& known_advs = engine::adversary_names();
  for (const std::string& a : opt.adversaries) {
    if (std::find(known_advs.begin(), known_advs.end(), a) ==
        known_advs.end()) {
      std::fprintf(stderr, "bprc_torture: unknown adversary '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

// Cooperative interruption: the handler only sets a flag; every sweep
// mode polls it via CampaignConfig::stop_requested and flushes whatever
// it has folded so far (failures shrunk and persisted, summary + digest
// printed) before exiting 130. The coordinator additionally SIGTERMs and
// reaps its workers on the way out.
volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

void install_signal_handlers() {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
}

CampaignConfig build_config(const Options& opt) {
  CampaignConfig config;
  config.protocols = opt.protocols;
  config.adversaries = opt.adversaries;
  config.seed0 = opt.seed0;
  config.max_failures = opt.max_failures;
  config.jobs = opt.jobs;  // 0 = hardware concurrency (the CLI default)
  if (opt.smoke) {
    config.ns = {2, 3};
    config.seeds_per_cell = 1;
    config.max_steps = 8'000'000;
    config.run_deadline = std::chrono::milliseconds(3000);
  } else {
    config.ns = {2, 3, 5};
    config.seeds_per_cell = 3;
    config.max_steps = 40'000'000;
    config.run_deadline = std::chrono::milliseconds(5000);
  }
  if (!opt.ns.empty()) config.ns = opt.ns;
  if (!opt.semantics.empty()) config.semantics = opt.semantics;
  if (!opt.spaces.empty()) config.spaces = opt.spaces;
  if (opt.seeds != 0) config.seeds_per_cell = opt.seeds;
  if (opt.budget != 0) config.max_steps = opt.budget;
  if (opt.deadline_ms >= 0) {
    config.run_deadline = std::chrono::milliseconds(opt.deadline_ms);
  }
  config.stop_requested = [] { return g_stop != 0; };
  return config;
}

std::string artifact_path(const Options& opt, const TortureFailure& fail,
                          std::size_t index) {
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);  // best effort
  std::string path = opt.out_dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += fail.run.protocol + "-" + fail.run.adversary + "-n" +
          std::to_string(fail.run.n()) + "-" + std::to_string(index) +
          ".bprc-repro";
  return path;
}

void print_failure(const TortureFailure& fail, const ShrinkOutcome& shrunk,
                   const std::string& path) {
  std::fprintf(stderr,
               "FAILURE %s: protocol=%s n=%d adversary=%s seed=%llu "
               "reason=%s\n",
               to_string(fail.failure), fail.run.protocol.c_str(),
               fail.run.n(), fail.run.adversary.c_str(),
               static_cast<unsigned long long>(fail.run.seed),
               to_string(fail.reason));
  if (shrunk.reproduced) {
    std::fprintf(stderr,
                 "  shrunk schedule %zu -> %zu picks, %zu crash(es) "
                 "(%d probes)\n",
                 shrunk.original_len, shrunk.schedule.size(),
                 shrunk.crashes.size(), shrunk.probes);
  } else {
    std::fprintf(stderr,
                 "  not deterministically reproducible (reason=%s); "
                 "artifact holds the full trace\n",
                 to_string(fail.reason));
  }
  std::fprintf(stderr, "  artifact: %s  (re-run: bprc_torture --replay %s)\n",
               path.c_str(), path.c_str());
}

/// Shrinks every failure and writes artifacts; returns paths (empty
/// strings for artifacts that failed to write).
std::vector<std::string> process_failures(const Options& opt,
                                          CampaignReport& report) {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    TortureFailure& fail = report.failures[i];
    const ShrinkOutcome shrunk =
        shrink_failure(fail, /*max_probes=*/4000, opt.jobs);
    const Repro repro = make_repro(fail, shrunk.schedule, shrunk.crashes);
    const std::string path = artifact_path(opt, fail, i);
    const bool saved = save_repro(path, repro);
    if (!saved) {
      std::fprintf(stderr, "bprc_torture: cannot write %s\n", path.c_str());
    }
    if (!opt.quiet) print_failure(fail, shrunk, path);
    paths.push_back(saved ? path : std::string{});
  }
  return paths;
}

/// --replay on a `.bprc-weakmem` artifact: re-run the offline analysis
/// on the recorded execution. Exit 0 = the recording is SC (nothing to
/// reproduce); 1 = the non-SC verdict reproduces, witness printed.
int run_weakmem_replay(const std::string& path) {
  std::string err;
  const auto rec = weakmem::load_recording(path, &err);
  if (!rec) {
    std::fprintf(stderr, "bprc_torture: %s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  const weakmem::SCResult res = weakmem::check_sc(*rec);
  std::printf("replay %s\n", path.c_str());
  std::printf("  native case=%s threads=%zu locations=%zu actions=%zu\n",
              rec->case_name.empty() ? "?" : rec->case_name.c_str(),
              rec->logs.size(), rec->locations.size(), rec->total_actions());
  if (res.ok()) {
    std::printf("  observed: SC (checker found no violation)\n");
    return 0;
  }
  std::printf("  observed: %s\n%s\n",
              res.well_formed ? "NON-SC — REPRODUCED" : "MALFORMED RECORDING",
              res.witness.c_str());
  return 1;
}

int run_replay(const std::string& path) {
  if (weakmem::is_weakmem_artifact(path)) return run_weakmem_replay(path);
  std::string err;
  const auto repro = load_repro(path, &err);
  if (!repro) {
    std::fprintf(stderr, "bprc_torture: %s\n", err.c_str());
    return 2;
  }
  const ConsensusRunResult result = replay_repro(*repro);
  std::printf("replay %s\n", path.c_str());
  std::printf("  protocol=%s n=%d recorded-failure=%s\n",
              repro->run.protocol.c_str(), repro->run.n(),
              to_string(repro->failure));
  std::printf("  observed: failure=%s reason=%s steps=%llu decisions=",
              to_string(result.failure()), to_string(result.reason),
              static_cast<unsigned long long>(result.total_steps));
  for (std::size_t i = 0; i < result.decisions.size(); ++i) {
    std::printf("%s%d", i ? "," : "", result.decisions[i]);
  }
  std::printf("\n");
  if (result.failure() == repro->failure) {
    std::printf("  REPRODUCED\n");
    return 0;
  }
  std::printf("  DID NOT REPRODUCE\n");
  return 3;
}

/// --inject-bug: end-to-end self-test of the catch→shrink→persist→replay
/// pipeline against the seeded broken protocol.
int run_inject_bug(const Options& opt) {
  CampaignConfig config = build_config(opt);
  config.protocols = {"broken-racy"};
  if (opt.ns.empty()) config.ns = {2, 3};
  config.max_failures = std::max<std::size_t>(1, opt.max_failures);

  CampaignReport report = run_campaign(config);
  std::printf("inject-bug: %llu runs, %zu failure(s) caught\n",
              static_cast<unsigned long long>(report.runs),
              report.failures.size());
  if (report.failures.empty()) {
    std::fprintf(stderr,
                 "inject-bug: campaign FAILED to catch the seeded bug\n");
    return 1;
  }

  const TortureFailure& fail = report.failures.front();
  const ShrinkOutcome shrunk =
      shrink_failure(fail, /*max_probes=*/4000, opt.jobs);
  if (!shrunk.reproduced) {
    std::fprintf(stderr, "inject-bug: recorded trace did not replay\n");
    return 1;
  }
  std::printf("inject-bug: shrunk %zu -> %zu picks, %zu crash(es)\n",
              shrunk.original_len, shrunk.schedule.size(),
              shrunk.crashes.size());

  const Repro repro = make_repro(fail, shrunk.schedule, shrunk.crashes);
  const std::string path = artifact_path(opt, fail, 0);
  if (!save_repro(path, repro)) {
    std::fprintf(stderr, "inject-bug: cannot write %s\n", path.c_str());
    return 1;
  }
  // Replay through the *file*, not the in-memory object: the round trip
  // is part of what this mode certifies.
  const int replay_rc = run_replay(path);
  if (replay_rc != 0) {
    std::fprintf(stderr, "inject-bug: artifact replay FAILED\n");
    return 1;
  }
  std::printf("inject-bug: OK (artifact %s)\n", path.c_str());
  return 0;
}

/// --verbose observer: one log line per completed run with its simulated
/// step rate. Wall-clock timing only (util/stats.hpp Throughput) — it
/// never feeds back into the simulation, so schedules stay deterministic.
RunObserver make_verbose_observer(Throughput& timer) {
  return [&timer](const TortureRun& run, const ConsensusRunResult& result) {
    std::fprintf(stderr,
                 "  %s/%s n=%d seed=%llu plan=%zu: steps=%llu"
                 " %.2f Msteps/s (%s)\n",
                 run.protocol.c_str(), run.adversary.c_str(), run.n(),
                 static_cast<unsigned long long>(run.seed),
                 run.crash_plan.size(),
                 static_cast<unsigned long long>(result.total_steps),
                 timer.per_second(result.total_steps) * 1e-6,
                 to_string(result.reason));
    timer.reset();
  };
}

/// Common tail of every sweep-producing mode: persist failures, print the
/// summary and the digest witness, map the report to an exit code.
int finish_report(const Options& opt, CampaignReport& report, double secs) {
  process_failures(opt, report);
  std::printf(
      "torture: %llu runs in %.1fs — %zu failure(s), %llu budget abort(s), "
      "%llu deadline abort(s), %llu crash cell(s) skipped (non-crash-"
      "tolerant protocols)\n",
      static_cast<unsigned long long>(report.runs), secs,
      report.failures.size(),
      static_cast<unsigned long long>(report.budget_aborts),
      static_cast<unsigned long long>(report.deadline_aborts),
      static_cast<unsigned long long>(report.skipped_crash_cells));
  if (report.skipped_safe_cells != 0) {
    std::printf(
        "torture: %llu safe-semantics cell(s) skipped (protocol invariants "
        "reject safe-register reads; docs/REGISTER_SEMANTICS.md)\n",
        static_cast<unsigned long long>(report.skipped_safe_cells));
  }
  if (report.skipped_space_cells != 0) {
    std::printf(
        "torture: %llu space cell(s) skipped (protocol layout ignores the "
        "budget; docs/SPACE_BUDGETS.md)\n",
        static_cast<unsigned long long>(report.skipped_space_cells));
  }
  // Independence witness: identical at every --jobs level, every
  // --workers count, and across --shard/--merge round trips (CI diffs
  // this line).
  std::printf("digest=0x%016llx\n",
              static_cast<unsigned long long>(report.summary_digest));
  if (report.interrupted) {
    std::fprintf(stderr,
                 "torture: interrupted — partial results flushed\n");
    return 130;
  }
  return report.ok() ? 0 : 1;
}

/// --native: run native-atomics cases on real threads, graded by the SC
/// checker (--check-sc) and — for the consensus case — the standard
/// oracle. Exit 0 iff every selected case behaved; the ctest native tier
/// passes a broken case on its printed cycle witness.
int run_native_mode(const Options& opt) {
  std::vector<std::string> selected;
  if (!opt.native_case.empty()) {
    if (find_native_case(opt.native_case) == nullptr) {
      std::fprintf(stderr, "bprc_torture: unknown native case '%s'\n",
                   opt.native_case.c_str());
      return 2;
    }
    selected.push_back(opt.native_case);
  } else {
    for (const NativeCaseSpec& spec : native_cases()) {
      if (!spec.broken) selected.push_back(spec.name);
    }
  }

  NativeRunOptions run_opts;
  run_opts.nprocs = opt.ns.empty() ? 4 : opt.ns.front();
  run_opts.seed = opt.seed0;
  run_opts.check_sc = opt.check_sc;
  if (opt.budget != 0) run_opts.max_steps = opt.budget;
  if (opt.native_iters > 0) run_opts.iters = opt.native_iters;
  if (opt.deadline_ms >= 0) {
    run_opts.deadline = std::chrono::milliseconds(opt.deadline_ms);
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);  // best effort

  bool all_ok = true;
  for (const std::string& name : selected) {
    NativeRunOptions case_opts = run_opts;
    if (opt.check_sc) {
      std::string path = opt.out_dir;
      if (!path.empty() && path.back() != '/') path += '/';
      case_opts.artifact_path = path + name + ".bprc-weakmem";
    }
    const NativeOutcome out = run_native_case(name, case_opts);
    std::printf("native %-14s steps=%-8llu reason=%-8s", name.c_str(),
                static_cast<unsigned long long>(out.run.steps),
                to_string(out.run.reason));
    if (out.checked) {
      std::printf(" actions=%-7zu sc=%s", out.recording.total_actions(),
                  out.sc.ok() ? "OK" : "VIOLATION");
    }
    if (out.graded_consensus) {
      std::printf(" oracle=%s", out.consensus.ok()
                                    ? "OK"
                                    : to_string(out.consensus.failure()));
    }
    std::printf("\n");
    if (!out.ok()) {
      all_ok = false;
      if (out.checked && !out.sc.ok()) {
        if (!opt.quiet) std::fprintf(stderr, "%s\n", out.sc.witness.c_str());
        if (!out.artifact.empty()) {
          std::fprintf(stderr,
                       "  artifact: %s  (re-run: bprc_torture --replay %s)\n",
                       out.artifact.c_str(), out.artifact.c_str());
        }
      }
    }
  }
  return all_ok ? 0 : 1;
}

int run_campaign_mode(const Options& opt) {
  const CampaignConfig config = build_config(opt);
  const auto started = std::chrono::steady_clock::now();
  Throughput run_timer;
  CampaignReport report = run_campaign(
      config, opt.verbose ? make_verbose_observer(run_timer) : RunObserver{});
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return finish_report(opt, report, secs);
}

/// --workers N: the fault-tolerant multi-process coordinator.
int run_workers_mode(const Options& opt) {
  shard::ShardServiceConfig config;
  config.campaign = build_config(opt);
  config.workers = opt.workers;
  config.max_respawns = opt.max_respawns;
  config.reaper_kills = opt.reap;
  config.reaper_seed = opt.reap_seed;
  if (opt.heartbeat_ms >= 0) {
    config.heartbeat_timeout = std::chrono::milliseconds(opt.heartbeat_ms);
  }
  if (!opt.quiet) {
    config.log = [](const std::string& msg) {
      std::fprintf(stderr, "supervisor: %s\n", msg.c_str());
    };
  }
  const auto started = std::chrono::steady_clock::now();
  CampaignReport report = shard::run_sharded_campaign(config);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return finish_report(opt, report, secs);
}

/// --shard I/K: execute one range in-process, write the shard file.
int run_shard_mode(const Options& opt) {
  const CampaignConfig config = build_config(opt);
  std::string path = opt.shard_out;
  if (path.empty()) {
    path = "shard-" + std::to_string(opt.shard_index) + "-of-" +
           std::to_string(opt.shard_count) + ".bprc-shard";
  }
  const shard::ShardFile file =
      shard::run_shard(config, opt.shard_index, opt.shard_count);
  if (!shard::save_shard_file(path, file)) {
    std::fprintf(stderr, "bprc_torture: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("shard %zu/%zu: %zu of %llu runs -> %s\n", opt.shard_index,
              opt.shard_count, file.records.size(),
              static_cast<unsigned long long>(file.total_runs), path.c_str());
  if (g_stop != 0) {
    std::fprintf(stderr,
                 "torture: interrupted — shard truncated at index %zu\n",
                 file.end);
    return 130;
  }
  return 0;
}

/// --merge F...: re-fold a full shard set into the serial report.
int run_merge_mode(const Options& opt) {
  std::vector<shard::ShardFile> shards;
  for (const std::string& path : opt.merge_paths) {
    std::string err;
    std::optional<shard::ShardFile> file = shard::load_shard_file(path, &err);
    if (!file) {
      std::fprintf(stderr, "bprc_torture: %s: %s\n", path.c_str(),
                   err.c_str());
      return 2;
    }
    shards.push_back(std::move(*file));
  }
  shard::MergeResult merged = shard::merge_shard_files(shards);
  if (!merged.ok) {
    std::fprintf(stderr, "bprc_torture: merge refused: %s\n",
                 merged.error.c_str());
    return 2;
  }
  return finish_report(opt, merged.report, 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  if (!validate_names(opt)) return 2;

  // Mode conflicts, refused before any work starts.
  const int exclusive_modes = (opt.workers_given ? 1 : 0) +
                              (opt.shard_given ? 1 : 0) +
                              (!opt.merge_paths.empty() ? 1 : 0) +
                              (!opt.replay_path.empty() ? 1 : 0) +
                              (opt.inject_bug ? 1 : 0) +
                              (opt.native ? 1 : 0);
  if (exclusive_modes > 1) {
    std::fprintf(stderr,
                 "bprc_torture: --workers, --shard, --merge, --replay, "
                 "--inject-bug and --native are mutually exclusive\n");
    return 2;
  }
  if (opt.check_sc && !opt.native && opt.replay_path.empty()) {
    std::fprintf(stderr,
                 "bprc_torture: --check-sc only makes sense with --native\n");
    return 2;
  }
  if (opt.workers_given && opt.jobs_given) {
    std::fprintf(stderr,
                 "bprc_torture: --workers (processes) and --jobs (threads) "
                 "cannot be combined; pick one sharding axis\n");
    return 2;
  }
  if (opt.workers_given && opt.workers == 0) {
    std::fprintf(stderr, "bprc_torture: --workers wants N >= 1\n");
    return 2;
  }
  if (opt.reap != 0 && !opt.workers_given) {
    std::fprintf(stderr,
                 "bprc_torture: --reap only makes sense with --workers\n");
    return 2;
  }
  if (!opt.shard_out.empty() && !opt.shard_given) {
    std::fprintf(stderr,
                 "bprc_torture: --shard-out only makes sense with --shard\n");
    return 2;
  }

  if (opt.list) {
    std::printf("protocols:");
    for (const auto& name : protocol_names(/*include_broken=*/true)) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\nadversaries:");
    for (const auto& name : engine::adversary_names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    return 0;
  }
  if (opt.list_protocols || opt.list_adversaries) {
    // Machine-readable (one record per line, name first) for scripts and
    // CI matrices.
    if (opt.list_protocols) {
      // The full registry, traits and all — including crashes_process
      // entries that protocol_names() hides from sweeps. Scripts that
      // want sweep-safe names filter on the traits they care about.
      for (const ProtocolSpec& spec : protocol_registry()) {
        std::printf(
            "%-22s broken=%d crash_tolerant=%d live_under_stale_reads=%d "
            "tolerates_safe_reads=%d space_sensitive=%d crashes_process=%d\n",
            spec.name.c_str(), spec.broken ? 1 : 0, spec.crash_tolerant ? 1 : 0,
            spec.live_under_stale_reads ? 1 : 0,
            spec.tolerates_safe_reads ? 1 : 0, spec.space_sensitive ? 1 : 0,
            spec.crashes_process ? 1 : 0);
      }
    }
    if (opt.list_adversaries) {
      for (const auto& name : engine::adversary_names()) {
        std::printf("%s\n", name.c_str());
      }
    }
    return 0;
  }
  if (!opt.replay_path.empty()) {
    // Replay is a single scripted run; sharding it is meaningless and
    // would only invite divergent expectations. Refuse loudly.
    if (opt.jobs_given) {
      std::fprintf(stderr, "bprc_torture: --jobs cannot be combined with "
                           "--replay (replay is a single serial run)\n");
      return 2;
    }
    return run_replay(opt.replay_path);
  }
  if (opt.inject_bug) return run_inject_bug(opt);
  if (opt.native) return run_native_mode(opt);
  install_signal_handlers();
  if (!opt.merge_paths.empty()) return run_merge_mode(opt);
  if (opt.shard_given) return run_shard_mode(opt);
  if (opt.workers_given) return run_workers_mode(opt);
  return run_campaign_mode(opt);
}
