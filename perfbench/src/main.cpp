// perfbench: the repository benchmark.
//
//   perfbench --workload campaign|explore|weakmem --seed N --seconds S
//             --trace 0|1 [--git-sha SHA]
//
// --trace 0 measures the named workload untraced and reports its
// end-to-end metrics. --trace 1 runs the traced passes of all three
// workloads plus the layer probes and reports every per-layer metric, so
// that each traced run carries the whole cost model. The last line of
// standard output is the JSON result; a failed correctness gate exits 1
// and reports no numbers. perfbench/run.py builds this binary and runs it.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "campaign|explore|weakmem --seed N --seconds S --trace 0|1 "
               "[--git-sha SHA]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(flag);
  return v;
}

/// Benchmarks of unoptimized or sanitizer-instrumented code measure the
/// instrumentation, not the program; refuse them.
const char* refused_build() {
#if !defined(NDEBUG)
  return "built without NDEBUG (a Debug build)";
#endif
  // GCC defines no macro for UBSan, so read the flags the build used.
  if (std::string(PB_CXX_FLAGS).find("-fsanitize") != std::string::npos) {
    return "sanitizer build";
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  std::string git_sha = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(value, "bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(value, "bad --seconds"));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(value, "bad --trace");
      if (t > 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
      have_trace = true;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload != "campaign" && opt.workload != "explore" &&
      opt.workload != "weakmem") {
    usage("--workload must be campaign, explore or weakmem");
  }
  if (!have_trace) usage("--trace is required");
  if (const char* why = refused_build()) {
    std::fprintf(stderr, "perfbench: refusing to benchmark: %s\n", why);
    return 2;
  }

  pb::Result out;
  out.note("provenance: nproc " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", compiler " + PB_COMPILER + ", build type " + PB_BUILD_TYPE +
           ", flags" + PB_CXX_FLAGS + ", git sha " + git_sha);
  out.note("run: workload " + opt.workload + ", seed " +
           std::to_string(opt.seed) + ", seconds " +
           std::to_string(opt.seconds) + ", trace " +
           (opt.trace ? "1" : "0"));
  if (opt.trace) {
    pb::trace_campaign(out);
    const std::uint64_t cache_entries = pb::trace_explore(out);
    pb::trace_weakmem(opt, out);
    pb::trace_probes(cache_entries, out);
  } else if (opt.workload == "campaign") {
    pb::run_campaign(opt, out);
  } else if (opt.workload == "explore") {
    pb::run_explore(opt, out);
  } else {
    pb::run_weakmem(opt, out);
  }
  pb::print_result(out);
  return out.correct ? 0 : 1;
}
