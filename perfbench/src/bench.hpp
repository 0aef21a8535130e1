// Shared vocabulary of the repository benchmark: run options, the result
// every workload fills in, and the small timing/statistics helpers the
// workloads share. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Set-up is repeated this many times per run and reported as a median.
inline constexpr int kSetupRepeats = 21;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports. A failed correctness gate clears
/// `correct` and records why; the driver then prints no numbers.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< why `correct` is false
  std::vector<std::string> notes;   ///< human-readable context lines

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A correctness gate: records `why` and clears `correct` unless `ok`.
  void require(bool ok, const std::string& why) {
    if (!ok) {
      correct = false;
      errors.push_back(why);
    }
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Exact sample quantile by linear interpolation (q in [0, 1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// "median (p25..p75, k samples)" of a sample, for notes.
std::string spread(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

std::string hex64(std::uint64_t v);

// Workloads. `run_*` is the untraced measurement behind the end-to-end
// metrics; `trace_*` is the traced pass behind the per-layer metrics.
void run_campaign(const Options& opt, Result& out);
void run_explore(const Options& opt, Result& out);
void run_weakmem(const Options& opt, Result& out);
void trace_campaign(Result& out);
/// Returns the seen-cache entry count of the explored cell.
std::uint64_t trace_explore(Result& out);
void trace_weakmem(const Options& opt, Result& out);

/// Per-layer micro-probes that need no workload pass (fiber switch,
/// scan, coin, strip). `cache_entries` sizes the seen-cache probe.
void trace_probes(std::uint64_t cache_entries, Result& out);

/// Prints `out` as the final JSON line (plus notes and errors before it).
void print_result(const Result& out);

}  // namespace pb
