// Environment-variable knobs for the experiment harnesses.
//
// Every bench binary runs to completion with no arguments on one core of
// a laptop-class machine; BPRC_SCALE multiplies Monte-Carlo trial counts for
// higher-fidelity runs (e.g. BPRC_SCALE=10 for publication-grade CIs).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace bprc {

/// Reads an integer environment variable, returning `fallback` when unset
/// or empty. An unparseable value (BPRC_JOBS=banana, trailing garbage,
/// out-of-range) aborts with a diagnostic: a knob the user bothered to
/// set and got wrong must not silently degrade to the default — that
/// turns "I benchmarked at 8 jobs" into a lie.
inline std::int64_t env_int(const char* name, std::int64_t fallback) {
  // Harness knobs are read once during startup, before any worker thread
  // exists; nothing in this codebase calls setenv, so the getenv data
  // race clang-tidy guards against cannot occur here.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s='%s' is not a valid integer\n", name, raw);
    std::fflush(stderr);
    std::abort();
  }
  return v;
}

/// Global trial-count multiplier for experiment harnesses.
inline double env_scale() {
  const std::int64_t s = env_int("BPRC_SCALE", 1);
  return s < 1 ? 1.0 : static_cast<double>(s);
}

/// Scales a base trial count by BPRC_SCALE.
inline std::uint64_t scaled_trials(std::uint64_t base) {
  return static_cast<std::uint64_t>(static_cast<double>(base) * env_scale());
}

}  // namespace bprc
