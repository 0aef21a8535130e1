#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.hpp"

namespace pb {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string spread(const std::vector<double>& values) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.6g (p25 %.6g .. p75 %.6g, %zu samples)",
                quantile(values, 0.5), quantile(values, 0.25),
                quantile(values, 0.75), values.size());
  return buf;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void print_result(const Result& out) {
  for (const std::string& line : out.notes) {
    std::printf("# %s\n", line.c_str());
  }
  for (const std::string& line : out.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", line.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  // A failed gate reports no numbers: a wrong answer has no speed.
  if (out.correct) {
    bool first = true;
    for (const Metric& m : out.metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", json_escape(m.name).c_str(), m.value,
                  json_escape(m.unit).c_str());
      first = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace pb
