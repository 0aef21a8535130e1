#include "explore/frontier.hpp"

#include <algorithm>
#include <cstdio>

#include "fault/repro.hpp"
#include "runtime/adversary.hpp"

namespace bprc::explore {

namespace {

/// The decimal `stat` lines, in file order. Shared by writer and reader.
struct StatField {
  const char* name;
  std::uint64_t ExploreStats::*field;
};
constexpr StatField kStats[] = {
    {"executions", &ExploreStats::executions},
    {"complete-runs", &ExploreStats::complete_runs},
    {"truncated-runs", &ExploreStats::truncated_runs},
    {"pruned-runs", &ExploreStats::pruned_runs},
    {"states-visited", &ExploreStats::states_visited},
    {"states-merged", &ExploreStats::states_merged},
    {"sleep-pruned", &ExploreStats::sleep_pruned},
    {"sleep-blocked", &ExploreStats::sleep_blocked},
    {"coin-branches", &ExploreStats::coin_branches},
    {"stale-branches", &ExploreStats::stale_branches},
    {"max-trail-depth", &ExploreStats::max_trail_depth},
    {"total-steps", &ExploreStats::total_steps},
    {"worker-crashes", &ExploreStats::worker_crashes},
    {"cache-evictions", &ExploreStats::cache_evictions},
    {"peak-cache-bytes", &ExploreStats::peak_cache_bytes},
};

bool in_mask_range(ProcId p) { return p >= 0 && p < kRunnableMaskBits; }

bool read_stat(record::Reader& r, ExploreStats* s) {
  std::string name;
  if (!r.word(&name)) return false;
  for (const StatField& f : kStats) {
    if (name == f.name) return r.num(&(s->*f.field)) && r.eol();
  }
  if (name == "digest") return r.hex(&s->schedule_digest) && r.eol();
  if (name == "seconds") return r.num(&s->seconds) && r.eol();
  return true;  // unknown stat names: skipped (forward compatibility)
}

bool read_node(record::Reader& r, FrontierNode* node) {
  std::string kind;
  if (!r.word(&kind)) return false;
  if (kind == "c") {
    node->is_coin = true;
    return r.flag(&node->coin_value) && r.num(&node->taken) && r.eol();
  }
  if (kind == "t") {
    node->is_stale = true;
    return r.num(&node->stale_value) && r.num(&node->stale_options) &&
           r.num(&node->taken) && r.eol() &&
           ((node->stale_value >= 0 && node->stale_options >= 2 &&
             node->stale_value < node->stale_options) ||
            r.malformed("stale value out of range"));
  }
  if (kind != "s") return r.malformed("unknown node kind");
  int nops = 0;
  if (!(r.num(&node->chosen) && r.num(&node->taken) &&
        r.hex(&node->candidates) && r.hex(&node->sleep) && r.num(&nops))) {
    return false;
  }
  if (nops < 0 || nops > kRunnableMaskBits) return r.malformed("op count");
  node->ops.resize(static_cast<std::size_t>(nops));
  for (OpDesc& op : node->ops) {
    int kind_id = 0;
    if (!(r.num(&kind_id) && r.num(&op.object) && r.num(&op.payload))) {
      return false;
    }
    if (kind_id < 0 || kind_id > 2) return r.malformed("op kind");
    op.kind = static_cast<OpDesc::Kind>(kind_id);
  }
  return r.eol();
}

}  // namespace

std::string serialize_frontier(const Frontier& frontier) {
  record::Writer w;
  w.reserve(4096 + frontier.cache.size() * 26);
  w.header("bprc-frontier", frontier.version);
  w.line("fingerprint", record::Hex{frontier.fingerprint});
  w.line("complete", frontier.complete);

  const ExploreStats& s = frontier.stats;
  for (const StatField& f : kStats) {
    // stale-branches only when nonzero (weakened semantics), so
    // atomic-mode frontiers keep their historical bytes.
    if (f.field == &ExploreStats::stale_branches && s.stale_branches == 0) {
      continue;
    }
    w.line("stat", f.name, s.*f.field);
  }
  w.line("stat", "digest", record::Hex{s.schedule_digest});
  char seconds[32];
  std::snprintf(seconds, sizeof seconds, "%.9g", s.seconds);
  w.line("stat", "seconds", std::string_view(seconds));

  w.line("trail", frontier.trail.size());
  for (const FrontierNode& node : frontier.trail) {
    if (node.is_coin) {
      w.line("node", "c", node.coin_value, node.taken);
    } else if (node.is_stale) {
      w.line("node", "t", node.stale_value, node.stale_options, node.taken);
    } else {
      std::vector<std::int64_t> ops;  // (kind object payload) per process
      for (const OpDesc& op : node.ops) {
        ops.insert(ops.end(), {static_cast<std::int64_t>(op.kind), op.object,
                               op.payload});
      }
      w.line("node", "s", node.chosen, node.taken, record::Hex{node.candidates},
             record::Hex{node.sleep}, node.ops.size(), ops);
    }
  }

  w.line("violations", frontier.violations.size());
  for (const ExploreViolation& v : frontier.violations) {
    w.line("violation", to_string(v.failure));
    w.line("vschedule", v.schedule);
    w.line("vflips", v.flips);
    // vstales only when non-empty, so atomic-mode frontiers keep their
    // historical bytes.
    if (!v.stales.empty()) w.line("vstales", v.stales);
    std::string note = v.note;
    std::replace_if(
        note.begin(), note.end(), [](char c) { return c == '\n' || c == '\r'; },
        ' ');  // notes stay one line
    w.line("vnote", note);
  }

  w.line("cache", frontier.cache.size());
  for (const auto& [key, depth] : frontier.cache) {
    w.line("seen", record::Hex{key}, static_cast<int>(depth));
  }
  w.line("end");
  return w.take();
}

std::optional<Frontier> parse_frontier(const std::string& text,
                                       std::string* err) {
  record::Reader r(text, "bprc-frontier", err);
  Frontier f;
  // Declared section sizes; each must match the lines that follow.
  std::uint64_t trail = 0, violations = 0, cache = 0;
  const auto read_line = [&]() -> bool {
    const std::string_view key = r.key();
    if (key == "seen") {
      auto& [cache_key, depth] = f.cache.emplace_back();
      return r.hex(&cache_key) && r.num(&depth) && r.eol();
    }
    if (key == "stat") return read_stat(r, &f.stats);
    if (key == "node") return read_node(r, &f.trail.emplace_back());
    if (key == "violation") {
      ExploreViolation& v = f.violations.emplace_back();
      return fault::read_failure_class(r, &v.failure) && r.eol();
    }
    if (key == "vschedule" || key == "vflips" || key == "vstales" ||
        key == "vnote") {
      if (f.violations.empty()) {
        return r.fail(std::string(key) + " without a violation");
      }
      ExploreViolation& v = f.violations.back();
      if (key == "vschedule") {
        return r.list(&v.schedule, in_mask_range, "pick out of range");
      }
      if (key == "vflips") return r.bits(&v.flips);
      if (key == "vstales") return fault::read_stales(r, &v.stales);
      v.note = r.rest();
      return true;
    }
    if (key == "fingerprint") {
      return r.once() && r.hex(&f.fingerprint) && r.eol();
    }
    if (key == "complete") return r.once() && r.flag(&f.complete) && r.eol();
    if (key == "trail") return r.once() && r.num(&trail) && r.eol();
    if (key == "violations") return r.once() && r.num(&violations) && r.eol();
    if (key == "cache") {
      if (!(r.once() && r.num(&cache) && r.eol())) return false;
      // Capped by what the text could hold: a hostile count never
      // allocates more than the file's size.
      f.cache.reserve(std::min<std::uint64_t>(cache, text.size() / 8));
    }
    return true;  // unknown keys: skipped (forward compatibility)
  };
  if (!r.header(f.version)) return std::nullopt;
  while (r.next() && !r.at_end()) {
    if (!read_line()) return std::nullopt;
  }
  if (!r.finish()) return std::nullopt;
  if (f.trail.size() != trail || f.violations.size() != violations ||
      f.cache.size() != cache) {
    r.fail_record("a section's line count differs from its declared count");
    return std::nullopt;
  }
  f.stats.complete = f.complete;
  return f;
}

bool save_frontier(const std::string& path, const Frontier& frontier) {
  return record::write_file(path, serialize_frontier(frontier));
}

std::optional<Frontier> load_frontier(const std::string& path,
                                      std::string* err) {
  const auto text = record::read_file(path, err);
  return text.has_value() ? parse_frontier(*text, err) : std::nullopt;
}

}  // namespace bprc::explore
