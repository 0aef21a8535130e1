#include "shard/wire.hpp"

#include "fault/repro.hpp"
#include "util/assert.hpp"

namespace bprc::shard {
namespace {

constexpr std::size_t kHeaderBytes = 5;  // 1 type byte + u32le length

bool read_reason(record::Reader& r, RunResult::Reason* out) {
  std::string name;
  if (!r.word(&name)) return false;
  for (const RunResult::Reason reason :
       {RunResult::Reason::kAllDone, RunResult::Reason::kBudget,
        RunResult::Reason::kNoRunnable, RunResult::Reason::kDeadline}) {
    if (name == to_string(reason)) {
      *out = reason;
      return true;
    }
  }
  return r.malformed("unknown reason");
}

// ---- failure block -------------------------------------------------------

void write_failure(record::Writer& w, const fault::TortureFailure& f) {
  w.line("failure-begin");
  fault::write_run_head(w, f.run);
  fault::write_crashes(w, "plan-crash", f.run.crash_plan);
  fault::write_run_limits(w, f.run);
  // Unlike the user-facing repro format, the wire peers are always the
  // same binary, so the semantics line is unconditional. The space line
  // stays conditional: failure blocks are embedded in `.bprc-shard`
  // FILES, whose historical bytes the fixture tests pin.
  fault::write_semantics(w, f.run);
  fault::write_space(w, f.run);
  w.line("fail-class", to_string(f.failure));
  w.line("fail-reason", to_string(f.reason));
  w.line("schedule", f.schedule);
  if (!f.stales.empty()) w.line("stales", f.stales);
  fault::write_crashes(w, "crash", f.crashes);
  const ConsensusRunResult& r = f.result;
  const MemoryFootprint& fp = r.footprint;
  w.line("res-flags", r.all_decided, r.consistent, r.valid, r.bounded_ok);
  w.line("res-decisions", r.decisions);
  w.line("res-rounds", r.decision_rounds);
  w.line("res-steps", r.total_steps, r.max_proc_steps);
  w.line("res-max-round", r.max_round);
  w.line("res-footprint", fp.bounded, fp.max_round_stored, fp.max_counter,
         fp.coin_locations, fp.static_bound);
  w.line("res-reason", to_string(r.reason));
  w.line("failure-end");
}

/// One line inside a failure block. The wire peers are the same binary,
/// so unknown keys are an error, not a skip.
bool read_failure_line(record::Reader& r, fault::TortureFailure* f) {
  const std::string_view key = r.key();
  if (const auto ok = fault::read_run_line(r, &f->run)) return *ok;
  ConsensusRunResult& res = f->result;
  MemoryFootprint& fp = res.footprint;
  if (key == "crash") return fault::read_crash(r, &f->crashes);
  if (!r.once()) return false;
  if (key == "stales") return fault::read_stales(r, &f->stales);
  if (key == "fail-class") {
    return fault::read_failure_class(r, &f->failure) && r.eol();
  }
  if (key == "fail-reason") return read_reason(r, &f->reason) && r.eol();
  if (key == "schedule") return r.list(&f->schedule);
  if (key == "res-flags") {
    return r.flag(&res.all_decided) && r.flag(&res.consistent) &&
           r.flag(&res.valid) && r.flag(&res.bounded_ok) && r.eol();
  }
  if (key == "res-decisions") return r.list(&res.decisions);
  if (key == "res-rounds") return r.list(&res.decision_rounds);
  if (key == "res-steps") {
    return r.num(&res.total_steps) && r.num(&res.max_proc_steps) && r.eol();
  }
  if (key == "res-max-round") return r.num(&res.max_round) && r.eol();
  if (key == "res-footprint") {
    return r.flag(&fp.bounded) && r.num(&fp.max_round_stored) &&
           r.num(&fp.max_counter) && r.num(&fp.coin_locations) &&
           r.num(&fp.static_bound) && r.eol();
  }
  if (key == "res-reason") return read_reason(r, &res.reason) && r.eol();
  return r.fail("unknown key in failure block: " + std::string(key));
}

/// Reads the lines after `failure-begin` through `failure-end`.
bool read_failure(record::Reader& r, fault::TortureFailure* f) {
  r.forget_once();
  while (r.next()) {
    if (r.key() == "failure-end") return r.eol();
    if (!read_failure_line(r, f)) return false;
  }
  return r.ok() &&
         r.fail("failure block not terminated (missing failure-end)");
}

void write_record(record::Writer& w, std::size_t index,
                  const fault::OutcomeRecord& record) {
  w.line("outcome", index, record.digest, record.steps,
         to_string(record.reason), to_string(record.failure));
  if (record.detail.has_value()) write_failure(w, *record.detail);
}

/// Reads `outcome` lines, each optionally followed by its failure block,
/// until the text or the record (`end`) ends.
bool read_records(record::Reader& r, std::vector<IndexedRecord>* out) {
  while (r.next() && !r.at_end()) {
    if (r.key() == "failure-begin" && !out->empty() &&
        !out->back().second.detail.has_value()) {
      if (!r.eol() || !read_failure(r, &out->back().second.detail.emplace())) {
        return false;
      }
      continue;
    }
    if (r.key() != "outcome") {
      return r.fail("expected an outcome line, got: " + std::string(r.line()));
    }
    IndexedRecord rec;
    fault::OutcomeRecord& o = rec.second;
    if (!(r.num(&rec.first) && r.num(&o.digest) && r.num(&o.steps) &&
          read_reason(r, &o.reason) &&
          fault::read_failure_class(r, &o.failure) && r.eol())) {
      return false;
    }
    out->push_back(std::move(rec));
  }
  return r.ok();
}

}  // namespace

bool write_frame(int fd, MsgType type, const std::string& payload) {
  BPRC_REQUIRE(payload.size() <= 0xFFFFFFFFu, "frame payload too large");
  char header[kHeaderBytes];
  header[0] = static_cast<char>(type);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  header[1] = static_cast<char>(len & 0xFF);
  header[2] = static_cast<char>((len >> 8) & 0xFF);
  header[3] = static_cast<char>((len >> 16) & 0xFF);
  header[4] = static_cast<char>((len >> 24) & 0xFF);
  // Two write calls: the frame need not be atomic on the pipe because
  // each fd has exactly one reader buffering into a FrameReader, and
  // writers on the same fd hold a mutex around the whole call.
  return record::write_all(fd, header, kHeaderBytes) &&
         record::write_all(fd, payload.data(), payload.size());
}

std::optional<Frame> FrameReader::next() {
  if (buf_.size() < kHeaderBytes) return std::nullopt;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[i]));
  };
  const std::uint32_t len = b(1) | (b(2) << 8) | (b(3) << 16) | (b(4) << 24);
  if (buf_.size() < kHeaderBytes + len) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MsgType>(b(0));
  frame.payload = buf_.substr(kHeaderBytes, len);
  buf_.erase(0, kHeaderBytes + len);
  return frame;
}

std::string serialize_record(std::size_t index,
                             const fault::OutcomeRecord& record) {
  record::Writer w;
  write_record(w, index, record);
  return w.take();
}

std::optional<IndexedRecord> parse_record(const std::string& text,
                                          std::string* err) {
  record::Reader r(text, "bprc-shard record", err);
  std::vector<IndexedRecord> records;
  if (!read_records(r, &records)) return std::nullopt;
  if (records.size() != 1) {
    r.fail_record("expected exactly one outcome record");
    return std::nullopt;
  }
  return std::move(records.front());
}

std::string serialize_shard_file(const ShardFile& shard) {
  record::Writer w;
  w.header("bprc-shard", 1);
  w.line("fingerprint", shard.fingerprint);
  w.line("total-runs", shard.total_runs);
  w.line("max-failures", shard.max_failures);
  w.line("skipped-crash-cells", shard.skipped_crash_cells);
  // Optional lines, omitted at zero so shard files of atomic-only,
  // single-budget campaigns keep their historical bytes.
  if (shard.skipped_safe_cells != 0) {
    w.line("skipped-safe-cells", shard.skipped_safe_cells);
  }
  if (shard.skipped_space_cells != 0) {
    w.line("skipped-space-cells", shard.skipped_space_cells);
  }
  w.line("range", shard.begin, shard.end);
  for (const IndexedRecord& rec : shard.records) {
    write_record(w, rec.first, rec.second);
  }
  w.line("end");
  return w.take();
}

std::optional<ShardFile> parse_shard_file(const std::string& text,
                                          std::string* err) {
  record::Reader r(text, "bprc-shard", err);
  ShardFile shard;
  // Fixed header order — this is machine output, not hand-written.
  const auto u64_line = [&](std::string_view key, std::uint64_t* out) {
    return r.next() && r.key() == key && r.num(out) && r.eol();
  };
  const auto optional_line = [&](std::string_view key, std::uint64_t* out) {
    return r.key() != key || (r.num(out) && r.eol() && r.next());
  };
  if (!(r.header(1) && u64_line("fingerprint", &shard.fingerprint) &&
        u64_line("total-runs", &shard.total_runs) &&
        u64_line("max-failures", &shard.max_failures) &&
        u64_line("skipped-crash-cells", &shard.skipped_crash_cells) &&
        r.next() &&
        optional_line("skipped-safe-cells", &shard.skipped_safe_cells) &&
        optional_line("skipped-space-cells", &shard.skipped_space_cells) &&
        r.key() == "range" && r.num(&shard.begin) && r.num(&shard.end) &&
        r.eol() && shard.begin <= shard.end &&
        shard.end <= shard.total_runs)) {
    r.fail("malformed shard header at: " + std::string(r.line()));
    return std::nullopt;
  }
  if (!read_records(r, &shard.records) || !r.finish()) return std::nullopt;
  // The records must be exactly begin, begin+1, ..., end-1.
  bool dense = shard.records.size() == shard.end - shard.begin;
  for (std::size_t i = 0; dense && i < shard.records.size(); ++i) {
    dense = shard.records[i].first == shard.begin + i;
  }
  if (!dense) {
    r.fail_record("records do not cover [" + std::to_string(shard.begin) +
                  ", " + std::to_string(shard.end) + ") in order");
    return std::nullopt;
  }
  return shard;
}

bool save_shard_file(const std::string& path, const ShardFile& shard) {
  return record::write_file(path, serialize_shard_file(shard));
}

std::optional<ShardFile> load_shard_file(const std::string& path,
                                         std::string* err) {
  const auto text = record::read_file(path, err);
  return text.has_value() ? parse_shard_file(*text, err) : std::nullopt;
}

}  // namespace bprc::shard
