#include "verify/weakmem/recorder.hpp"

#include "util/record_text.hpp"

namespace bprc::weakmem {

namespace {
constexpr const char* kFormat = "bprc-weakmem";
constexpr int kVersion = 1;
constexpr std::string_view kKinds = "LSR";  // indexed by MemAction::Kind

bool read_action(record::Reader& r, Recording* rec) {
  MemAction a;
  std::string kind;
  if (!(r.num(&a.thread) && r.num(&a.seq) && r.num(&a.location) &&
        r.word(&kind) && r.num(&a.order) && r.num(&a.value) && r.num(&a.rf) &&
        r.num(&a.mo) && r.eol())) {
    return false;
  }
  const std::size_t k = kind.size() == 1 ? kKinds.find(kind[0]) : kKinds.npos;
  if (k == kKinds.npos) return r.malformed("unknown kind");
  if (a.thread < 0 || static_cast<std::size_t>(a.thread) >= rec->logs.size()) {
    return r.malformed("thread out of range");
  }
  a.kind = static_cast<MemAction::Kind>(k);
  rec->logs[static_cast<std::size_t>(a.thread)].push_back(a);
  return true;
}

bool read_line(record::Reader& r, Recording* rec, std::size_t* locations,
               std::size_t* actions) {
  const std::string_view key = r.key();
  if (key == "act") return read_action(r, rec);
  if (key == "loc") {
    std::size_t id = 0;
    Recording::Location loc;
    if (!(r.num(&id) && r.num(&loc.initial))) return false;
    if (id != rec->locations.size()) return r.malformed("ids are dense");
    loc.name = r.rest();
    rec->locations.push_back(std::move(loc));
    return true;
  }
  if (!r.once()) return false;
  if (key == "case") {
    if (!(r.word(&rec->case_name) && r.eol())) return false;
    if (rec->case_name == "-") rec->case_name.clear();
    return true;
  }
  if (key == "threads") {
    std::size_t k = 0;
    if (!(r.num(&k) && r.eol())) return false;
    if (k > kMaxArtifactThreads) return r.malformed("at most 4096 threads");
    rec->logs.resize(k);
    return true;
  }
  if (key == "locations") return r.num(locations) && r.eol();
  if (key == "actions") return r.num(actions) && r.eol();
  return r.fail("unknown key: " + std::string(key));
}

}  // namespace

bool save_recording(const Recording& rec, const std::string& path) {
  record::Writer w;
  w.header(kFormat, kVersion);
  w.line("case", rec.case_name.empty() ? "-" : rec.case_name);
  w.line("threads", rec.logs.size());
  w.line("locations", rec.locations.size());
  for (std::size_t i = 0; i < rec.locations.size(); ++i) {
    w.line("loc", i, rec.locations[i].initial, rec.locations[i].name);
  }
  w.line("actions", rec.total_actions());
  for (const auto& log : rec.logs) {
    for (const MemAction& a : log) {
      w.line("act", a.thread, a.seq, a.location,
             kKinds[static_cast<std::size_t>(a.kind)],
             static_cast<int>(a.order), a.value, a.rf, a.mo);
    }
  }
  w.line("end");
  return record::write_file(path, w.take());
}

std::optional<Recording> load_recording(const std::string& path,
                                        std::string* err) {
  const auto text = record::read_file(path, err);
  if (!text.has_value()) return std::nullopt;
  record::Reader r(*text, kFormat, err);
  Recording rec;
  std::size_t locations = 0, actions = 0;
  if (!r.header(kVersion)) return std::nullopt;
  while (r.next() && !r.at_end()) {
    if (!read_line(r, &rec, &locations, &actions)) return std::nullopt;
  }
  if (!r.finish()) return std::nullopt;
  if (rec.locations.size() != locations) {
    r.fail("the locations line declares " + std::to_string(locations) +
           " locations, the record has " +
           std::to_string(rec.locations.size()) + " loc lines");
    return std::nullopt;
  }
  if (rec.total_actions() != actions) {
    r.fail_record("action count does not match the actions line");
    return std::nullopt;
  }
  return rec;
}

bool is_weakmem_artifact(const std::string& path) {
  const auto text = record::read_file(path, nullptr);
  return text.has_value() &&
         record::Reader(*text, kFormat, nullptr).header(kVersion);
}

}  // namespace bprc::weakmem
