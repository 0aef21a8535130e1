#include "util/record_text.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

namespace bprc::record {

static bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

Reader::Reader(std::string_view text, std::string_view format,
               std::string* err)
    : text_(text), format_(format), err_(err) {}

bool Reader::set_error(std::string message) {
  if (ok_ && err_ != nullptr) *err_ = std::move(message);
  ok_ = false;
  return false;
}

bool Reader::fail(std::string_view what) {
  return set_error(std::string(format_) + " line " +
                   std::to_string(line_no_) + ": " + std::string(what));
}

bool Reader::fail_record(std::string_view what) {
  return set_error(std::string(format_) + ": " + std::string(what));
}

bool Reader::malformed(std::string_view why) {
  std::string what = "malformed " + std::string(key_) + " line";
  if (!why.empty()) what += " (" + std::string(why) + ")";
  return fail(what + ": " + std::string(line_));
}

bool Reader::header(int version) {
  const std::string prefix = std::string(format_) + " v";
  if (raw_line() && line_ == prefix + std::to_string(version)) return true;
  if (line_.substr(0, prefix.size()) == prefix) {
    return fail("unsupported version: " + std::string(line_));
  }
  return fail("not a " + std::string(format_) + " file (missing header)");
}

bool Reader::raw_line() {
  if (!ok_ || pos_ > text_.size()) return false;
  const std::size_t nl = std::min(text_.find('\n', pos_), text_.size());
  line_ = text_.substr(pos_, nl - pos_);
  if (line_.ends_with('\r')) line_.remove_suffix(1);
  pos_ = nl + 1;
  ++line_no_;
  cursor_ = 0;
  return true;
}

bool Reader::next() {
  while (pos_ < text_.size() && raw_line()) {
    if (token(&key_) && key_.front() != '#') return true;
  }
  key_ = {};
  return false;
}

bool Reader::at_end() {
  if (key_ != "end") return false;
  saw_end_ = eol();
  return true;
}

bool Reader::finish() {
  if (ok_ && !saw_end_) fail("truncated record (missing 'end')");
  return ok_;
}

bool Reader::token(std::string_view* out) {
  if (!ok_) return false;
  while (cursor_ < line_.size() && is_space(line_[cursor_])) ++cursor_;
  const std::size_t start = cursor_;
  while (cursor_ < line_.size() && !is_space(line_[cursor_])) ++cursor_;
  *out = line_.substr(start, cursor_ - start);
  return cursor_ > start;
}

bool Reader::hex(std::uint64_t* out) {
  std::string_view tok;
  return (field(&tok) && parse_number(tok, out, 16)) || malformed();
}

bool Reader::flag(bool* out) {
  std::string_view tok;
  if (!field(&tok)) return false;
  if (tok != "0" && tok != "1") return malformed();
  *out = tok == "1";
  return true;
}

bool Reader::word(std::string* out) {
  std::string_view tok;
  if (!field(&tok)) return false;
  out->assign(tok);
  return true;
}

std::string_view Reader::rest() {
  if (cursor_ < line_.size()) ++cursor_;  // the separating space
  const std::string_view tail = line_.substr(cursor_);
  cursor_ = line_.size();
  return tail;
}

bool Reader::eol() {
  std::string_view tok;
  return !token(&tok) ? ok_ : malformed();
}

bool Reader::bits(std::vector<bool>* out) {
  std::string_view tok;
  while (token(&tok)) {
    if (tok != "0" && tok != "1") return malformed("bits only");
    out->push_back(tok == "1");
  }
  return ok_;
}

bool Reader::once() {
  if (!ok_) return false;
  if (std::find(seen_.begin(), seen_.end(), key_) != seen_.end()) {
    return fail("duplicate " + std::string(key_) + " line");
  }
  seen_.push_back(key_);
  return true;
}

void Writer::field(Hex h) {
  char buf[17];
  buf[0] = ' ';
  std::uint64_t v = h.value;
  for (int i = 16; i >= 1; --i, v >>= 4) buf[i] = "0123456789abcdef"[v & 15];
  out_.append(buf, sizeof buf);
}

std::optional<std::string> read_file(const std::string& path,
                                     std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (err != nullptr) *err = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

bool write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_file(const std::string& path, std::string_view text) {
  // Unique per process and call, so concurrent savers never share a temp.
  static std::atomic<unsigned> serial{0};
  const std::string tmp = path + ".tmp-" + std::to_string(::getpid()) + "-" +
                          std::to_string(serial.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  bool ok = write_all(fd, text.data(), text.size()) && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok && ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) ::unlink(tmp.c_str());
  return ok;
}

}  // namespace bprc::record
