// Keyed-line record text: the one codec behind every replayable artifact
// (`.bprc-repro`, `.bprc-shard`, `.bprc-frontier`, `.bprc-weakmem`). The
// grammar, shared by all four:
//
//   * Header: the first line is exactly `<format> v<version>`; another
//     version is refused as unsupported.
//   * Keys: every later line is `key field field ...`, single-space
//     separated, ending in LF or CRLF. Blank and `#` lines are skipped.
//   * Strict fields: unsigned numbers take no sign (`seed -1` is an
//     error, not 2^64-1), every token parses whole, and a fixed-arity
//     line ends after its last field. Hex is written as 16 lowercase
//     digits and read as any unsigned base-16 u64. A text field that may
//     hold spaces (`note`, `space`, `loc` names) is the rest of the line.
//   * Whole-line lists: `schedule 0 1 0` is a list running to the end of
//     the line, every element parsed and checked; one bad element rejects
//     the line, never truncates it.
//   * Once-only keys: a single-valued key appears at most once per record
//     (per block, where a format nests blocks) — never a silent overwrite
//     or append.
//   * `end` closes the record; a file that stops before it is truncated.
//   * Diagnostics: `<format> line N: <what>`.
//   * Atomic save: write_file writes a temp file in the target's
//     directory, fsyncs it and renames it over the target, so a process
//     killed mid-save leaves the old file or the new one, never a torn one.
//     The kill may leave the temp file `<path>.tmp-<pid>-<n>`; delete it.
//
// Each format owns its key dispatch and unknown-key policy: repro and
// frontier skip unknown keys (forward compatibility), shard and weakmem
// refuse them (same-build peers). Nothing here branches on the format.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace bprc::record {

/// The strict number rule of every field reader below, also used for the
/// CLIs' numeric options: `tok` must parse whole, with no leading space
/// or `+`, and an unsigned type takes no sign (`-1` is an error, not
/// 2^64-1).
template <class T>
  requires std::integral<T> || std::floating_point<T>
bool parse_number(std::string_view tok, T* out, int base = 10) {
  const char* end = tok.data() + tok.size();
  std::from_chars_result res{};
  if constexpr (std::is_floating_point_v<T>) {
    res = std::from_chars(tok.data(), end, *out);
  } else {
    res = std::from_chars(tok.data(), end, *out, base);
  }
  return res.ec == std::errc() && res.ptr == end;
}

/// Reads one record. Errors are sticky: the first failure writes the
/// diagnostic and every later call fails, so a format's dispatch loop
/// needs one check per line.
class Reader {
 public:
  /// `format` names the format in the header and in diagnostics; `text`
  /// must outlive the reader; `err` may be null.
  Reader(std::string_view text, std::string_view format, std::string* err);

  bool header(int version);  ///< first line == `<format> v<version>`
  /// Advances to the next content line; false at the end or after an error.
  bool next();
  std::string_view key() const { return key_; }
  std::string_view line() const { return line_; }
  bool at_end();  ///< the current line is `end` (which must stand alone)
  bool finish();  ///< after the loop: refuses a record without `end`

  // Field readers: each consumes the next field of the current line and
  // reports a malformed line on failure.
  template <class T>
    requires std::integral<T> || std::floating_point<T>
  bool num(T* out) {
    std::string_view tok;
    return (field(&tok) && parse_number(tok, out)) || malformed();
  }
  bool hex(std::uint64_t* out);
  bool flag(bool* out);  ///< "0" or "1"
  bool word(std::string* out);
  std::string_view rest();  ///< the rest of the line after one space
  bool eol();               ///< the line must end here

  /// The rest of the line as a list; every element must parse and pass
  /// `valid` (if given), else the line is malformed (`why` says how).
  template <std::integral T>
  bool list(std::vector<T>* out,
            std::type_identity_t<bool (*)(T)> valid = nullptr,
            std::string_view why = {}) {
    std::string_view tok;
    while (token(&tok)) {
      T v{};
      if (!parse_number(tok, &v) || (valid != nullptr && !valid(v))) {
        return malformed(why);
      }
      out->push_back(v);
    }
    return ok_;
  }
  bool bits(std::vector<bool>* out);  ///< list of "0"/"1"

  /// Once-only guard for the current key; forget_once() opens a new block.
  bool once();
  void forget_once() { seen_.clear(); }

  bool malformed(std::string_view why = {});  ///< "malformed <key> line ..."
  bool fail(std::string_view what);           ///< "<format> line N: <what>"
  bool fail_record(std::string_view what);    ///< "<format>: <what>"
  bool ok() const { return ok_; }

 private:
  bool raw_line();  ///< the next physical line, blank or not
  bool token(std::string_view* out);
  bool field(std::string_view* out) { return token(out) || malformed(); }
  bool set_error(std::string message);

  std::string_view text_;
  std::string_view format_;
  std::string* err_;  ///< may be null
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
  std::string_view line_;
  std::string_view key_;
  std::size_t cursor_ = 0;
  std::vector<std::string_view> seen_;
  bool saw_end_ = false;
  bool ok_ = true;
};

/// A 64-bit value written as 16 lowercase hex digits.
struct Hex { std::uint64_t value; };

/// Builds one record by appending to a single string.
class Writer {
 public:
  void reserve(std::size_t bytes) { out_.reserve(bytes); }
  void header(std::string_view format, int version) {
    line(format, "v" + std::to_string(version));
  }
  /// One line: the key, then each field (number, bool as 0/1, char,
  /// string, Hex, or vector of numbers) after a space.
  template <class... Fields>
  void line(std::string_view key, const Fields&... fields) {
    out_ += key;
    (field(fields), ...);
    out_ += '\n';
  }
  std::string take() { return std::move(out_); }

 private:
  void field(std::string_view text) {
    out_ += ' ';
    out_ += text;
  }
  void field(Hex h);
  template <std::integral T>
  void field(T v) {
    out_ += ' ';
    if constexpr (std::is_same_v<T, bool>) {
      out_ += v ? '1' : '0';
    } else if constexpr (std::is_same_v<T, char>) {
      out_ += v;
    } else {
      char buf[24];
      out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }
  }
  template <class T>
  void field(const std::vector<T>& values) {
    for (const auto& v : values) field(static_cast<T>(v));
  }

  std::string out_;
};

/// The whole file; nullopt + "cannot open <path>" on failure.
std::optional<std::string> read_file(const std::string& path,
                                     std::string* err);
/// Atomic save, as above. False on any I/O failure (target untouched).
bool write_file(const std::string& path, std::string_view text);
/// write(2) / read(2) the whole buffer, retrying EINTR. False on any
/// other error (or, reading, on EOF first).
bool write_all(int fd, const void* data, std::size_t len);
bool read_all(int fd, void* data, std::size_t len);

}  // namespace bprc::record
