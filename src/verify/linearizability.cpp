#include "verify/linearizability.hpp"

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bprc {

namespace {

std::mutex g_recorder_mutex;

std::uint64_t mix64(std::uint64_t x) { return splitmix64(x); }

/// Wing–Gong search over the ops sorted by invocation. The pending ops form
/// a doubly linked list (position n is its sentinel); linearizing an op
/// unlinks it and backtracking relinks it, in LIFO order.
class Search {
 public:
  explicit Search(const std::vector<RegOp>& history)
      : ops_(by_invocation(history, sorted_)),
        n_(history.size()),
        next_(n_ + 1),
        prev_(n_ + 1),
        done_(n_, 0) {
    for (std::size_t i = 0; i <= n_; ++i) {
      next_[i] = i == n_ ? 0 : i + 1;
      prev_[i] = i == 0 ? n_ : i - 1;
    }
  }

  bool run(std::uint64_t initial_value) {
    if (n_ == 0) return true;
    std::vector<Frame> stack;
    stack.reserve(n_);  // one level per linearized op at most
    stack.push_back({initial_value, kNoRes, next_[n_]});
    while (true) {
      Frame& f = stack.back();
      const std::size_t i = next_candidate(f);
      if (i == n_) {  // every candidate of this state failed
        mark_dead(f.value);
        stack.pop_back();
        if (stack.empty()) return false;
        Frame& parent = stack.back();
        untake(parent.cursor);
        parent.cursor = next_[parent.cursor];
        continue;
      }
      const std::uint64_t value = ops_[i].is_write ? ops_[i].value : f.value;
      take(i);
      if (done_count_ == n_) return true;
      if (is_dead(value)) {
        untake(i);
        f.cursor = next_[i];
        continue;
      }
      stack.push_back({value, kNoRes, next_[n_]});
    }
  }

 private:
  static constexpr std::uint64_t kNoRes = ~std::uint64_t{0};

  /// The history itself when it is already in invocation order (as an SC
  /// order's per-location histories are), else a stably sorted copy.
  static std::span<const RegOp> by_invocation(
      const std::vector<RegOp>& history, std::vector<RegOp>& copy) {
    const auto by_inv = [](const RegOp& a, const RegOp& b) {
      return a.inv < b.inv;
    };
    if (std::is_sorted(history.begin(), history.end(), by_inv)) return history;
    copy = history;
    std::stable_sort(copy.begin(), copy.end(), by_inv);
    return copy;
  }

  /// One search level: the register value in this state, and the walk
  /// over its pending ops. While a child level is live, `cursor` is the op
  /// that child linearized.
  struct Frame {
    std::uint64_t value;
    std::uint64_t min_res;  ///< least `res` among pending ops walked so far
    std::size_t cursor;
  };

  /// A memoized dead state, stored exactly: every op before `head` is
  /// done, `head` is pending, and `after` lists the done ops after it.
  /// Those all lie in head's concurrency window, so a dead state costs
  /// O(concurrency), not O(history).
  struct DeadState {
    std::uint64_t value;
    std::size_t head;
    std::vector<std::size_t> after;
  };

  /// Walks the pending list from f.cursor for the next op that may
  /// linearize now: no pending op responded before it was invoked, and a
  /// read must return the current value. Ops come in invocation order, so
  /// an op later in the list responds after this one is invoked; the walk
  /// stops at the first op invoked after the running minimum response.
  std::size_t next_candidate(Frame& f) const {
    for (std::size_t i = f.cursor; i != n_; i = next_[i]) {
      const RegOp& op = ops_[i];
      if (op.inv > f.min_res) break;
      f.min_res = std::min(f.min_res, op.res);
      if (op.is_write || op.value == f.value) return f.cursor = i;
    }
    return f.cursor = n_;
  }

  void take(std::size_t i) {
    next_[prev_[i]] = next_[i];
    prev_[next_[i]] = prev_[i];
    done_[i] = 1;
    hash_ ^= mix64(i);
    ++done_count_;
  }
  void untake(std::size_t i) {
    next_[prev_[i]] = i;
    prev_[next_[i]] = i;
    done_[i] = 0;
    hash_ ^= mix64(i);
    --done_count_;
  }

  /// Memo key of the current done-set (XOR of per-op keys, maintained by
  /// take/untake) with the register value.
  std::uint64_t key(std::uint64_t value) const {
    return hash_ ^ mix64(value ^ 0xA5A5A5A5A5A5A5A5ULL);
  }

  bool is_dead(std::uint64_t value) const {
    if (dead_.empty()) return false;
    const std::size_t head = next_[n_];
    const auto [lo, hi] = dead_.equal_range(key(value));
    for (auto it = lo; it != hi; ++it) {
      const DeadState& s = it->second;
      // Same head and as many done ops after it: equal iff all of the
      // memoized ones are done now.
      if (s.value == value && s.head == head &&
          s.after.size() == done_count_ - head &&
          std::all_of(s.after.begin(), s.after.end(),
                      [&](std::size_t p) { return done_[p] != 0; })) {
        return true;
      }
    }
    return false;
  }

  void mark_dead(std::uint64_t value) {
    DeadState s{value, next_[n_], {}};
    s.after.reserve(done_count_ - s.head);
    for (std::size_t p = s.head + 1; s.after.size() < done_count_ - s.head;
         ++p) {
      if (done_[p]) s.after.push_back(p);
    }
    dead_.emplace(key(value), std::move(s));
  }

  std::vector<RegOp> sorted_;    ///< the sorted copy, when one is needed
  std::span<const RegOp> ops_;  ///< the history, sorted by invocation
  std::size_t n_;
  std::vector<std::size_t> next_, prev_;
  std::vector<char> done_;
  std::size_t done_count_ = 0;
  std::uint64_t hash_ = 0;
  std::unordered_multimap<std::uint64_t, DeadState> dead_;
};

}  // namespace

LinResult check_register_linearizable(const std::vector<RegOp>& history,
                                      std::uint64_t initial_value) {
  for (const RegOp& op : history) {
    BPRC_REQUIRE(op.inv < op.res, "operation interval must be non-empty");
  }
  Search search(history);
  if (search.run(initial_value)) return {true, {}};

  std::string witness = "no linearization exists; history:";
  for (const RegOp& op : history) {
    witness += "\n  p" + std::to_string(op.proc) +
               (op.is_write ? " write(" : " read->") +
               std::to_string(op.value) + (op.is_write ? ")" : "") + " [" +
               std::to_string(op.inv) + "," + std::to_string(op.res) + "]";
  }
  return {false, witness};
}

void RegOpRecorder::append(const RegOp& op) {
  const std::scoped_lock lock(g_recorder_mutex);
  ops_.push_back(op);
}

}  // namespace bprc
