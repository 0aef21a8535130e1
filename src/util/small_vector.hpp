// A small-buffer vector of trivially copyable elements.
//
// Up to N elements live inline, inside the object; larger sizes spill to
// one heap block. The register records of the consensus protocols are
// copied on every simulated read and write, and their fields are bounded
// by the process count (consensus/bprc.hpp), so with the usual sizes
// inline such a copy is one fixed-size block move with no allocator
// traffic. Every size is still accepted: a larger n or SpaceBudget just
// spills, and a spilled vector keeps its block across assignments (like
// std::vector keeps capacity), so steady-state copies stay
// allocation-free on either path.
//
// Value semantics: copy, move, ==, size, [], iteration, assign(n, v),
// initializer-list construction and assignment, push_back.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <type_traits>

#include "util/assert.hpp"

namespace bprc {

template <class T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector copies its elements as raw bytes");
  static_assert(N >= 1 && N < std::numeric_limits<std::uint32_t>::max(),
                "inline capacity out of range");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept : inline_{} {}
  SmallVector(size_type n, const T& v) : SmallVector() { assign(n, v); }
  SmallVector(std::initializer_list<T> il) : SmallVector() {
    assign_range(il.begin(), il.size());
  }
  SmallVector(const SmallVector& o) : SmallVector() { *this = o; }
  SmallVector(SmallVector&& o) noexcept : SmallVector() { steal(o); }
  ~SmallVector() { release(); }

  SmallVector& operator=(const SmallVector& o) {
    if (this == &o) return *this;
    if (!spilled() && !o.spilled()) {
      // The hot case: one fixed-size copy of the whole inline buffer.
      std::memcpy(inline_, o.inline_, sizeof(inline_));
      size_ = o.size_;
    } else {
      assign_range(o.data(), o.size());
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  SmallVector& operator=(std::initializer_list<T> il) {
    assign_range(il.begin(), il.size());
    return *this;
  }

  void assign(size_type n, const T& v) {
    if (n > cap_) reallocate(n, nullptr, 0);
    std::fill_n(data(), n, v);
    size_ = static_cast<std::uint32_t>(n);
  }

  void push_back(const T& v) {
    if (size_ == cap_) reallocate(size_ + 1, data(), size_);
    data()[size_++] = v;
  }

  size_type size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  size_type capacity() const noexcept { return cap_; }

  T* data() noexcept { return spilled() ? heap_ : inline_; }
  const T* data() const noexcept { return spilled() ? heap_ : inline_; }

  T& operator[](size_type i) noexcept { return data()[i]; }
  const T& operator[](size_type i) const noexcept { return data()[i]; }
  T& back() noexcept { return data()[size_ - 1]; }
  const T& back() const noexcept { return data()[size_ - 1]; }

  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  bool spilled() const noexcept { return cap_ > N; }

  void release() noexcept {
    if (spilled()) std::allocator<T>().deallocate(heap_, cap_);
  }

  /// Moves to a heap block with room for n > capacity() elements, copying
  /// the first `count` elements of `src` into it (src may point into the
  /// old block). Capacity at least doubles, so a vector that keeps growing
  /// (the unbounded baseline's coin list) reallocates O(log n) times.
  void reallocate(size_type n, const T* src, size_type count) {
    constexpr size_type kMax = std::numeric_limits<std::uint32_t>::max();
    BPRC_REQUIRE(n <= kMax, "SmallVector size exceeds its 32-bit size field");
    const size_type cap =
        std::min(std::max(n, 2 * static_cast<size_type>(cap_)), kMax);
    T* block = std::allocator<T>().allocate(cap);
    if (count != 0) std::memcpy(block, src, count * sizeof(T));
    release();
    heap_ = block;
    cap_ = static_cast<std::uint32_t>(cap);
  }

  void assign_range(const T* src, size_type n) {
    if (n > cap_) {
      reallocate(n, src, n);
    } else if (n != 0) {
      std::memmove(data(), src, n * sizeof(T));
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Takes o's contents (its heap block when spilled); o ends up empty
  /// and inline. Requires *this to own no block.
  void steal(SmallVector& o) noexcept {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.spilled()) {
      heap_ = o.heap_;
    } else {
      std::memcpy(inline_, o.inline_, sizeof(inline_));
    }
    o.size_ = 0;
    o.cap_ = static_cast<std::uint32_t>(N);
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = static_cast<std::uint32_t>(N);  ///< > N iff spilled
  union {
    T inline_[N];
    T* heap_;
  };
};

}  // namespace bprc
