// Small-buffer vector for constraint coefficient rows. `LinExpr` keeps its
// variable/parameter coefficients in a `SmallVec<i64, N>`: tuples up to
// rank N live inline in the expression object (no allocation at all), and
// only larger rows spill to the heap, so the fuzz campaign's millions of
// transient constraint rows never reach the allocator (docs/iset.md records
// what that is worth against `std::vector` rows).
//
// Only the slice of the std::vector API the set algebra actually uses is
// provided (operator[], size, begin/end, assign, push_back, erase,
// equality, copy/move). Element type must be trivially copyable; there is
// no exception-safety subtlety because growth only memcpys PODs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

namespace dhpf::iset {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is for POD coefficient rows only");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;

  SmallVec(const SmallVec& o) { append(o.data_, o.size_); }

  SmallVec(SmallVec&& o) noexcept {
    if (o.on_heap()) {
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.data_ = o.inline_;
      o.size_ = 0;
      o.cap_ = N;
    } else {
      append(o.data_, o.size_);
      o.size_ = 0;
    }
  }

  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      size_ = 0;
      append(o.data_, o.size_);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this == &o) return *this;
    release();
    size_ = 0;
    if (o.on_heap()) {
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.data_ = o.inline_;
      o.size_ = 0;
      o.cap_ = N;
    } else {
      append(o.data_, o.size_);
      o.size_ = 0;
    }
    return *this;
  }

  ~SmallVec() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void assign(std::size_t n, const T& v) {
    reserve(n);
    for (std::size_t i = 0; i < n; ++i) data_[i] = v;
    size_ = n;
  }

  void resize(std::size_t n, const T& v = T{}) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = v;
    size_ = n;
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = v;
  }

  /// Erase the element at `pos` (shift-left; pointers past it invalidate).
  iterator erase(iterator pos) {
    for (T* p = pos; p + 1 < end(); ++p) *p = *(p + 1);
    --size_;
    return pos;
  }

  [[nodiscard]] bool operator==(const SmallVec& o) const {
    if (size_ != o.size_) return false;
    return std::equal(begin(), end(), o.begin());
  }

 private:
  [[nodiscard]] bool on_heap() const { return data_ != inline_; }

  void release() {
    if (on_heap()) {
      ::operator delete(data_);
      data_ = inline_;
      cap_ = N;
    }
  }

  void append(const T* src, std::size_t n) {
    reserve(n);
    if (n != 0) std::memcpy(data_ + size_, src, n * sizeof(T));
    size_ += n;
  }

  void grow(std::size_t need) {
    std::size_t cap = cap_ * 2;
    if (cap < need) cap = need;
    T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    release();
    data_ = fresh;
    cap_ = cap;
  }

  T* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
  T inline_[N];
};

}  // namespace dhpf::iset
