// PodVector: contiguous storage for trivially copyable elements that grows
// with realloc.
//
// std::vector grows by allocating a new block, copying every element into
// it and then freeing the old one, so at each doubling it holds the old
// block, fully resident, and one twice its size at once. For blocks large
// enough to be mmapped, realloc instead remaps the pages in place (mremap),
// so growth neither copies the elements landed so far nor holds two
// blocks. A rack capture lands tens of MB of headers and a fleet run
// over 100 MB of Scuba rows, and both grow one element at a time, so both
// store them here.
//
// The read API is the subset of std::vector's that analyses use (data,
// size, iterators, indexing, front/back), and a PodVector converts
// implicitly to std::span<const T>. Elements are never constructed or
// destroyed beyond a byte copy, which is what restricts T to trivially
// copyable types.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace fbdcsim::core {

template <typename T>
class PodVector {
  static_assert(std::is_trivially_copyable_v<T>, "PodVector grows with realloc");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  /// The smallest capacity a growing PodVector allocates.
  static constexpr std::size_t kMinCapacity = 1024;

  PodVector() = default;
  PodVector(const PodVector& other) { append(other); }
  PodVector(PodVector&& other) noexcept
      : data_{std::exchange(other.data_, nullptr)},
        size_{std::exchange(other.size_, 0)},
        capacity_{std::exchange(other.capacity_, 0)} {}
  PodVector& operator=(const PodVector& other) {
    if (this != &other) {
      clear();
      append(other);
    }
    return *this;
  }
  PodVector& operator=(PodVector&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }
  ~PodVector() { std::free(data_); }

  void push_back(const T& value) {
    if (size_ == capacity_) [[unlikely]] {
      const T copy = value;  // `value` may live in the block realloc frees
      grow(size_ + 1);
      std::construct_at(data_ + size_++, copy);
      return;
    }
    std::construct_at(data_ + size_++, value);
  }

  /// Appends a copy of `values`, which may be a view of this PodVector.
  void append(std::span<const T> values) {
    const T* from = values.data();
    const std::size_t n = values.size();
    if (size_ + n > capacity_) {
      const std::less<const T*> before;
      const bool own = !before(from, data_) && before(from, data_ + size_);
      const std::size_t offset = own ? static_cast<std::size_t>(from - data_) : 0;
      grow(size_ + n);
      if (own) from = data_ + offset;
    }
    std::uninitialized_copy(from, from + n, data_ + size_);
    size_ += n;
  }

  /// Empties the vector and keeps its block.
  void clear() noexcept { size_ = 0; }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] T& front() noexcept { return data_[0]; }
  [[nodiscard]] const T& front() const noexcept { return data_[0]; }
  [[nodiscard]] T& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data_[size_ - 1]; }

  // NOLINTNEXTLINE(google-explicit-constructor): a read view, as std::vector has
  operator std::span<const T>() const noexcept { return {data_, size_}; }

 private:
  /// Doubles the capacity, or grows it to `needed` if that is more.
  void grow(std::size_t needed) {
    const std::size_t capacity = std::max({needed, 2 * capacity_, kMinCapacity});
    void* grown = std::realloc(data_, capacity * sizeof(T));
    if (grown == nullptr) throw std::bad_alloc{};
    data_ = static_cast<T*>(grown);
    capacity_ = capacity;
  }

  T* data_{nullptr};
  std::size_t size_{0};
  std::size_t capacity_{0};
};

}  // namespace fbdcsim::core
