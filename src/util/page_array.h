// Copyright 2026 The ONEX Reproduction Authors.
// An array in pages of its own, for buffers sized for a worst case they
// seldom reach: each length's scan storage in the offline build holds
// room for one group per subsequence. The pages are mapped when the
// array is made and unmapped when it dies. Until first written a page
// is zero and takes no memory, and at unmapping it goes back to the
// system at once. Through malloc, such a buffer would come from the
// heap once the allocator has raised its mapping threshold (it does
// after the first large free); its untouched tail would later be handed
// out to other allocations and touched, and the heap's resident size
// would ratchet up with every build (six builds of explore's base in
// one process left 103 MB resident with it malloc'd, 57 MB with it
// mapped).

#ifndef ONEX_UTIL_PAGE_ARRAY_H_
#define ONEX_UTIL_PAGE_ARRAY_H_

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace onex {

template <class T>
class PageArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PageArray() = default;

  /// Maps room for `size` values, all zero. Throws std::bad_alloc when
  /// the mapping fails.
  explicit PageArray(size_t size) : size_(size) {
    if (size == 0) return;
    void* p = ::mmap(nullptr, Bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }

  ~PageArray() {
    if (data_ != nullptr) ::munmap(data_, Bytes());
  }

  PageArray(PageArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  PageArray& operator=(PageArray&& other) noexcept {
    PageArray(std::move(other)).swap(*this);
    return *this;
  }
  PageArray(const PageArray&) = delete;
  PageArray& operator=(const PageArray&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  void swap(PageArray& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }
  size_t Bytes() const { return size_ * sizeof(T); }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace onex

#endif  // ONEX_UTIL_PAGE_ARRAY_H_
