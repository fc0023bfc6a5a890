// Copy-on-grow flat storage for single-writer / multi-reader sharing.
//
// A CowStore<T> behaves like a std::vector<T> for the (single) writer
// thread, but publishes its backing buffer through an atomic pointer so
// concurrent reader threads can index into it without locking:
//
//  - The writer grows the store geometrically. On growth the old buffer is
//    NOT freed: its contents are memcpy'd into the new buffer, the base
//    pointer is store-released, and the old buffer is retired (kept alive
//    until the store is destroyed or DropRetired() runs). A reader that
//    loaded the base pointer just before a growth keeps reading the old
//    buffer — which still holds the bit-identical data for every element
//    that existed at load time.
//  - Element *mutation* safety is the caller's contract: readers may only
//    touch elements that were fully written before the pointer (or a
//    higher-level snapshot handle) was published to them, and the writer
//    must never mutate an element a reader may still dereference. The term
//    snapshot layer (core/snapshot.h) enforces this with per-node refcounts
//    and epoch-based copy-on-write.
//
// Retired buffers form a geometric series, so total retained memory is at
// most ~2x the live buffer — the price of lock-free readers without hazard
// pointers. That price only buys something once a reader can exist: a
// store that has never been reachable from another thread (e.g. one filled
// inside a constructor, before its owner is published) holds retired
// buffers nobody can read, and its owner frees them with DropRetired().
// Owners that know their final size up front reserve() it once instead of
// growing through the series at all. T must be trivially copyable
// (elements move by memcpy).
#ifndef TREENUM_UTIL_COW_STORE_H_
#define TREENUM_UTIL_COW_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

namespace treenum {

/// Heap bytes held by a set of CowStores: the live buffers (whole
/// capacity) and the retired ones, plus how much of the live capacity holds
/// elements. Accounting for tests and benches.
struct StoreBytes {
  size_t used = 0;     ///< size() elements of the live buffers.
  size_t live = 0;     ///< capacity() elements of the live buffers.
  size_t retired = 0;  ///< Retired buffers, whole.

  size_t total() const { return live + retired; }
  StoreBytes& operator+=(const StoreBytes& o) {
    used += o.used;
    live += o.live;
    retired += o.retired;
    return *this;
  }
};

template <typename T, size_t Align = alignof(T)>
class CowStore {
  static_assert(std::is_trivially_copyable<T>::value,
                "CowStore elements are relocated by memcpy");
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "Align must be a power of two >= alignof(T)");

 public:
  CowStore() = default;
  ~CowStore() { Deallocate(); }

  CowStore(const CowStore&) = delete;
  CowStore& operator=(const CowStore&) = delete;

  CowStore(CowStore&& o) noexcept
      : buf_(o.buf_),
        cap_(o.cap_),
        size_(o.size_.load(std::memory_order_relaxed)),
        retired_(std::move(o.retired_)),
        retired_cap_(o.retired_cap_) {
    base_.store(buf_, std::memory_order_relaxed);
    o.buf_ = nullptr;
    o.base_.store(nullptr, std::memory_order_relaxed);
    o.cap_ = 0;
    o.size_.store(0, std::memory_order_relaxed);
    o.retired_.clear();
    o.retired_cap_ = 0;
  }
  CowStore& operator=(CowStore&& o) noexcept {
    if (this != &o) {
      Deallocate();
      buf_ = o.buf_;
      cap_ = o.cap_;
      size_.store(o.size_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      retired_ = std::move(o.retired_);
      retired_cap_ = o.retired_cap_;
      base_.store(buf_, std::memory_order_relaxed);
      o.buf_ = nullptr;
      o.base_.store(nullptr, std::memory_order_relaxed);
      o.cap_ = 0;
      o.size_.store(0, std::memory_order_relaxed);
      o.retired_.clear();
      o.retired_cap_ = 0;
    }
    return *this;
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return cap_; }
  /// Heap bytes of the live buffer and the retired ones.
  StoreBytes bytes() const {
    return StoreBytes{size() * sizeof(T), cap_ * sizeof(T),
                      retired_cap_ * sizeof(T)};
  }

  /// Writer-side fast access (no atomics; the writer owns buf_).
  T* data() { return buf_; }
  T& operator[](size_t i) { return buf_[i]; }

  /// Reader-safe access: acquire-loads the published base pointer. Safe to
  /// call concurrently with writer growth (not with mutation of element i).
  const T* data() const { return base_.load(std::memory_order_acquire); }
  const T& operator[](size_t i) const { return data()[i]; }

  T& back() { return buf_[size() - 1]; }

  void reserve(size_t n) { EnsureCap(n); }

  /// Grows to n elements, value-initializing the tail (vector semantics);
  /// never shrinks the buffer (size can go down, capacity never does).
  void resize(size_t n) {
    size_t old = size();
    EnsureCap(n);
    for (size_t i = old; i < n; ++i) new (buf_ + i) T();
    size_.store(n, std::memory_order_relaxed);
  }
  /// Grows to n elements, filling the tail with v.
  void resize(size_t n, const T& v) {
    size_t old = size();
    EnsureCap(n);
    for (size_t i = old; i < n; ++i) new (buf_ + i) T(v);
    size_.store(n, std::memory_order_relaxed);
  }

  void push_back(const T& v) {
    size_t n = size();
    EnsureCap(n + 1);
    new (buf_ + n) T(v);
    size_.store(n + 1, std::memory_order_relaxed);
  }

  void clear() { size_.store(0, std::memory_order_relaxed); }

  /// Frees every retired buffer. Writer-side, and only safe when no reader
  /// can still hold a pointer loaded before the last growth — in practice:
  /// the store has never been reachable from another thread (its owner is
  /// still being built and has not been published). Once readers may
  /// exist, retired buffers must stay until the store is destroyed.
  void DropRetired() {
    for (T* p : retired_) FreeBuffer(p);
    retired_.clear();
    retired_cap_ = 0;
  }

 private:
  static T* AllocBuffer(size_t cap) {
    void* p = ::operator new(cap * sizeof(T), std::align_val_t(Align));
    return static_cast<T*>(p);
  }
  static void FreeBuffer(T* p) {
    ::operator delete(p, std::align_val_t(Align));
  }

  void EnsureCap(size_t n) {
    if (n <= cap_) return;
    size_t newcap = cap_ < 8 ? 8 : cap_ * 2;
    if (newcap < n) newcap = n;
    T* nb = AllocBuffer(newcap);
    size_t sz = size();
    if (sz > 0) std::memcpy(nb, buf_, sz * sizeof(T));
    if (buf_ != nullptr) {
      retired_.push_back(buf_);
      retired_cap_ += cap_;
    }
    buf_ = nb;
    cap_ = newcap;
    // Release: the memcpy above happens-before any reader's acquire load.
    base_.store(nb, std::memory_order_release);
  }

  void Deallocate() {
    DropRetired();
    if (buf_ != nullptr) FreeBuffer(buf_);
    buf_ = nullptr;
    base_.store(nullptr, std::memory_order_relaxed);
    cap_ = 0;
    size_.store(0, std::memory_order_relaxed);
  }

  T* buf_ = nullptr;                  ///< Writer's cached base pointer.
  std::atomic<T*> base_{nullptr};     ///< Published base for readers.
  size_t cap_ = 0;
  std::atomic<size_t> size_{0};
  std::vector<T*> retired_;           ///< Old buffers kept for stale readers.
  size_t retired_cap_ = 0;            ///< Summed capacity of retired_.
};

}  // namespace treenum

#endif  // TREENUM_UTIL_COW_STORE_H_
