// Arena-backed storage for the enumeration index's relation matrices.
//
// The jump index stores one ∪-reachability BitMatrix per candidate plus two
// wire matrices per box (see enumeration/index.h). Under updates these are
// rebuilt along the changed root path on every edit, so owning vector-backed
// matrices would pay a heap round-trip per matrix per rebuild. Instead the
// index keeps every matrix as a BitsRef — a SpanRef over whole 64-bit words
// plus the (rows, cols) shape — into one BitMatrixPool, reusing the circuit
// arena's power-of-two span recycling (circuit/arena.h). In steady state a
// box-index refresh re-acquires exactly the spans it released, touching no
// heap.
//
// The same invalidation contract as the circuit arena applies: raw views
// into the pool are invalidated by the next Ensure that grows the backing
// store. Rebuilds therefore run in phases — read children into scratch,
// (re)allocate this box's spans, then fill through freshly resolved views.
//
// Alignment contract with the SIMD kernels (util/simd_kernels.h): the pool's
// backing store is 64-byte-aligned and every block is rounded up to a
// multiple of 8 words, so — size classes being powers of two ≥ 8 — every
// block offset stays a multiple of 8 words and every handed-out block starts
// on a cache line. The kernels use unaligned load instructions regardless
// (alignment is a performance contract, not a correctness one).
#ifndef TREENUM_ENUMERATION_INDEX_ARENA_H_
#define TREENUM_ENUMERATION_INDEX_ARENA_H_

#include <algorithm>
#include <cstdint>

#include "circuit/arena.h"
#include "util/bit_matrix.h"
#include "util/check.h"

namespace treenum {

/// A pooled rows x cols bit matrix: a word-span descriptor plus its shape.
/// Resolved against the owning BitMatrixPool; value-copyable like SpanRef.
struct BitsRef {
  SpanRef words;
  uint32_t rows = 0;
  uint32_t cols = 0;
};

/// A flat pool of 64-bit words handing out word-aligned bit blocks for
/// BitsRefs, with the SpanPool size-class recycling.
class BitMatrixPool {
 public:
  /// Makes `ref` a zeroed rows x cols matrix, reusing its current span when
  /// the capacity suffices (the steady-state allocation-free path).
  void Ensure(BitsRef& ref, uint32_t rows, uint32_t cols) {
    uint64_t words = EnsureSpan(ref, rows, cols);
    uint64_t* p = pool_.at(ref.words.off);
    std::fill(p, p + words, uint64_t{0});
  }

  /// Ensure without the zero-fill: entry values are unspecified. Only for
  /// blocks about to be fully overwritten — i.e. compose targets, which
  /// BitMatrixView::ComposeIntoWords writes in every word.
  void EnsureUninit(BitsRef& ref, uint32_t rows, uint32_t cols) {
    EnsureSpan(ref, rows, cols);
  }

  /// Returns ref's span to its size-class free list and clears ref.
  void Release(BitsRef& ref) {
    pool_.Release(ref.words);
    ref.rows = 0;
    ref.cols = 0;
  }

  /// Read view; invalidated by the pool's next growing Ensure.
  BitMatrixView view(const BitsRef& ref) const {
    return BitMatrixView(pool_.at(ref.words.off), ref.rows, ref.cols);
  }
  /// Raw writable words of ref's block (rows * WordsPerRow(cols) words).
  uint64_t* words(const BitsRef& ref) { return pool_.at(ref.words.off); }
  /// Base pointer for resolving many refs without repeated lookups.
  const uint64_t* base() const { return pool_.at(0); }

  void ReserveAdditional(size_t extra) { pool_.ReserveAdditional(extra); }
  size_t size() const { return pool_.size(); }
  StoreBytes bytes() const { return pool_.bytes(); }
  /// See SpanPool::DropRetired.
  void DropRetired() { pool_.DropRetired(); }

  static uint32_t WordsPerRow(uint32_t cols) { return (cols + 63) / 64; }

 private:
  /// Shared (re)allocation: rounds the request up to a multiple of 8 words
  /// (64 bytes) to keep every block offset cache-line-aligned (see the file
  /// comment), sets the shape, and returns the padded word count.
  uint64_t EnsureSpan(BitsRef& ref, uint32_t rows, uint32_t cols) {
    uint64_t words = (uint64_t{rows} * WordsPerRow(cols) + 7) & ~uint64_t{7};
    TREENUM_CHECK(words <= (uint64_t{1} << 31),
                  "index bit matrix exceeds 2^31 words");
    pool_.Ensure(ref.words, static_cast<uint32_t>(words));
    ref.rows = rows;
    ref.cols = cols;
    return words;
  }

  SpanPool<uint64_t, 64> pool_;
};

}  // namespace treenum

#endif  // TREENUM_ENUMERATION_INDEX_ARENA_H_
