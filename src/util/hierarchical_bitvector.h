#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitvector.h"

namespace sparqlsim::util {

/// A BitVector with one extra summary level: one bit per block of 64
/// words (4096 payload bits), set iff the block contains any set bit.
///
/// Candidate sets chi(v) shrink monotonically during the SOI fixpoint
/// (Sect. 3.2 of the paper), so by the late rounds a full-universe vector
/// is mostly zero words. The summary lets the bulk kernels — AndWith,
/// Count, ForEachSetBit, and the boolean product through
/// BitMatrix::Multiply — skip whole zero blocks instead of word-scanning
/// dead memory, turning their cost from O(universe/64) into
/// O(live blocks). On a 1M-node universe that is 245 summary-guided
/// blocks instead of 15625 words.
///
/// Invariant: summary bit b is set *iff* block b has a nonzero word
/// (exact, not conservative), and the underlying BitVector keeps its own
/// tail invariant (bits at positions >= size() stay zero). The mutator
/// set is deliberately minimal — Set / SetAll / ClearAll / AssignFrom /
/// AndWith — which is everything the solver's monotone-shrink loop
/// needs; there is no single-bit Reset, whose summary maintenance would
/// need a block rescan.
///
/// `blocks_skipped()` counts the zero blocks the AndWith kernels skipped.
/// Only AndWith counts (the solver calls it single-threaded, in the
/// init and merge phases); the const readers stay counter-free so they
/// can be shared by concurrent evaluation tasks without a data race.
class HierarchicalBitVector {
 public:
  static constexpr size_t kWordsPerBlock = 64;
  static constexpr size_t kBitsPerBlock =
      kWordsPerBlock * BitVector::kWordBits;

  HierarchicalBitVector() = default;

  /// A vector of `num_bits` bits, all set to `initial`.
  explicit HierarchicalBitVector(size_t num_bits, bool initial = false);

  /// Adopts an existing BitVector (moved in) and builds its summary.
  explicit HierarchicalBitVector(BitVector bits);

  size_t size() const { return bits_.size(); }

  /// The underlying flat vector, for kernels that take a plain BitVector
  /// (copying a mask, RowIntersects, AndNotWith deltas).
  const BitVector& bits() const { return bits_; }
  /// Raw payload words (BitVector::words() of bits()).
  const uint64_t* words() const { return bits_.words(); }

  /// Moves the flat vector out (the summary is discarded). Used to export
  /// the solved candidate sets into a Solution without copying.
  BitVector TakeBits() && { return std::move(bits_); }

  void Set(size_t i);
  bool Test(size_t i) const { return bits_.Test(i); }
  void SetAll();
  /// Zeroes only the blocks whose summary bit is set: the summary is
  /// exact, so that clears every set bit, and a mostly drained vector pays
  /// O(live blocks) instead of O(universe/64).
  void ClearAll();

  /// Copy-assigns the payload from `src` (reusing capacity) and rebuilds
  /// the summary. Logically `*this = HierarchicalBitVector(copy_of_src)`.
  void AssignFrom(const BitVector& src);

  /// Number of set bits; zero blocks are skipped via the summary.
  size_t Count() const;
  /// True iff any bit is set — scans only the summary words.
  bool Any() const;

  /// this &= other, skipping blocks that are already zero on this side
  /// and draining blocks that are zero on the other side (the
  /// hierarchical overload knows without reading a word of payload).
  /// Returns true iff any bit changed.
  bool AndWith(const BitVector& other);
  bool AndWith(const HierarchicalBitVector& other);

  /// Calls fn(index) for every set bit in ascending order, skipping zero
  /// blocks via the summary. Safe for concurrent readers (const, no
  /// counter updates).
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    const uint64_t* words = bits_.words();
    const size_t word_count = bits_.WordCount();
    for (size_t sw = 0; sw < summary_.size(); ++sw) {
      uint64_t sword = summary_[sw];
      while (sword != 0) {
        const size_t block =
            sw * 64 + static_cast<size_t>(__builtin_ctzll(sword));
        sword &= sword - 1;
        const size_t w_end =
            std::min((block + 1) * kWordsPerBlock, word_count);
        for (size_t w = block * kWordsPerBlock; w < w_end; ++w) {
          uint64_t word = words[w];
          while (word != 0) {
            const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
            fn(static_cast<uint32_t>(w * BitVector::kWordBits + bit));
            word &= word - 1;
          }
        }
      }
    }
  }

  /// Zero blocks skipped by AndWith so far (see class comment).
  uint64_t blocks_skipped() const { return blocks_skipped_; }
  /// Returns and resets the skip counter (stat harvesting at solve end).
  uint64_t TakeBlocksSkipped() {
    uint64_t taken = blocks_skipped_;
    blocks_skipped_ = 0;
    return taken;
  }

 private:
  size_t NumBlocks() const {
    return (bits_.WordCount() + kWordsPerBlock - 1) / kWordsPerBlock;
  }
  /// Recomputes the summary from the payload (ctor / SetAll).
  void RebuildSummary();

  BitVector bits_;
  std::vector<uint64_t> summary_;  // bit b: block b has a nonzero word
  uint64_t blocks_skipped_ = 0;
};

}  // namespace sparqlsim::util
