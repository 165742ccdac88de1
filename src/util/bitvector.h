#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sparqlsim::util {

/// A fixed-size vector of bits backed by 64-bit words.
///
/// BitVector is the workhorse of the SOI solver: every pattern variable's
/// candidate set chi(v) (the row of the simulation matrix, Sect. 3.2 of the
/// paper) is one BitVector over the database's node universe. All bulk
/// operations are word-parallel; the predicates used in the fixpoint
/// (IntersectsWith, IsSubsetOf) exit early on the first deciding word.
///
/// Bits beyond size() in the last word are kept at zero as a class
/// invariant, so Count(), Any() and word-wise comparisons never need
/// masking on the read path.
class BitVector {
 public:
  static constexpr size_t kWordBits = 64;

  BitVector() = default;

  /// Creates a vector of `num_bits` bits, all set to `initial`.
  explicit BitVector(size_t num_bits, bool initial = false);

  /// Builds a vector of `num_bits` bits with exactly the given indices set.
  static BitVector FromIndices(size_t num_bits,
                               const std::vector<uint32_t>& indices);

  /// Number of bits.
  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }
  size_t WordCount() const { return words_.size(); }

  /// Grows or shrinks to `num_bits`; new bits are zero.
  void Resize(size_t num_bits);

  void Set(size_t i);
  void Reset(size_t i);
  void Assign(size_t i, bool value);
  bool Test(size_t i) const;

  /// Sets the `len` bits starting at `begin` (word-filled, not per-bit);
  /// the run materialization path of GapCodec::Decode.
  void SetRange(size_t begin, size_t len);

  /// Sets all bits to one / zero.
  void SetAll();
  void ClearAll();

  /// Number of set bits.
  size_t Count() const;
  bool Any() const;
  bool None() const { return !Any(); }

  /// this &= other. Returns true iff any bit changed. The change signal is
  /// what drives re-activation of inequalities in the SOI solver.
  bool AndWith(const BitVector& other);
  /// this |= other. Returns true iff any bit changed.
  bool OrWith(const BitVector& other);
  /// this &= ~other. Returns true iff any bit changed.
  bool AndNotWith(const BitVector& other);

  /// True iff this and other share at least one set bit (early exit).
  /// Implements the non-empty-intersection test of Eq. (4) in the paper.
  bool IntersectsWith(const BitVector& other) const;

  /// True iff every set bit of this is also set in other, i.e. this <= other
  /// in the component-wise order used by the system of inequalities.
  bool IsSubsetOf(const BitVector& other) const;

  /// Index of the first set bit, or -1 if none.
  int64_t FindFirst() const;
  /// Index of the first set bit at position > i, or -1 if none.
  int64_t FindNext(size_t i) const;

  /// Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
        fn(static_cast<uint32_t>(w * kWordBits + bit));
        word &= word - 1;
      }
    }
  }

  /// Ascending indices of all set bits.
  std::vector<uint32_t> ToIndexVector() const;

  /// Bit string like "10110", index 0 leftmost. Intended for tests/examples.
  std::string ToString() const;

  /// Raw word access for word-parallel kernels. Writers through
  /// mutable_words() must keep the tail invariant: bits at positions
  /// >= size() in the last word stay zero.
  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const BitVector& a, const BitVector& b) {
    return !(a == b);
  }

 private:
  /// Zeroes the unused high bits of the last word (class invariant).
  void MaskTail();

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace sparqlsim::util
