#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/bitvector.h"

namespace sparqlsim::util {

class HierarchicalBitVector;

/// A boolean matrix in CSR form with a rank-indexed row directory.
///
/// This is the in-memory representation of the per-label adjacency matrices
/// F_a / B_a of the graph database (Sect. 3.2 of the paper). The column
/// indices of the non-empty rows are stored back to back (CSR offsets plus a
/// column-index array); empty rows cost no CSR entry. Rows are found by id
/// through a row-presence bitmap with one 32-bit rank per 64-bit word (the
/// number of non-empty rows before that word), so Row(r) is one bit test
/// plus one popcount, never a search.
///
/// Memory is nnz + distinct rows (4 B each) plus rows/8 bytes of presence
/// bitmap and rows/16 bytes of rank. The presence bitmap is the row summary
/// itself: for a forward matrix F_a it is the vector f^a of Eq. (13), and
/// the graph database hands it out instead of keeping a copy.
///
/// The boolean vector-matrix product x *b A (Eq. 9) unions the rows selected
/// by x into a dense accumulator; it adaptively iterates either the set bits
/// of x or the words of x AND the presence bitmap, whichever is cheaper.
/// Column-wise evaluation of the SOI (Sect. 3.3) never needs column access
/// here because the graph database always keeps the transposed matrix:
/// column j of F_a is row j of B_a.
///
/// The matrix is immutable after Build().
class BitMatrix {
 public:
  BitMatrix() = default;

  /// Creates an empty rows x cols matrix (no set bits).
  BitMatrix(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        row_presence_(rows),
        row_rank_(row_presence_.WordCount(), 0),
        row_offsets_{0} {}

  /// Builds a matrix from (row, col) pairs; duplicates are merged.
  /// `entries` is consumed (sorted in place).
  static BitMatrix Build(size_t rows, size_t cols,
                         std::vector<std::pair<uint32_t, uint32_t>>&& entries);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Number of set bits (stored edges).
  size_t Nnz() const { return cols_index_.size(); }
  /// Number of non-empty rows.
  size_t NumNonEmptyRows() const {
    return row_offsets_.empty() ? 0 : row_offsets_.size() - 1;
  }

  /// Sorted column indices of row r (empty span if the row has no bits or
  /// r >= rows()).
  std::span<const uint32_t> Row(size_t r) const {
    if (r >= rows_) return {};
    const size_t w = r / BitVector::kWordBits;
    const uint64_t word = row_presence_.words()[w];
    const uint64_t bit = uint64_t{1} << (r % BitVector::kWordBits);
    if ((word & bit) == 0) return {};
    return RowAt(row_rank_[w] +
                 static_cast<size_t>(__builtin_popcountll(word & (bit - 1))));
  }

  size_t RowDegree(size_t r) const { return Row(r).size(); }
  bool RowAny(size_t r) const { return !Row(r).empty(); }

  /// Calls fn(r, Row(r)) for every non-empty row r in ascending order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    size_t slot = 0;
    row_presence_.ForEachSetBit([&](uint32_t r) { fn(r, RowAt(slot++)); });
  }

  /// Calls fn(Row(r)) for every non-empty row r with x(r) = 1, in
  /// ascending r. `SelT` is BitVector or HierarchicalBitVector (anything
  /// with ForEachSetBit and words() over row indices); `selected` must
  /// equal x.Count(). A small selection walks its set bits (one Row lookup
  /// each); a large one ANDs its words with the presence bitmap. This is
  /// the row walk of both Multiply overloads.
  template <typename SelT, typename Fn>
  void ForEachSelectedRow(const SelT& x, size_t selected, Fn&& fn) const {
    if (selected * 8 < NumNonEmptyRows()) {
      x.ForEachSetBit([&](uint32_t r) {
        const std::span<const uint32_t> row = Row(r);
        if (!row.empty()) fn(row);
      });
      return;
    }
    const uint64_t* presence = row_presence_.words();
    const uint64_t* xw = x.words();
    for (size_t w = 0; w < row_presence_.WordCount(); ++w) {
      uint64_t hits = presence[w] & xw[w];
      while (hits != 0) {
        const uint64_t below = (hits & (~hits + 1)) - 1;
        fn(RowAt(row_rank_[w] + static_cast<size_t>(
                                    __builtin_popcountll(presence[w] & below))));
        hits &= hits - 1;
      }
    }
  }

  /// True iff entry (r, c) is set.
  bool Test(size_t r, size_t c) const;

  /// out = x *b this: the union of all rows r with x(r) = 1 (Eq. 9).
  /// `out` must have size cols(); it is cleared first.
  void Multiply(const BitVector& x, BitVector* out) const;

  /// Same product for a hierarchical selector: the set-bit walk skips x's
  /// zero blocks, so sparse selections (late fixpoint rounds) cost
  /// O(live blocks + selected nnz) instead of O(universe/64). `x_count`
  /// must equal x.Count(); it picks the row walk, and the solver passes
  /// its cached candidate count so a product never pays a popcount.
  /// Output is bit-identical to the BitVector overload.
  void Multiply(const HierarchicalBitVector& x, size_t x_count,
                BitVector* out) const;

  /// True iff row r and the dense vector y share a set bit; this is the
  /// single-pair existence check of Eq. (4), used for column-wise evaluation
  /// and by the baseline algorithms.
  bool RowIntersects(size_t r, const BitVector& y) const;

  /// Bit r set iff row r is non-empty: the row-presence bitmap itself.
  /// For a forward matrix F_a this is the vector f^a of Eq. (13), for a
  /// backward matrix B_a the vector b^a.
  const BitVector& RowSummary() const { return row_presence_; }

  /// Dense summary with bit c set iff column c is non-empty.
  BitVector ColSummary() const;

  /// Number of all-zero columns; the solver's ordering heuristic prefers
  /// inequalities whose matrix has many empty columns (Sect. 3.3).
  size_t CountEmptyColumns() const { return cols_ - ColSummary().Count(); }

  /// Transposed copy (used to derive B_a from F_a).
  BitMatrix Transposed() const;

  /// Approximate heap footprint in bytes.
  size_t ApproxBytes() const;

 private:
  /// Column indices of the slot-th non-empty row.
  std::span<const uint32_t> RowAt(size_t slot) const {
    return {cols_index_.data() + row_offsets_[slot],
            row_offsets_[slot + 1] - row_offsets_[slot]};
  }

  /// Shared body of the two Multiply overloads (instantiated in
  /// bitmatrix.cc, where both selector types are complete).
  template <typename SelT>
  void MultiplyImpl(const SelT& x, size_t selected, BitVector* out) const {
    // Clearing the whole destination is what lets the solver hand in a
    // mask slot still dirty from an earlier round.
    out->ClearAll();
    ForEachSelectedRow(x, selected, [&](std::span<const uint32_t> row) {
      for (uint32_t c : row) out->Set(c);
    });
  }

  size_t rows_ = 0;
  size_t cols_ = 0;
  BitVector row_presence_;             // bit r: row r is non-empty
  std::vector<uint32_t> row_rank_;     // non-empty rows before each word
  std::vector<uint32_t> row_offsets_;  // NumNonEmptyRows() + 1 entries
  std::vector<uint32_t> cols_index_;   // nnz entries, sorted per row
};

}  // namespace sparqlsim::util
