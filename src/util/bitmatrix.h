#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/bitvector.h"

namespace sparqlsim::util {

class HierarchicalBitVector;

/// A boolean matrix in sparse-row-indexed CSR form.
///
/// This is the in-memory representation of the per-label adjacency matrices
/// F_a / B_a of the graph database (Sect. 3.2 of the paper). Knowledge-graph
/// adjacency matrices are extremely sparse — the paper reports 99% of
/// DBpedia's 65k predicate matrices allocating under 1 MB with
/// gap-length-encoded rows — so this structure stores only non-empty rows:
/// a sorted array of row ids plus CSR offsets into a column-index array.
/// Memory is O(nnz + distinct_rows) regardless of the node-universe size,
/// which is what makes keeping both F_a and its transpose B_a for every
/// label affordable.
///
/// The boolean vector-matrix product x *b A (Eq. 9) unions the rows selected
/// by x into a dense accumulator; it adaptively iterates either the set bits
/// of x or the non-empty row list, whichever is cheaper. Column-wise
/// evaluation of the SOI (Sect. 3.3) never needs column access here because
/// the graph database always keeps the transposed matrix: column j of F_a is
/// row j of B_a.
///
/// The matrix is immutable after Build().
class BitMatrix {
 public:
  BitMatrix() = default;

  /// Creates an empty rows x cols matrix (no set bits).
  BitMatrix(size_t rows, size_t cols) : rows_(rows), cols_(cols) {
    row_offsets_.push_back(0);
  }

  /// Builds a matrix from (row, col) pairs; duplicates are merged.
  /// `entries` is consumed (sorted in place).
  static BitMatrix Build(size_t rows, size_t cols,
                         std::vector<std::pair<uint32_t, uint32_t>>&& entries);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Number of set bits (stored edges).
  size_t Nnz() const { return cols_index_.size(); }
  /// Number of non-empty rows.
  size_t NumNonEmptyRows() const { return rows_index_.size(); }

  /// Sorted ids of all non-empty rows.
  std::span<const uint32_t> NonEmptyRows() const { return rows_index_; }

  /// Sorted column indices of row r (empty span if the row has no bits).
  std::span<const uint32_t> Row(size_t r) const;

  /// Column indices of the slot-th non-empty row (row id
  /// NonEmptyRows()[slot]); O(1), no row-id binary search. Callers
  /// iterating all rows should walk slots, not row ids.
  std::span<const uint32_t> RowBySlot(size_t slot) const {
    return {cols_index_.data() + row_offsets_[slot],
            row_offsets_[slot + 1] - row_offsets_[slot]};
  }

  size_t RowDegree(size_t r) const { return Row(r).size(); }
  bool RowAny(size_t r) const { return !Row(r).empty(); }

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

  /// Dense summary with bit r set iff row r is non-empty. For a forward
  /// matrix F_a this is the vector f^a of Eq. (13).
  BitVector RowSummary() const;

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
  /// Shared body of the two Multiply overloads: `SelT` is BitVector or
  /// HierarchicalBitVector (ForEachSetBit/Test over row indices).
  /// Instantiated in bitmatrix.cc, where both selector types are complete.
  template <typename SelT>
  void MultiplyImpl(const SelT& x, size_t selected, BitVector* out) const {
    // Clearing the whole destination is what lets the solver hand in a
    // mask slot still dirty from an earlier round.
    out->ClearAll();
    // Iterate whichever index is smaller: the set bits of x (with a row
    // lookup each) or the non-empty row list (with a bit test each).
    if (selected * 8 < rows_index_.size()) {
      x.ForEachSetBit([&](uint32_t r) {
        for (uint32_t c : Row(r)) out->Set(c);
      });
    } else {
      for (size_t slot = 0; slot < rows_index_.size(); ++slot) {
        if (!x.Test(rows_index_[slot])) continue;
        for (uint32_t i = row_offsets_[slot]; i < row_offsets_[slot + 1];
             ++i) {
          out->Set(cols_index_[i]);
        }
      }
    }
  }

  /// Index into rows_index_ for row r, or -1 if the row is empty.
  int64_t FindRowSlot(size_t r) const;

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint32_t> rows_index_;   // sorted non-empty row ids
  std::vector<uint32_t> row_offsets_;  // rows_index_.size() + 1 entries
  std::vector<uint32_t> cols_index_;   // nnz entries, sorted per row
};

}  // namespace sparqlsim::util
