#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitmatrix.h"
#include "util/bitvector.h"

namespace sparqlsim::util {

/// A counted boolean vector-matrix product: maintains, for one matrix A
/// and a *shrinking* row-selection x, the per-column cover counts
///
///     counts[c] = |{ r : x(r) = 1 and A(r, c) = 1 }|
///
/// together with the product bit-vector  result = x *b A  (bit c set iff
/// counts[c] > 0, exactly the union-of-selected-rows of Eq. (9) in the
/// paper).
///
/// This is the amortization behind HHK-style simulation algorithms applied
/// to the paper's matrix formulation: because the SOI fixpoint only ever
/// *removes* bits from chi(rhs), a re-evaluation of `lhs <= rhs *b A` does
/// not need to re-union every selected row — it can decrement counts along
/// the rows that *left* the selection (Retract) and clear exactly the
/// columns whose count reaches zero. Per-round cost becomes proportional
/// to the removal delta instead of to nnz of the selected submatrix.
///
/// The accumulator is a plain value type; the solver keeps one per matrix
/// inequality (lazily, from the second row-wise evaluation on) alongside a
/// snapshot of the selection it was built against.
///
/// Counts are stored as 16-bit lanes by default — cover counts above 65535
/// need a column covered by more selected rows than most per-label
/// matrices have rows, so the narrow lanes halve^2 the footprint of the
/// per-inequality state the incremental tier keeps resident. The fallback
/// is exact: the first increment that would overflow a lane widens every
/// count to 32 bits before applying it, and the accumulator stays wide
/// (sticky) until it is re-sized for a different matrix. Every observable
/// count is identical to what a plain uint32 array would hold.
class CountedAccumulator {
 public:
  /// Rebuilds counts/result from scratch for the given selection. Cost:
  /// the nnz of the selected rows plus clearing the *previous* product's
  /// columns (counts is zero wherever the product bit is clear — a class
  /// invariant — so a full O(cols) wipe is only ever paid on first use).
  /// `SelT` is BitVector or HierarchicalBitVector (see
  /// BitMatrix::ForEachSelectedRow); `selected_count` must equal its
  /// Count() and picks the row walk, like BitMatrix::Multiply.
  template <typename SelT>
  void Rebuild(const BitMatrix& a, const SelT& selected,
               size_t selected_count) {
    if (counts16_.size() != a.cols()) {
      wide_ = false;
      counts32_.clear();
      counts32_.shrink_to_fit();
      counts16_.assign(a.cols(), 0);
      result_.Resize(a.cols());
      result_.ClearAll();
    } else {
      WipeLive();
    }
    // Same adaptive row walk as Multiply.
    a.ForEachSelectedRow(selected, selected_count,
                         [&](std::span<const uint32_t> row) { AddRow(row); });
  }

  /// Removes `removed` rows from the selection: decrements counts along
  /// each removed row and clears the columns whose count hits zero.
  /// Every removed row must have been part of the selection the counts
  /// were built/retracted to (the solver guarantees this by construction:
  /// removed = previous chi(rhs) minus current chi(rhs), and chi only
  /// shrinks). Cost: O(nnz of the removed rows). Returns the number of
  /// columns cleared.
  size_t Retract(const BitMatrix& a, const BitVector& removed);

  /// The product x *b A for the current selection x.
  const BitVector& result() const { return result_; }

  /// Cover count of column c (test/debug accessor). Exact regardless of
  /// lane width.
  uint32_t count(size_t c) const {
    return wide_ ? counts32_[c] : counts16_[c];
  }

  /// True once an overflow forced the 32-bit lanes (test/debug accessor).
  bool wide() const { return wide_; }

 private:
  void AddRow(std::span<const uint32_t> row) {
    for (uint32_t c : row) Increment(c);
  }

  void Increment(uint32_t c) {
    if (!wide_) {
      uint16_t& narrow = counts16_[c];
      if (narrow != UINT16_MAX) {
        if (narrow++ == 0) result_.Set(c);
        return;
      }
      Widen();
    }
    if (counts32_[c]++ == 0) result_.Set(c);
  }

  /// Returns the decremented count of column c.
  uint32_t Decrement(uint32_t c) {
    return wide_ ? --counts32_[c] : static_cast<uint32_t>(--counts16_[c]);
  }

  /// Copies every 16-bit lane into 32-bit lanes; called at most once per
  /// matrix size (wide_ is sticky until the accumulator is re-sized).
  void Widen();

  /// Rebuild's incremental wipe, fused into one pass: counts is zero
  /// wherever the previous product bit is clear (class invariant), so
  /// walking result_'s nonzero words zeroes each set bit's count lane and
  /// the word itself without a second O(cols/64) ClearAll sweep.
  void WipeLive();

  bool wide_ = false;
  std::vector<uint16_t> counts16_;  // primary lanes (authoritative iff !wide_)
  std::vector<uint32_t> counts32_;  // overflow lanes (authoritative iff wide_)
  BitVector result_;
};

}  // namespace sparqlsim::util
