#include "util/bitmatrix.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "util/counted_accumulator.h"
#include "util/hierarchical_bitvector.h"
#include "util/rng.h"

namespace sparqlsim::util {
namespace {

BitMatrix MakeFigureMatrix() {
  // F_born_in of Fig. 2(a) in the paper: nodes are
  // 0=place, 1=director1, 2=director2, 3=coworker, 4=movie;
  // edges director1 -> place, director2 -> place.
  return BitMatrix::Build(5, 5, {{1, 0}, {2, 0}});
}

TEST(BitMatrixTest, BuildAndAccess) {
  BitMatrix m = MakeFigureMatrix();
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.Nnz(), 2u);
  EXPECT_TRUE(m.Test(1, 0));
  EXPECT_TRUE(m.Test(2, 0));
  EXPECT_FALSE(m.Test(0, 1));
  EXPECT_EQ(m.NumNonEmptyRows(), 2u);
}

TEST(BitMatrixTest, BuildMergesDuplicates) {
  BitMatrix m = BitMatrix::Build(3, 3, {{0, 1}, {0, 1}, {2, 2}});
  EXPECT_EQ(m.Nnz(), 2u);
}

TEST(BitMatrixTest, PaperExampleProducts) {
  // Sect. 3.2: chi(director) = 11111, multiplied by F_born_in gives 10000;
  // chi(place) = 11111 multiplied by B_born_in gives 01100.
  BitMatrix fwd = MakeFigureMatrix();
  BitMatrix bwd = fwd.Transposed();
  BitVector all(5, true);
  BitVector out(5);
  fwd.Multiply(all, &out);
  EXPECT_EQ(out.ToString(), "10000");
  bwd.Multiply(all, &out);
  EXPECT_EQ(out.ToString(), "01100");
}

TEST(BitMatrixTest, MultiplySelectsRows) {
  BitMatrix m = BitMatrix::Build(4, 4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  BitVector x = BitVector::FromIndices(4, {0, 2});
  BitVector out(4);
  m.Multiply(x, &out);
  EXPECT_EQ(out.ToIndexVector(), (std::vector<uint32_t>{1, 3}));
}

TEST(BitMatrixTest, MultiplyEmptySelection) {
  BitMatrix m = MakeFigureMatrix();
  BitVector x(5);
  BitVector out(5, true);
  m.Multiply(x, &out);
  EXPECT_TRUE(out.None());
}

TEST(BitMatrixTest, RowIntersects) {
  BitMatrix m = BitMatrix::Build(3, 5, {{0, 1}, {0, 3}, {2, 4}});
  BitVector y = BitVector::FromIndices(5, {3});
  EXPECT_TRUE(m.RowIntersects(0, y));
  EXPECT_FALSE(m.RowIntersects(1, y));
  EXPECT_FALSE(m.RowIntersects(2, y));
}

TEST(BitMatrixTest, Summaries) {
  BitMatrix m = MakeFigureMatrix();
  EXPECT_EQ(m.RowSummary().ToString(), "01100");  // f^born_in of Fig. 2(a)
  EXPECT_EQ(m.ColSummary().ToString(), "10000");  // b^born_in
  EXPECT_EQ(m.CountEmptyColumns(), 4u);
}

TEST(BitMatrixTest, TransposeRoundTrip) {
  Rng rng(5);
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (int i = 0; i < 300; ++i) {
    entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(40)),
                         static_cast<uint32_t>(rng.NextBounded(60)));
  }
  BitMatrix m = BitMatrix::Build(40, 60, std::move(entries));
  BitMatrix tt = m.Transposed().Transposed();
  EXPECT_EQ(m.Nnz(), tt.Nnz());
  for (size_t r = 0; r < 40; ++r) {
    for (size_t c = 0; c < 60; ++c) {
      EXPECT_EQ(m.Test(r, c), tt.Test(r, c));
    }
  }
}

TEST(BitMatrixTest, MultiplyMatchesNaive) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    size_t rows = 1 + rng.NextBounded(80);
    size_t cols = 1 + rng.NextBounded(80);
    std::vector<std::pair<uint32_t, uint32_t>> entries;
    size_t nnz = rng.NextBounded(200);
    for (size_t i = 0; i < nnz; ++i) {
      entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(rows)),
                           static_cast<uint32_t>(rng.NextBounded(cols)));
    }
    std::vector<std::pair<uint32_t, uint32_t>> copy = entries;
    BitMatrix m = BitMatrix::Build(rows, cols, std::move(entries));

    BitVector x(rows);
    for (size_t r = 0; r < rows; ++r) {
      if (rng.NextBool(0.4)) x.Set(r);
    }
    BitVector expected(cols);
    for (const auto& [r, c] : copy) {
      if (x.Test(r)) expected.Set(c);
    }
    BitVector out(cols);
    m.Multiply(x, &out);
    EXPECT_EQ(out, expected);
  }
}

TEST(BitMatrixTest, EmptyMatrix) {
  BitMatrix m(10, 10);
  EXPECT_EQ(m.Nnz(), 0u);
  EXPECT_FALSE(m.RowAny(3));
  BitVector all(10, true);
  BitVector out(10);
  m.Multiply(all, &out);
  EXPECT_TRUE(out.None());
}

TEST(BitMatrixTest, ForEachRowMatchesRowLookup) {
  BitMatrix m = BitMatrix::Build(8, 8, {{1, 2}, {1, 5}, {4, 0}, {7, 7}});
  std::vector<uint32_t> visited;
  m.ForEachRow([&](uint32_t r, std::span<const uint32_t> row) {
    visited.push_back(r);
    auto by_id = m.Row(r);
    ASSERT_EQ(row.size(), by_id.size());
    for (size_t i = 0; i < row.size(); ++i) EXPECT_EQ(row[i], by_id[i]);
  });
  EXPECT_EQ(visited, (std::vector<uint32_t>{1, 4, 7}));
  EXPECT_EQ(m.NumNonEmptyRows(), 3u);
}

// Rows at or past rows() are empty. The row index is a bitmap, so without
// the bounds check a lookup would read words past its end; r = 1000 on a
// 70-row matrix lands 14 words beyond the two-word presence bitmap.
TEST(BitMatrixTest, OutOfRangeRowsAreEmpty) {
  BitMatrix m = BitMatrix::Build(70, 70, {{0, 1}, {63, 2}, {64, 3}, {69, 69}});
  BitVector all(70, true);
  for (size_t r : {size_t{70}, size_t{127}, size_t{128}, size_t{1000},
                   size_t{1} << 31}) {
    EXPECT_TRUE(m.Row(r).empty()) << r;
    EXPECT_FALSE(m.RowAny(r)) << r;
    EXPECT_FALSE(m.Test(r, 1)) << r;
    EXPECT_FALSE(m.RowIntersects(r, all)) << r;
  }
  BitMatrix empty(5, 5);
  EXPECT_TRUE(empty.Row(5).empty());
  EXPECT_TRUE(empty.Row(200).empty());
  BitMatrix none;
  EXPECT_TRUE(none.Row(0).empty());
  EXPECT_EQ(none.NumNonEmptyRows(), 0u);
}

// Every read path against a std::map reference, on shapes that stress the
// rank index: rows not a multiple of 64, rows 63/64/rows-1 populated, and
// both the sparse (set-bit) and dense (word AND) product walks.
TEST(BitMatrixTest, RandomizedAgainstMapReference) {
  Rng rng(9021);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t rows = 65 + rng.NextBounded(400);
    const size_t cols = 1 + rng.NextBounded(300);
    std::map<uint32_t, std::set<uint32_t>> ref;
    std::vector<std::pair<uint32_t, uint32_t>> entries;
    const size_t nnz = rng.NextBounded(trial % 4 == 0 ? 8 : 3 * rows);
    auto add = [&](uint32_t r, uint32_t c) {
      entries.emplace_back(r, c);
      ref[r].insert(c);
    };
    for (size_t i = 0; i < nnz; ++i) {
      add(static_cast<uint32_t>(rng.NextBounded(rows)),
          static_cast<uint32_t>(rng.NextBounded(cols)));
    }
    for (uint32_t r : {uint32_t{63}, uint32_t{64},
                       static_cast<uint32_t>(rows - 1)}) {
      if (rng.NextBool(0.7)) add(r, static_cast<uint32_t>(rng.NextBounded(cols)));
    }
    BitMatrix m = BitMatrix::Build(rows, cols, std::move(entries));

    size_t expected_nnz = 0;
    BitVector expected_presence(rows);
    for (const auto& [r, cs] : ref) {
      expected_nnz += cs.size();
      expected_presence.Set(r);
    }
    ASSERT_EQ(m.Nnz(), expected_nnz);
    ASSERT_EQ(m.NumNonEmptyRows(), ref.size());
    ASSERT_EQ(m.RowSummary(), expected_presence);

    BitVector y(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBool(0.1)) y.Set(c);
    }
    for (size_t r = 0; r < rows; ++r) {
      auto it = ref.find(static_cast<uint32_t>(r));
      const std::vector<uint32_t> want =
          it == ref.end() ? std::vector<uint32_t>{}
                          : std::vector<uint32_t>(it->second.begin(),
                                                  it->second.end());
      auto row = m.Row(r);
      ASSERT_EQ(std::vector<uint32_t>(row.begin(), row.end()), want)
          << "trial " << trial << " row " << r;
      bool intersects = false;
      for (uint32_t c : want) intersects = intersects || y.Test(c);
      EXPECT_EQ(m.RowIntersects(r, y), intersects);
      const uint32_t probe = static_cast<uint32_t>(rng.NextBounded(cols));
      EXPECT_EQ(m.Test(r, probe), it != ref.end() && it->second.count(probe));
      for (uint32_t c : want) EXPECT_TRUE(m.Test(r, c));
    }

    // Selection densities from empty to full cover both product walks.
    for (double density : {0.0, 0.005, 0.05, 0.5, 1.0}) {
      BitVector x(rows);
      for (size_t r = 0; r < rows; ++r) {
        if (rng.NextBool(density)) x.Set(r);
      }
      BitVector expected(cols);
      for (const auto& [r, cs] : ref) {
        if (!x.Test(r)) continue;
        for (uint32_t c : cs) expected.Set(c);
      }
      BitVector out(cols, true);
      m.Multiply(x, &out);
      EXPECT_EQ(out, expected) << "trial " << trial << " density " << density;
      BitVector viah(cols, true);
      m.Multiply(HierarchicalBitVector(x), x.Count(), &viah);
      EXPECT_EQ(viah, expected) << "trial " << trial << " density " << density;
    }
  }

  BitMatrix empty(130, 7);
  EXPECT_EQ(empty.Nnz(), 0u);
  EXPECT_EQ(empty.NumNonEmptyRows(), 0u);
  EXPECT_EQ(empty.RowSummary(), BitVector(130));
  for (size_t r : {size_t{0}, size_t{63}, size_t{64}, size_t{129}}) {
    EXPECT_TRUE(empty.Row(r).empty());
    EXPECT_FALSE(empty.RowIntersects(r, BitVector(7, true)));
  }
  BitVector out(7, true);
  empty.Multiply(BitVector(130, true), &out);
  EXPECT_TRUE(out.None());
  empty.Multiply(HierarchicalBitVector(130, true), 130, &out);
  EXPECT_TRUE(out.None());
}

TEST(BitMatrixTest, HierarchicalMultiplyMatchesPlain) {
  Rng rng(7100);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t rows = 1 + rng.NextBounded(5000);
    const size_t cols = 1 + rng.NextBounded(5000);
    std::vector<std::pair<uint32_t, uint32_t>> entries;
    const size_t nnz = rng.NextBounded(400);
    for (size_t i = 0; i < nnz; ++i) {
      entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(rows)),
                           static_cast<uint32_t>(rng.NextBounded(cols)));
    }
    BitMatrix m = BitMatrix::Build(rows, cols, std::move(entries));
    BitVector x(rows);
    for (size_t r = 0; r < rows; ++r) {
      // Alternate dense and sparse selectors to hit both Multiply paths.
      if (rng.NextBool(trial % 2 == 0 ? 0.6 : 0.01)) x.Set(r);
    }
    BitVector plain(cols);
    m.Multiply(x, &plain);
    BitVector viah(cols);
    m.Multiply(HierarchicalBitVector(x), x.Count(), &viah);
    EXPECT_EQ(viah, plain) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// CountedAccumulator: the incremental product must track the full product
// exactly through arbitrary monotone removal sequences.
// ---------------------------------------------------------------------------

TEST(CountedAccumulatorTest, RebuildMatchesMultiply) {
  BitMatrix m = BitMatrix::Build(6, 6, {{0, 1}, {0, 2}, {2, 2}, {5, 0}});
  BitVector sel = BitVector::FromIndices(6, {0, 2, 5});
  CountedAccumulator acc;
  acc.Rebuild(m, sel, sel.Count());
  BitVector expected(6);
  m.Multiply(sel, &expected);
  EXPECT_EQ(acc.result(), expected);
  EXPECT_EQ(acc.count(2), 2u);  // covered by rows 0 and 2
  EXPECT_EQ(acc.count(1), 1u);
  EXPECT_EQ(acc.count(0), 1u);
}

TEST(CountedAccumulatorTest, RetractClearsExactlyZeroCountColumns) {
  BitMatrix m = BitMatrix::Build(6, 6, {{0, 1}, {0, 2}, {2, 2}, {5, 0}});
  CountedAccumulator acc;
  acc.Rebuild(m, BitVector(6, true), 6);
  // Remove row 0: column 1 loses its only cover, column 2 keeps row 2's.
  EXPECT_EQ(acc.Retract(m, BitVector::FromIndices(6, {0})), 1u);
  EXPECT_FALSE(acc.result().Test(1));
  EXPECT_TRUE(acc.result().Test(2));
  EXPECT_EQ(acc.count(2), 1u);
  // Removing a row with no entries clears nothing.
  EXPECT_EQ(acc.Retract(m, BitVector::FromIndices(6, {3})), 0u);
  // Remove the remaining covers.
  EXPECT_EQ(acc.Retract(m, BitVector::FromIndices(6, {2, 5})), 2u);
  EXPECT_TRUE(acc.result().None());
}

TEST(CountedAccumulatorTest, RandomizedRetractionMatchesRebuild) {
  Rng rng(5150);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t n = 10 + rng.NextBounded(300);
    std::vector<std::pair<uint32_t, uint32_t>> entries;
    const size_t nnz = 1 + rng.NextBounded(4 * n);
    for (size_t i = 0; i < nnz; ++i) {
      entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(n)),
                           static_cast<uint32_t>(rng.NextBounded(n)));
    }
    BitMatrix m = BitMatrix::Build(n, n, std::move(entries));

    BitVector selected(n, true);
    CountedAccumulator acc;
    acc.Rebuild(m, selected, selected.Count());
    while (selected.Any()) {
      // Retract a random non-empty subset of the current selection.
      BitVector gone(n);
      selected.ForEachSetBit([&](uint32_t r) {
        if (rng.NextBool(0.4)) gone.Set(r);
      });
      if (gone.None()) gone.Set(static_cast<size_t>(selected.FindFirst()));
      selected.AndNotWith(gone);
      size_t before = acc.result().Count();
      size_t cleared = acc.Retract(m, gone);
      EXPECT_EQ(acc.result().Count(), before - cleared);

      CountedAccumulator fresh;
      fresh.Rebuild(m, selected, selected.Count());
      ASSERT_EQ(acc.result(), fresh.result()) << "trial " << trial;
      BitVector product(n);
      m.Multiply(selected, &product);
      ASSERT_EQ(acc.result(), product) << "trial " << trial;
    }
  }
}

TEST(CountedAccumulatorTest, RebuildFromHierarchicalSelector) {
  BitMatrix m = BitMatrix::Build(5000, 5000, {{4999, 1}, {100, 4098}});
  HierarchicalBitVector sel(5000, true);
  CountedAccumulator acc;
  acc.Rebuild(m, sel, 5000);
  EXPECT_TRUE(acc.result().Test(1));
  EXPECT_TRUE(acc.result().Test(4098));
  EXPECT_EQ(acc.result().Count(), 2u);
}

}  // namespace
}  // namespace sparqlsim::util
