#include "util/bitvector.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/hierarchical_bitvector.h"
#include "util/rng.h"

namespace sparqlsim::util {
namespace {

TEST(BitVectorTest, StartsEmpty) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.Count(), 0u);
  EXPECT_TRUE(v.None());
  EXPECT_FALSE(v.Any());
}

TEST(BitVectorTest, ConstructAllOnes) {
  BitVector v(70, true);
  EXPECT_EQ(v.Count(), 70u);
  EXPECT_TRUE(v.Test(0));
  EXPECT_TRUE(v.Test(69));
}

TEST(BitVectorTest, SetResetTest) {
  BitVector v(130);
  v.Set(0);
  v.Set(64);
  v.Set(129);
  EXPECT_TRUE(v.Test(0));
  EXPECT_TRUE(v.Test(64));
  EXPECT_TRUE(v.Test(129));
  EXPECT_FALSE(v.Test(1));
  EXPECT_EQ(v.Count(), 3u);
  v.Reset(64);
  EXPECT_FALSE(v.Test(64));
  EXPECT_EQ(v.Count(), 2u);
}

TEST(BitVectorTest, SetAllMasksTail) {
  BitVector v(67);
  v.SetAll();
  EXPECT_EQ(v.Count(), 67u);
}

TEST(BitVectorTest, AndWithReportsChange) {
  BitVector a = BitVector::FromIndices(128, {1, 5, 70});
  BitVector b = BitVector::FromIndices(128, {1, 5, 70, 90});
  EXPECT_FALSE(a.AndWith(b));  // subset: no change
  BitVector c = BitVector::FromIndices(128, {1, 70});
  EXPECT_TRUE(a.AndWith(c));
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_FALSE(a.Test(5));
}

TEST(BitVectorTest, OrWithReportsChange) {
  BitVector a = BitVector::FromIndices(64, {3});
  BitVector b = BitVector::FromIndices(64, {3});
  EXPECT_FALSE(a.OrWith(b));
  BitVector c = BitVector::FromIndices(64, {9});
  EXPECT_TRUE(a.OrWith(c));
  EXPECT_TRUE(a.Test(9));
}

TEST(BitVectorTest, AndNotWith) {
  BitVector a = BitVector::FromIndices(64, {1, 2, 3});
  BitVector b = BitVector::FromIndices(64, {2});
  EXPECT_TRUE(a.AndNotWith(b));
  EXPECT_EQ(a.ToIndexVector(), (std::vector<uint32_t>{1, 3}));
  EXPECT_FALSE(a.AndNotWith(b));
}

TEST(BitVectorTest, IntersectsWith) {
  BitVector a = BitVector::FromIndices(200, {150});
  BitVector b = BitVector::FromIndices(200, {150, 7});
  BitVector c = BitVector::FromIndices(200, {7});
  EXPECT_TRUE(a.IntersectsWith(b));
  EXPECT_FALSE(a.IntersectsWith(c));
}

TEST(BitVectorTest, IsSubsetOf) {
  BitVector a = BitVector::FromIndices(100, {10, 20});
  BitVector b = BitVector::FromIndices(100, {10, 20, 30});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  BitVector empty(100);
  EXPECT_TRUE(empty.IsSubsetOf(a));
}

TEST(BitVectorTest, FindFirstNext) {
  BitVector v = BitVector::FromIndices(300, {5, 64, 299});
  EXPECT_EQ(v.FindFirst(), 5);
  EXPECT_EQ(v.FindNext(5), 64);
  EXPECT_EQ(v.FindNext(64), 299);
  EXPECT_EQ(v.FindNext(299), -1);
  BitVector empty(300);
  EXPECT_EQ(empty.FindFirst(), -1);
}

TEST(BitVectorTest, ForEachSetBitVisitsAscending) {
  std::vector<uint32_t> indices = {0, 63, 64, 127, 128, 200};
  BitVector v = BitVector::FromIndices(256, indices);
  std::vector<uint32_t> seen;
  v.ForEachSetBit([&](uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, indices);
}

TEST(BitVectorTest, ResizeKeepsPrefix) {
  BitVector v = BitVector::FromIndices(64, {10, 63});
  v.Resize(128);
  EXPECT_TRUE(v.Test(10));
  EXPECT_TRUE(v.Test(63));
  EXPECT_EQ(v.Count(), 2u);
}

TEST(BitVectorTest, ToStringFormat) {
  BitVector v = BitVector::FromIndices(5, {0, 3});
  EXPECT_EQ(v.ToString(), "10010");
}

TEST(BitVectorTest, EqualityIncludesSize) {
  BitVector a(10), b(10), c(11);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a.Set(3);
  EXPECT_NE(a, b);
}

/// Word-boundary property sweep: every bulk operation must behave at
/// sizes straddling the 64-bit word boundaries (the MaskTail invariant).
class BitVectorBoundary : public ::testing::TestWithParam<size_t> {};

TEST_P(BitVectorBoundary, BulkOpsRespectSize) {
  const size_t n = GetParam();
  Rng rng(n * 7 + 1);
  BitVector a(n), b(n);
  std::vector<bool> ra(n, false), rb(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.5)) {
      a.Set(i);
      ra[i] = true;
    }
    if (rng.NextBool(0.5)) {
      b.Set(i);
      rb[i] = true;
    }
  }

  BitVector all(n, true);
  EXPECT_EQ(all.Count(), n);

  BitVector and_copy = a;
  and_copy.AndWith(b);
  BitVector or_copy = a;
  or_copy.OrWith(b);
  BitVector andnot_copy = a;
  andnot_copy.AndNotWith(b);
  size_t expected_and = 0, expected_or = 0, expected_andnot = 0;
  bool expected_intersects = false, expected_subset = true;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(and_copy.Test(i), ra[i] && rb[i]);
    EXPECT_EQ(or_copy.Test(i), ra[i] || rb[i]);
    EXPECT_EQ(andnot_copy.Test(i), ra[i] && !rb[i]);
    expected_and += (ra[i] && rb[i]) ? 1 : 0;
    expected_or += (ra[i] || rb[i]) ? 1 : 0;
    expected_andnot += (ra[i] && !rb[i]) ? 1 : 0;
    expected_intersects |= (ra[i] && rb[i]);
    expected_subset &= (!ra[i] || rb[i]);
  }
  EXPECT_EQ(and_copy.Count(), expected_and);
  EXPECT_EQ(or_copy.Count(), expected_or);
  EXPECT_EQ(andnot_copy.Count(), expected_andnot);
  EXPECT_EQ(a.IntersectsWith(b), expected_intersects);
  EXPECT_EQ(a.IsSubsetOf(b), expected_subset);

  // SetAll never leaks past the logical size.
  BitVector full(n);
  full.SetAll();
  EXPECT_EQ(full.Count(), n);
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, BitVectorBoundary,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129,
                                           191, 192, 193, 255, 256, 1000));

TEST(BitVectorTest, RandomizedAgainstReferenceSet) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 1 + rng.NextBounded(500);
    BitVector v(n);
    std::vector<bool> ref(n, false);
    for (int ops = 0; ops < 200; ++ops) {
      size_t i = rng.NextBounded(n);
      if (rng.NextBool(0.5)) {
        v.Set(i);
        ref[i] = true;
      } else {
        v.Reset(i);
        ref[i] = false;
      }
    }
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(v.Test(i), ref[i]);
      expected += ref[i] ? 1 : 0;
    }
    EXPECT_EQ(v.Count(), expected);
  }
}

// ---------------------------------------------------------------------------
// HierarchicalBitVector: the summary level must never change observable
// results, only skip work — every test compares against plain BitVector.
// ---------------------------------------------------------------------------

TEST(HierarchicalBitVectorTest, ConstructSetTestCount) {
  HierarchicalBitVector h(10000);
  EXPECT_EQ(h.size(), 10000u);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_FALSE(h.Any());
  h.Set(0);
  h.Set(4095);   // last bit of block 0
  h.Set(4096);   // first bit of block 1
  h.Set(9999);
  EXPECT_TRUE(h.Test(0));
  EXPECT_TRUE(h.Test(4095));
  EXPECT_TRUE(h.Test(4096));
  EXPECT_TRUE(h.Test(9999));
  EXPECT_FALSE(h.Test(1));
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_TRUE(h.Any());
}

TEST(HierarchicalBitVectorTest, AdoptsBitVectorAndExportsIt) {
  BitVector flat = BitVector::FromIndices(9000, {7, 4100, 8999});
  HierarchicalBitVector h(flat);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.bits(), flat);
  BitVector back = std::move(h).TakeBits();
  EXPECT_EQ(back, flat);
}

TEST(HierarchicalBitVectorTest, SetAllClearAllAndTailInvariant) {
  HierarchicalBitVector h(4100, true);  // spills 4 bits into block 1
  EXPECT_EQ(h.Count(), 4100u);
  // The flat vector's tail invariant must hold so word-wise comparison
  // against a plain all-ones vector agrees.
  EXPECT_EQ(h.bits(), BitVector(4100, true));
  h.ClearAll();
  EXPECT_FALSE(h.Any());
  EXPECT_EQ(h.Count(), 0u);
  h.SetAll();
  EXPECT_EQ(h.Count(), 4100u);
}

TEST(HierarchicalBitVectorTest, AndWithMatchesPlainAndSkipsZeroBlocks) {
  const size_t n = 3 * HierarchicalBitVector::kBitsPerBlock + 77;
  // Only block 1 occupied; blocks 0, 2, 3 are zero and must be skipped.
  HierarchicalBitVector h(n);
  h.Set(HierarchicalBitVector::kBitsPerBlock + 5);
  h.Set(HierarchicalBitVector::kBitsPerBlock + 600);
  BitVector mask(n, true);
  mask.Reset(HierarchicalBitVector::kBitsPerBlock + 5);

  BitVector plain = h.bits();
  bool plain_changed = plain.AndWith(mask);
  EXPECT_TRUE(h.AndWith(mask));
  EXPECT_TRUE(plain_changed);
  EXPECT_EQ(h.bits(), plain);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.blocks_skipped(), 3u);
  EXPECT_EQ(h.TakeBlocksSkipped(), 3u);
  EXPECT_EQ(h.blocks_skipped(), 0u);
}

TEST(HierarchicalBitVectorTest, AndWithHierarchicalDrainsForeignZeroBlocks) {
  const size_t n = 2 * HierarchicalBitVector::kBitsPerBlock + 10;
  HierarchicalBitVector a(n, true);
  HierarchicalBitVector b(n);
  b.Set(3);  // block 0 partially live in b; blocks 1, 2 zero in b
  EXPECT_TRUE(a.AndWith(b));
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_TRUE(a.Test(3));
  // Draining must update a's summary: a second AND now skips everything.
  a.TakeBlocksSkipped();
  EXPECT_FALSE(a.AndWith(b));
  EXPECT_EQ(a.blocks_skipped(), 2u);  // the two drained blocks
}

TEST(HierarchicalBitVectorTest, ForEachSetBitAscendingAcrossBlocks) {
  const size_t n = 4 * HierarchicalBitVector::kBitsPerBlock;
  std::vector<uint32_t> indices = {
      0, 63, 64, 4095, 4096,
      static_cast<uint32_t>(3 * HierarchicalBitVector::kBitsPerBlock + 1),
      static_cast<uint32_t>(n - 1)};
  HierarchicalBitVector h{BitVector::FromIndices(n, indices)};
  std::vector<uint32_t> seen;
  h.ForEachSetBit([&](uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, indices);
}

TEST(HierarchicalBitVectorTest, RandomizedDifferentialAgainstBitVector) {
  Rng rng(4242);
  for (int trial = 0; trial < 15; ++trial) {
    const size_t n = 1 + rng.NextBounded(3 * 4096 + 500);
    BitVector flat(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBool(trial % 2 == 0 ? 0.3 : 0.005)) flat.Set(i);
    }
    HierarchicalBitVector h(flat);
    // A sequence of shrinking ANDs, mirrored on the plain vector.
    for (int step = 0; step < 4; ++step) {
      BitVector mask(n);
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextBool(0.7)) mask.Set(i);
      }
      bool plain_changed = flat.AndWith(mask);
      EXPECT_EQ(h.AndWith(mask), plain_changed);
      ASSERT_EQ(h.bits(), flat) << "trial " << trial << " step " << step;
      EXPECT_EQ(h.Count(), flat.Count());
      EXPECT_EQ(h.Any(), flat.Any());
      std::vector<uint32_t> seen;
      h.ForEachSetBit([&](uint32_t i) { seen.push_back(i); });
      EXPECT_EQ(seen, flat.ToIndexVector());
    }
  }
}

BitVector RandomVector(Rng* rng, size_t n, double density) {
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(density)) v.Set(i);
  }
  return v;
}

TEST(HierarchicalBitVectorTest, ClearAllOfADrainedVectorEqualsAFreshOne) {
  Rng rng(17);
  for (size_t n : {64u, 600u, 4095u, 4096u, 4097u, 3 * 4096u + 9u}) {
    for (double density : {0.0, 0.001, 0.3}) {
      // Partly drained: some blocks live, some emptied by an AND.
      HierarchicalBitVector used(RandomVector(&rng, n, density));
      used.AndWith(RandomVector(&rng, n, 0.5));
      used.ClearAll();

      HierarchicalBitVector fresh(n);
      EXPECT_EQ(used.size(), fresh.size());
      EXPECT_EQ(used.Count(), 0u);
      EXPECT_FALSE(used.Any());
      EXPECT_EQ(used.bits(), fresh.bits());

      // Drive both through the same mutations: every observable (count,
      // membership, change reports) must stay equal.
      for (size_t i = 0; i < n; i += 4096) {
        used.Set(i);
        fresh.Set(i);
      }
      EXPECT_EQ(used.Count(), (n + 4095) / 4096);
      BitVector mask = RandomVector(&rng, n, 0.3);
      used.SetAll();
      fresh.SetAll();
      EXPECT_EQ(used.AndWith(mask), fresh.AndWith(mask));
      EXPECT_EQ(used.Count(), fresh.Count());
      EXPECT_EQ(used.bits(), fresh.bits());
    }
  }
}

TEST(HierarchicalBitVectorTest, AssignFromMatchesSeedingConstructor) {
  Rng rng(23);
  for (double density : {0.0, 0.004, 0.6}) {
    const size_t n = 5000;
    BitVector seed = RandomVector(&rng, n, density);
    // A differently sized, all-ones target: nothing of it may survive.
    HierarchicalBitVector assigned(n / 2, true);
    assigned.AssignFrom(seed);
    HierarchicalBitVector fresh(seed);
    EXPECT_EQ(assigned.size(), fresh.size());
    EXPECT_EQ(assigned.Count(), fresh.Count());
    EXPECT_EQ(assigned.Any(), fresh.Any());
    EXPECT_EQ(assigned.bits(), fresh.bits());
    // The rebuilt summary must drive the zero-block kernels exactly.
    BitVector mask = RandomVector(&rng, n, 0.5);
    EXPECT_EQ(assigned.AndWith(mask), fresh.AndWith(mask));
    EXPECT_EQ(assigned.bits(), fresh.bits());
  }
}

}  // namespace
}  // namespace sparqlsim::util
