// Randomized differential verification of the kernel layer. The flat
// scalar path is the oracle; the AVX2 word lanes and the hierarchical
// candidate-set layout must reproduce it bit for bit on AndWith / Count /
// ForEachSetBit / Multiply, across occupancies from empty to full and
// sizes straddling the word and 64-word-block edges. Every randomized
// case derives its seed deterministically and logs it through
// SCOPED_TRACE, so a failure names the exact reproducing input.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/bitmatrix.h"
#include "util/bitvector.h"
#include "util/hierarchical_bitvector.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"

namespace sparqlsim::util {
namespace {

// Word (64) and hierarchical-block (4096 = 64 words) boundary sizes, plus
// small and mid-range interiors.
const size_t kBitSizes[] = {1,    63,   64,   65,   127,  128,  129,
                            511,  512,  513,  1000, 4095, 4096, 4097,
                            8191, 8192, 8193};

// Densities the solver actually visits: empty, late-fixpoint sparse,
// balanced, full.
const double kDensities[] = {0.0, 0.004, 0.1, 0.5, 1.0};

// splitmix-style deterministic per-case seed; logged on failure.
uint64_t CaseSeed(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = 0x9E3779B97F4A7C15ull ^ (a * 0xBF58476D1CE4E5B9ull);
  x ^= (b + 0x94D049BB133111EBull) * 0xD6E8FEB86659FD93ull;
  x ^= c * 0xFF51AFD7ED558CCDull;
  return x ^ (x >> 33);
}

BitVector RandomVector(Rng* rng, size_t n, double density) {
  if (density <= 0.0) return BitVector(n);
  if (density >= 1.0) return BitVector(n, true);
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(density)) v.Set(i);
  }
  return v;
}

std::vector<uint32_t> Collect(const HierarchicalBitVector& h) {
  std::vector<uint32_t> out;
  h.ForEachSetBit([&](uint32_t i) { out.push_back(i); });
  return out;
}

// --- Word-kernel lane differential: scalar vs AVX2 tables. ---

TEST(KernelDifferentialTest, AndWordsAgreesAcrossLanes) {
  const WordKernels& scalar = KernelsFor(SimdLevel::kScalar);
  const WordKernels& vec = KernelsFor(SimdLevel::kAvx2);
  if (DetectedSimdLevel() == SimdLevel::kScalar) {
    GTEST_LOG_(INFO) << "AVX2 not available; lane differential degenerate";
  }
  const size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 130};
  for (size_t n : kWordCounts) {
    for (double density : kDensities) {
      for (int rep = 0; rep < 5; ++rep) {
        const uint64_t seed =
            CaseSeed(n, static_cast<uint64_t>(density * 1000), rep);
        SCOPED_TRACE("and_words n=" + std::to_string(n) +
                     " seed=" + std::to_string(seed));
        Rng rng(seed);
        std::vector<uint64_t> dst(n), src(n);
        for (size_t i = 0; i < n; ++i) {
          dst[i] = density >= 1.0   ? ~uint64_t{0}
                   : density <= 0.0 ? 0
                                    : rng.Next() & rng.Next();
          src[i] = rng.Next();
        }
        std::vector<uint64_t> a = dst, b = dst;
        bool a_changed = false, b_changed = false;
        const uint64_t a_live = scalar.and_words(a.data(), src.data(), n,
                                                 &a_changed);
        const uint64_t b_live = vec.and_words(b.data(), src.data(), n,
                                              &b_changed);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a_changed, b_changed);
        EXPECT_EQ(a_live, b_live);
      }
    }
  }
}

TEST(KernelDifferentialTest, PopcountWordsAgreesAcrossLanes) {
  const WordKernels& scalar = KernelsFor(SimdLevel::kScalar);
  const WordKernels& vec = KernelsFor(SimdLevel::kAvx2);
  const size_t kWordCounts[] = {0, 1, 3, 4, 5, 8, 9, 64, 65, 257};
  for (size_t n : kWordCounts) {
    for (int rep = 0; rep < 8; ++rep) {
      const uint64_t seed = CaseSeed(n, 77, rep);
      SCOPED_TRACE("popcount n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      std::vector<uint64_t> words(n);
      size_t expected = 0;
      for (size_t i = 0; i < n; ++i) {
        words[i] = rng.Next() & rng.Next() & rng.Next();
        expected += static_cast<size_t>(__builtin_popcountll(words[i]));
      }
      EXPECT_EQ(scalar.popcount_words(words.data(), n), expected);
      EXPECT_EQ(vec.popcount_words(words.data(), n), expected);
    }
  }
}

// --- Representation differential: HierarchicalBitVector vs the flat
// oracle. ---

TEST(KernelDifferentialTest, AndCountForEachAgreeAcrossRepresentations) {
  for (size_t n : kBitSizes) {
    for (double density : kDensities) {
      for (int rep = 0; rep < 2; ++rep) {
        const uint64_t seed =
            CaseSeed(n, static_cast<uint64_t>(density * 1000) + 31, rep);
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed));
        Rng rng(seed);
        const BitVector v = RandomVector(&rng, n, density);
        const BitVector m = RandomVector(&rng, n, rng.NextDouble());

        BitVector oracle = v;
        const bool oracle_changed = oracle.AndWith(m);

        HierarchicalBitVector h(v);
        EXPECT_EQ(h.Count(), v.Count());
        EXPECT_EQ(h.AndWith(m), oracle_changed);
        EXPECT_EQ(h.Count(), oracle.Count());
        EXPECT_EQ(h.Any(), oracle.Any());
        EXPECT_EQ(h.bits(), oracle);
        EXPECT_EQ(Collect(h), oracle.ToIndexVector());
        for (int probe = 0; probe < 16; ++probe) {
          const size_t i = rng.NextBounded(n);
          EXPECT_EQ(h.Test(i), oracle.Test(i)) << "probe " << i;
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, RepeatedAndsConvergeIdentically) {
  // Chains of shrinking ANDs — the solver's actual access pattern — with
  // the summary draining blocks mid-chain.
  for (size_t n : {513u, 4097u, 8192u}) {
    for (int rep = 0; rep < 4; ++rep) {
      const uint64_t seed = CaseSeed(n, 555, rep);
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                   std::to_string(seed));
      Rng rng(seed);
      BitVector oracle(n, true);
      HierarchicalBitVector h(n, true);
      for (double density : {0.6, 0.2, 0.02, 0.002}) {
        const BitVector mask = RandomVector(&rng, n, density);
        EXPECT_EQ(h.AndWith(mask), oracle.AndWith(mask));
        EXPECT_EQ(h.Count(), oracle.Count());
        EXPECT_EQ(h.Any(), oracle.Any());
        EXPECT_EQ(h.bits(), oracle);
      }
    }
  }
}

TEST(KernelDifferentialTest, MultiplyAgreesAcrossSelectorRepresentations) {
  for (size_t n : {65u, 513u, 4097u}) {
    for (double density : kDensities) {
      for (int rep = 0; rep < 2; ++rep) {
        const uint64_t seed =
            CaseSeed(n, static_cast<uint64_t>(density * 1000) + 13, rep);
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed));
        Rng rng(seed);
        std::vector<std::pair<uint32_t, uint32_t>> entries;
        const size_t nnz = 4 * n;
        for (size_t e = 0; e < nnz; ++e) {
          entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(n)),
                               static_cast<uint32_t>(rng.NextBounded(n)));
        }
        const BitMatrix a = BitMatrix::Build(n, n, std::move(entries));
        const BitVector x = RandomVector(&rng, n, density);

        BitVector expected(n);
        a.Multiply(x, &expected);

        // A dirty destination must be fully overwritten (mask slots are
        // reused across fixpoint rounds).
        BitVector via_hier(n, true);
        a.Multiply(HierarchicalBitVector(x), x.Count(), &via_hier);
        EXPECT_EQ(via_hier, expected);
      }
    }
  }
}

TEST(KernelDifferentialTest, MutatorsAgreeAcrossRepresentations) {
  const size_t n = 5000;
  HierarchicalBitVector h(n);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_FALSE(h.Any());

  h.SetAll();
  EXPECT_EQ(h.Count(), n);
  EXPECT_EQ(h.bits(), BitVector(n, true));

  h.ClearAll();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_FALSE(h.Any());
  EXPECT_EQ(h.bits(), BitVector(n));

  h.Set(0);
  h.Set(4096);
  h.Set(n - 1);
  h.Set(4096);  // idempotent
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_TRUE(h.Test(0));
  EXPECT_TRUE(h.Test(4096));
  EXPECT_TRUE(h.Test(n - 1));
  EXPECT_FALSE(h.Test(1));
  EXPECT_EQ(Collect(h),
            (std::vector<uint32_t>{0, 4096, static_cast<uint32_t>(n - 1)}));
}

}  // namespace
}  // namespace sparqlsim::util
