// SoiCache lifecycle unit tests: the capacity bound is respected at every
// step, eviction order is LRU, generation GC (eager and manual) drops
// exactly the stale entries, the hit/miss/eviction counters are exact, and
// a solution can never pair with an SOI instance it was not solved on
// (the eviction-rebuild hazard).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/soi_cache.h"

namespace sparqlsim::sim {
namespace {

/// A distinguishable SOI: `var_names[0]` carries the tag so tests can
/// verify *which* instance a hit returns.
Soi TaggedSoi(const std::string& tag) {
  Soi soi;
  soi.var_names = {tag};
  return soi;
}

Solution TaggedSolution(size_t rounds) {
  Solution solution;
  solution.stats.rounds = rounds;
  return solution;
}

bool ExpectStats(const SoiCache::Stats& actual, const SoiCache::Stats& want) {
  EXPECT_EQ(actual.soi_hits, want.soi_hits);
  EXPECT_EQ(actual.soi_misses, want.soi_misses);
  EXPECT_EQ(actual.solution_hits, want.solution_hits);
  EXPECT_EQ(actual.solution_misses, want.solution_misses);
  EXPECT_EQ(actual.soi_evictions, want.soi_evictions);
  EXPECT_EQ(actual.solution_evictions, want.solution_evictions);
  EXPECT_EQ(actual.generation_evictions, want.generation_evictions);
  return !::testing::Test::HasNonfatalFailure();
}

TEST(SoiCacheLruTest, CapacityBoundHoldsAtEveryInsert) {
  SoiCache cache(SoiCache::Options{3, false});
  for (int i = 0; i < 10; ++i) {
    std::string key = "q" + std::to_string(i);
    auto soi = cache.InsertSoi(1, key, TaggedSoi(key));
    cache.InsertSolution(1, key, soi.get(), TaggedSolution(i));
    EXPECT_LE(cache.NumSois(), 3u) << "after insert " << i;
    EXPECT_LE(cache.NumSolutions(), 3u) << "after insert " << i;
  }
  EXPECT_EQ(cache.NumSois(), 3u);
  EXPECT_EQ(cache.NumSolutions(), 3u);
  // 10 inserts into capacity 3: exactly 7 entries evicted, each carrying
  // its attached solution.
  EXPECT_EQ(cache.stats().soi_evictions, 7u);
  EXPECT_EQ(cache.stats().solution_evictions, 7u);
  // The survivors are the three most recently inserted.
  for (int i = 7; i < 10; ++i) {
    EXPECT_NE(cache.FindSoi(1, "q" + std::to_string(i)), nullptr) << i;
  }
  EXPECT_EQ(cache.FindSoi(1, "q6"), nullptr);
}

TEST(SoiCacheLruTest, FindRefreshesRecencySoEvictionIsLeastRecentlyUsed) {
  SoiCache cache(SoiCache::Options{2, false});
  cache.InsertSoi(1, "a", TaggedSoi("a"));
  cache.InsertSoi(1, "b", TaggedSoi("b"));
  // Touch "a": now "b" is the LRU entry.
  ASSERT_NE(cache.FindSoi(1, "a"), nullptr);
  cache.InsertSoi(1, "c", TaggedSoi("c"));
  EXPECT_EQ(cache.NumSois(), 2u);
  EXPECT_EQ(cache.FindSoi(1, "b"), nullptr);  // evicted
  auto a = cache.FindSoi(1, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->var_names[0], "a");
  EXPECT_NE(cache.FindSoi(1, "c"), nullptr);
  EXPECT_EQ(cache.stats().soi_evictions, 1u);
}

TEST(SoiCacheLruTest, ReinsertRefreshesRecencyAndKeepsFirstValue) {
  SoiCache cache(SoiCache::Options{2, false});
  cache.InsertSoi(1, "a", TaggedSoi("a-first"));
  cache.InsertSoi(1, "b", TaggedSoi("b"));
  // Re-inserting "a" must keep the original instance (first insert wins)
  // and refresh its recency.
  auto kept = cache.InsertSoi(1, "a", TaggedSoi("a-second"));
  EXPECT_EQ(kept->var_names[0], "a-first");
  cache.InsertSoi(1, "c", TaggedSoi("c"));
  EXPECT_EQ(cache.FindSoi(1, "b"), nullptr);  // "b" was LRU, not "a"
  EXPECT_NE(cache.FindSoi(1, "a"), nullptr);
}

TEST(SoiCacheLruTest, SolutionsRideOnTheirSoiEntry) {
  SoiCache cache(SoiCache::Options{2, false});
  auto a = cache.InsertSoi(1, "a", TaggedSoi("a"));
  auto attached = cache.InsertSolution(1, "a", a.get(), TaggedSolution(4));
  EXPECT_EQ(attached->stats.rounds, 4u);
  EXPECT_EQ(cache.NumSolutions(), 1u);
  // A hit requires the exact instance the solution was solved on.
  EXPECT_NE(cache.FindSolution(1, "a", a.get()), nullptr);

  // Evicting the entry takes the attached solution with it.
  cache.InsertSoi(1, "b", TaggedSoi("b"));
  cache.InsertSoi(1, "c", TaggedSoi("c"));  // recency [c, b] — "a" evicted
  EXPECT_EQ(cache.NumSolutions(), 0u);
  EXPECT_EQ(cache.stats().soi_evictions, 1u);
  EXPECT_EQ(cache.stats().solution_evictions, 1u);
  EXPECT_EQ(cache.FindSolution(1, "a", a.get()), nullptr);
}

TEST(SoiCacheLruTest, FindAllSolvedIsAllOrNothing) {
  SoiCache cache(SoiCache::Options{3, false});
  auto a = cache.InsertSoi(1, "a", TaggedSoi("a"));
  cache.InsertSolution(1, "a", a.get(), TaggedSolution(2));
  auto b = cache.InsertSoi(1, "b", TaggedSoi("b"));
  cache.InsertSolution(1, "b", b.get(), TaggedSolution(3));
  cache.InsertSoi(1, "c", TaggedSoi("c"));  // no solution attached

  // One key without a solution (or without an entry, or at another
  // generation) makes the whole lookup miss, and a miss counts nothing.
  const std::vector<std::string> with_c = {"a", "c"};
  const std::vector<std::string> with_absent = {"a", "z"};
  const std::vector<std::string> both = {"b", "a"};
  EXPECT_TRUE(cache.FindAllSolved(1, with_c).empty());
  EXPECT_TRUE(cache.FindAllSolved(1, with_absent).empty());
  EXPECT_TRUE(cache.FindAllSolved(2, both).empty());
  ExpectStats(cache.stats(), SoiCache::Stats{});

  // A hit returns the pairs in key order and counts a SOI hit and a
  // solution hit per key.
  const std::vector<SoiCache::Solved> solved = cache.FindAllSolved(1, both);
  ASSERT_EQ(solved.size(), 2u);
  EXPECT_EQ(solved[0].soi, b);
  EXPECT_EQ(solved[0].solution->stats.rounds, 3u);
  EXPECT_EQ(solved[1].soi, a);
  EXPECT_EQ(solved[1].solution->stats.rounds, 2u);
  SoiCache::Stats want;
  want.soi_hits = 2;
  want.solution_hits = 2;
  ExpectStats(cache.stats(), want);

  // The hit refreshed "a" and "b", so "c" is now the LRU entry.
  cache.InsertSoi(1, "d", TaggedSoi("d"));
  EXPECT_EQ(cache.FindSoi(1, "c"), nullptr);
  EXPECT_NE(cache.FindSoi(1, "a"), nullptr);
  EXPECT_NE(cache.FindSoi(1, "b"), nullptr);
}

TEST(SoiCacheLruTest, SolutionNeverPairsWithARebuiltSoiInstance) {
  // Regression for the eviction-rebuild hazard: canonically-equal patterns
  // may number their SOI variables differently, so after an entry is
  // evicted and rebuilt, a solution solved on the OLD instance must not be
  // stored or served against the NEW one (and vice versa).
  SoiCache cache(SoiCache::Options{1, false});
  auto old_soi = cache.InsertSoi(1, "q", TaggedSoi("old"));

  // Entry for "q" evicted by capacity pressure, then rebuilt (think: a
  // triple-order permutation of the same pattern, different numbering).
  cache.InsertSoi(1, "other", TaggedSoi("other"));
  ASSERT_EQ(cache.FindSoi(1, "q"), nullptr);
  auto new_soi = cache.InsertSoi(1, "q", TaggedSoi("new"));
  ASSERT_NE(old_soi.get(), new_soi.get());

  // A solve that raced with the eviction finishes against the old
  // instance: its solution is handed back but NOT cached.
  auto stale = cache.InsertSolution(1, "q", old_soi.get(), TaggedSolution(7));
  EXPECT_EQ(stale->stats.rounds, 7u);
  EXPECT_EQ(cache.NumSolutions(), 0u);
  // Neither instance can fetch it.
  EXPECT_EQ(cache.FindSolution(1, "q", new_soi.get()), nullptr);
  EXPECT_EQ(cache.FindSolution(1, "q", old_soi.get()), nullptr);

  // A solution solved on the CURRENT instance caches and serves normally —
  // but only to callers holding that instance.
  cache.InsertSolution(1, "q", new_soi.get(), TaggedSolution(9));
  EXPECT_EQ(cache.NumSolutions(), 1u);
  ASSERT_NE(cache.FindSolution(1, "q", new_soi.get()), nullptr);
  EXPECT_EQ(cache.FindSolution(1, "q", new_soi.get())->stats.rounds, 9u);
  EXPECT_EQ(cache.FindSolution(1, "q", old_soi.get()), nullptr);
}

TEST(SoiCacheLruTest, EagerGenerationGcDropsStaleEntriesOnNewerGeneration) {
  SoiCache cache(SoiCache::Options{0, /*generation_gc=*/true});
  auto a = cache.InsertSoi(7, "a", TaggedSoi("a"));
  cache.InsertSoi(7, "b", TaggedSoi("b"));
  cache.InsertSolution(7, "a", a.get(), TaggedSolution(1));
  EXPECT_EQ(cache.NumSois(), 2u);
  EXPECT_EQ(cache.NumSolutions(), 1u);

  // First operation carrying a newer generation sweeps everything older:
  // 2 SOIs + 1 attached solution.
  cache.InsertSoi(9, "a", TaggedSoi("a-gen9"));
  EXPECT_EQ(cache.NumSois(), 1u);
  EXPECT_EQ(cache.NumSolutions(), 0u);
  EXPECT_EQ(cache.stats().generation_evictions, 3u);
  auto fresh = cache.FindSoi(9, "a");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->var_names[0], "a-gen9");
  // The stale generation is gone for good.
  EXPECT_EQ(cache.FindSoi(7, "a"), nullptr);
}

TEST(SoiCacheLruTest, FindWithNewerGenerationAlsoTriggersGc) {
  SoiCache cache(SoiCache::Options{0, /*generation_gc=*/true});
  auto soi = cache.InsertSoi(3, "q", TaggedSoi("q"));
  cache.InsertSolution(3, "q", soi.get(), TaggedSolution(2));
  EXPECT_EQ(cache.FindSolution(4, "q", soi.get()), nullptr);  // miss + GC
  EXPECT_EQ(cache.NumSois(), 0u);
  EXPECT_EQ(cache.NumSolutions(), 0u);
  EXPECT_EQ(cache.stats().generation_evictions, 2u);  // SOI + solution
}

TEST(SoiCacheLruTest, GcOffKeepsGenerationsSideBySide) {
  SoiCache cache;  // defaults: unbounded, generation_gc off
  cache.InsertSoi(1, "q", TaggedSoi("gen1"));
  cache.InsertSoi(2, "q", TaggedSoi("gen2"));
  EXPECT_EQ(cache.NumSois(), 2u);
  EXPECT_EQ(cache.FindSoi(1, "q")->var_names[0], "gen1");
  EXPECT_EQ(cache.FindSoi(2, "q")->var_names[0], "gen2");
  EXPECT_EQ(cache.stats().generation_evictions, 0u);
}

TEST(SoiCacheLruTest, ManualEvictStaleGenerationsKeepsOnlyTheLiveOne) {
  SoiCache cache;
  auto a = cache.InsertSoi(1, "a", TaggedSoi("a"));
  cache.InsertSoi(2, "b", TaggedSoi("b"));
  cache.InsertSoi(3, "c", TaggedSoi("c"));
  cache.InsertSolution(1, "a", a.get(), TaggedSolution(1));
  // Dropped artifacts: SOI a + its solution + SOI c.
  EXPECT_EQ(cache.EvictStaleGenerations(2), 3u);
  EXPECT_EQ(cache.NumSois(), 1u);
  EXPECT_EQ(cache.NumSolutions(), 0u);
  EXPECT_NE(cache.FindSoi(2, "b"), nullptr);
  EXPECT_EQ(cache.stats().generation_evictions, 3u);
}

TEST(SoiCacheLruTest, CountersExactOverScriptedSequence) {
  SoiCache cache(SoiCache::Options{2, /*generation_gc=*/true});
  SoiCache::Stats want;

  EXPECT_EQ(cache.FindSoi(1, "a"), nullptr);
  ++want.soi_misses;
  auto a = cache.InsertSoi(1, "a", TaggedSoi("a"));
  EXPECT_NE(cache.FindSoi(1, "a"), nullptr);
  ++want.soi_hits;

  cache.InsertSoi(1, "b", TaggedSoi("b"));
  // Recency is now [b, a]; inserting "c" into capacity 2 evicts "a".
  cache.InsertSoi(1, "c", TaggedSoi("c"));
  ++want.soi_evictions;
  EXPECT_EQ(cache.FindSoi(1, "a"), nullptr);
  ++want.soi_misses;

  auto b = cache.FindSoi(1, "b");
  ++want.soi_hits;
  EXPECT_EQ(cache.FindSolution(1, "b", b.get()), nullptr);
  ++want.solution_misses;
  cache.InsertSolution(1, "b", b.get(), TaggedSolution(1));
  EXPECT_NE(cache.FindSolution(1, "b", b.get()), nullptr);
  ++want.solution_hits;

  // Solving against an evicted instance neither stores nor hits.
  cache.InsertSolution(1, "a", a.get(), TaggedSolution(5));
  EXPECT_EQ(cache.FindSolution(1, "a", a.get()), nullptr);
  ++want.solution_misses;

  // Generation bump: SOIs b, c + b's attached solution swept.
  cache.InsertSoi(2, "a", TaggedSoi("a2"));
  want.generation_evictions += 3;

  EXPECT_TRUE(ExpectStats(cache.stats(), want));
  EXPECT_EQ(cache.NumSois(), 1u);
  EXPECT_EQ(cache.NumSolutions(), 0u);
}

TEST(SoiCacheLruTest, ClearResetsEntriesAndCounters) {
  SoiCache cache(SoiCache::Options{2, true});
  auto a = cache.InsertSoi(1, "a", TaggedSoi("a"));
  cache.InsertSolution(1, "a", a.get(), TaggedSolution(1));
  cache.FindSoi(1, "a");
  cache.Clear();
  EXPECT_EQ(cache.NumSois(), 0u);
  EXPECT_EQ(cache.NumSolutions(), 0u);
  SoiCache::Stats zero;
  EXPECT_TRUE(ExpectStats(cache.stats(), zero));
  // A fresh start: the pre-Clear generation does not count as "seen", so
  // re-inserting at generation 1 is not a stale insert.
  cache.InsertSoi(1, "a", TaggedSoi("a"));
  EXPECT_NE(cache.FindSoi(1, "a"), nullptr);
}

}  // namespace
}  // namespace sparqlsim::sim
