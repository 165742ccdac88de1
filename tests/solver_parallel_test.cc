// The SimEngine concurrency contract: bit-exact identical solutions for any
// thread count (random SOIs and UNION batching), deadlock-free nested
// ParallelFor, SOI/solution cache hit/miss/invalidation behavior, and sound
// truncation under cancellation and deadlines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/validate.h"
#include "sparql/normalize.h"
#include "sparql/parser.h"
#include "util/bitvector.h"
#include "util/thread_pool.h"

namespace sparqlsim::sim {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor primitives
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  util::ParallelFor(&pool, kN, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForInlineWithoutPool) {
  std::vector<int> hits(64, 0);
  util::ParallelFor(nullptr, hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Branch batching runs ParallelFor tasks that themselves call ParallelFor
  // on the same pool; with a pool smaller than the outer fan-out this only
  // terminates because the caller participates in its own loop.
  util::ThreadPool pool(2);
  std::atomic<size_t> total{0};
  util::ParallelFor(&pool, 8, [&](size_t) {
    util::ParallelFor(&pool, 8, [&](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(util::ThreadPool::ResolveThreadCount(3), 3u);
  EXPECT_GE(util::ThreadPool::ResolveThreadCount(0), 1u);
}

// ---------------------------------------------------------------------------
// Determinism: bit-exact solutions for any thread count
// ---------------------------------------------------------------------------

class ParallelDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminism, RandomSoiSolvesIdenticallyAcrossThreadCounts) {
  const uint64_t seed = GetParam();
  datagen::RandomGraphConfig config;
  config.num_nodes = 120;
  config.num_edges = 500;
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(6, 4, 3, seed + 1000);
  Soi soi = BuildSoiFromGraph(pattern);

  Solution reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SolverOptions options;
    options.num_threads = threads;
    SimEngine engine(&db, options);
    Solution solution = engine.Solve(soi);
    if (threads == 1) {
      reference = std::move(solution);
      std::string why;
      EXPECT_TRUE(SatisfiesSoi(soi, db, reference.candidates, &why)) << why;
      continue;
    }
    ASSERT_EQ(solution.candidates.size(), reference.candidates.size());
    for (size_t v = 0; v < reference.candidates.size(); ++v) {
      EXPECT_EQ(solution.candidates[v], reference.candidates[v])
          << "seed " << seed << ", " << threads << " threads, var " << v;
    }
    // Identical fixpoint trajectory, not just the same fixpoint: the merge
    // order is scheduling-independent, so the round/evaluation counters
    // must agree too.
    EXPECT_EQ(solution.stats.rounds, reference.stats.rounds);
    EXPECT_EQ(solution.stats.evaluations, reference.stats.evaluations);
    EXPECT_EQ(solution.stats.updates, reference.stats.updates);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Range<uint64_t>(1, 13));

TEST(ParallelPruneTest, UnionBatchingIsDeterministicAcrossThreadCounts) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { { ?d <directed> ?m . } UNION "
      "{ ?d <worked_with> ?c . } UNION "
      "{ ?m <genre> ?g . ?d <directed> ?m . } UNION "
      "{ ?d <directed> ?m . OPTIONAL { ?d <worked_with> ?c . } } }");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  sparql::Query query = std::move(parsed).value();

  PruneReport reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SolverOptions options;
    options.num_threads = threads;
    SimEngine engine(&db, options);
    PruneReport report = engine.Prune(query);
    if (threads == 1) {
      reference = std::move(report);
      EXPECT_EQ(reference.num_branches, 4u);
      EXPECT_FALSE(reference.kept_triples.empty());
      continue;
    }
    EXPECT_EQ(report.kept_triples, reference.kept_triples);
    ASSERT_EQ(report.var_candidates.size(), reference.var_candidates.size());
    for (const auto& [var, bits] : reference.var_candidates) {
      auto it = report.var_candidates.find(var);
      ASSERT_NE(it, report.var_candidates.end()) << var;
      EXPECT_EQ(it->second, bits) << var << " at " << threads << " threads";
    }
  }
}

TEST(ParallelPruneTest, StatsAccumulateCombinesParallelCounters) {
  SolveStats a;
  a.rounds = 2;
  a.parallel_rounds = 1;
  a.max_round_width = 7;
  a.threads_used = 2;
  SolveStats b;
  b.rounds = 3;
  b.parallel_rounds = 2;
  b.max_round_width = 4;
  b.threads_used = 8;
  a.Accumulate(b);
  EXPECT_EQ(a.rounds, 5u);
  EXPECT_EQ(a.parallel_rounds, 3u);
  EXPECT_EQ(a.max_round_width, 7u);  // max, not sum
  EXPECT_EQ(a.threads_used, 8u);     // max, not sum
}

// ---------------------------------------------------------------------------
// Caching
// ---------------------------------------------------------------------------

TEST(CanonicalKeyTest, InvariantUnderTripleOrderButNotStructure) {
  auto p1 = sparql::Parser::ParsePattern(
      "{ ?d <directed> ?m . ?d <worked_with> ?c . }");
  auto p2 = sparql::Parser::ParsePattern(
      "{ ?d <worked_with> ?c . ?d <directed> ?m . }");
  auto p3 = sparql::Parser::ParsePattern(
      "{ ?d <directed> ?m . }");
  ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
  EXPECT_EQ(sparql::CanonicalPatternKey(*p1.value()),
            sparql::CanonicalPatternKey(*p2.value()));
  EXPECT_NE(sparql::CanonicalPatternKey(*p1.value()),
            sparql::CanonicalPatternKey(*p3.value()));
}

TEST(SoiCacheTest, RepeatedQueryHitsSoiAndSolutionLayers) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  SimEngine engine(&db);  // caches on by default
  ASSERT_NE(engine.cache(), nullptr);

  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }");
  ASSERT_TRUE(parsed.ok());
  sparql::Query query = std::move(parsed).value();

  PruneReport first = engine.Prune(query);
  SoiCache::Stats after_first = engine.cache()->stats();
  EXPECT_EQ(after_first.soi_hits, 0u);
  EXPECT_EQ(after_first.soi_misses, 1u);
  EXPECT_EQ(after_first.solution_hits, 0u);
  EXPECT_EQ(after_first.solution_misses, 1u);
  EXPECT_EQ(first.solution_cache_hits, 0u);
  EXPECT_GE(first.stats.rounds, 1u);

  // Same query again, triples permuted: canonical key matches, whole
  // solution is reused, no solver work happens.
  auto permuted = sparql::Parser::Parse(
      "SELECT * WHERE { ?d <worked_with> ?c . ?d <directed> ?m . }");
  ASSERT_TRUE(permuted.ok());
  PruneReport second = engine.Prune(permuted.value());
  SoiCache::Stats after_second = engine.cache()->stats();
  EXPECT_EQ(after_second.solution_hits, 1u);
  EXPECT_EQ(second.solution_cache_hits, 1u);
  EXPECT_EQ(second.stats.rounds, 0u);  // no solve ran

  EXPECT_EQ(second.kept_triples, first.kept_triples);
  for (const auto& [var, bits] : first.var_candidates) {
    EXPECT_EQ(second.var_candidates.at(var), bits);
  }
}

TEST(SoiCacheTest, DifferentDatabaseGenerationInvalidates) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  auto cache = std::make_shared<SoiCache>();
  SimEngine engine(&db, SolverOptions{}, cache);

  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { ?d <directed> ?m . }");
  ASSERT_TRUE(parsed.ok());
  sparql::Query query = std::move(parsed).value();

  PruneReport on_full = engine.Prune(query);
  EXPECT_EQ(cache->stats().solution_misses, 1u);

  // Restrict() produces a database with a fresh generation; an engine
  // sharing the same cache must not reuse the full database's solution.
  graph::GraphDatabase pruned = db.Restrict(on_full.kept_triples);
  EXPECT_NE(pruned.generation(), db.generation());
  SimEngine pruned_engine(&pruned, SolverOptions{}, cache);
  PruneReport on_pruned = pruned_engine.Prune(query);
  EXPECT_EQ(cache->stats().solution_hits, 0u);
  EXPECT_EQ(cache->stats().solution_misses, 2u);
  EXPECT_EQ(on_pruned.solution_cache_hits, 0u);
  EXPECT_GE(on_pruned.stats.rounds, 1u);

  // A *copy* of a database keeps its generation (same immutable content),
  // so it may share cached solutions.
  graph::GraphDatabase copy = db;
  EXPECT_EQ(copy.generation(), db.generation());
  SimEngine copy_engine(&copy, SolverOptions{}, cache);
  PruneReport on_copy = copy_engine.Prune(query);
  EXPECT_EQ(on_copy.solution_cache_hits, 1u);
  EXPECT_EQ(on_copy.kept_triples, on_full.kept_triples);
}

TEST(SoiCacheTest, TruncatedRunsBypassTheSolutionLayer) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  SolverOptions options;
  options.max_rounds = 1;  // truncated: not the canonical fixpoint
  SimEngine engine(&db, options);
  ASSERT_NE(engine.cache(), nullptr);

  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }");
  ASSERT_TRUE(parsed.ok());
  sparql::Query query = std::move(parsed).value();
  engine.Prune(query);
  engine.Prune(query);
  EXPECT_EQ(engine.cache()->stats().solution_hits, 0u);
  EXPECT_EQ(engine.cache()->NumSolutions(), 0u);
  // The SOI layer is still valid (construction does not depend on rounds).
  EXPECT_EQ(engine.cache()->stats().soi_hits, 1u);
}

TEST(SoiCacheTest, SolutionLayerRequiresSoiLayer) {
  // Regression: canonically-equal patterns may number their SOI variables
  // differently (construction follows triple order, the canonical key does
  // not). With the SOI layer disabled, a cached solution paired with a
  // freshly built SOI once returned another pattern's candidate vectors;
  // the solution layer must be inert without the SOI layer.
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  SolverOptions options;
  options.cache_sois = false;
  options.cache_solutions = true;
  SimEngine engine(&db, options);
  ASSERT_NE(engine.cache(), nullptr);

  auto qa = sparql::Parser::Parse(
      "SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }");
  auto qb = sparql::Parser::Parse(
      "SELECT * WHERE { ?m <genre> ?g . ?d <directed> ?m . }");
  ASSERT_TRUE(qa.ok() && qb.ok());
  engine.Prune(qa.value());
  PruneReport second = engine.Prune(qb.value());
  EXPECT_EQ(engine.cache()->stats().solution_hits, 0u);
  EXPECT_EQ(engine.cache()->NumSolutions(), 0u);

  SolverOptions plain;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  PruneReport reference = SimEngine(&db, plain).Prune(qb.value());
  EXPECT_EQ(second.kept_triples, reference.kept_triples);
  for (const auto& [var, bits] : reference.var_candidates) {
    EXPECT_EQ(second.var_candidates.at(var), bits) << var;
  }
}

TEST(SoiCacheTest, CachesOffMeansNoCacheObject) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  SolverOptions options;
  options.cache_sois = false;
  options.cache_solutions = false;
  SimEngine engine(&db, options);
  EXPECT_EQ(engine.cache(), nullptr);
}

// ---------------------------------------------------------------------------
// Parallel path exercised end to end through an engine-owned pool
// ---------------------------------------------------------------------------

TEST(SimEngineTest, ParallelEngineReportsPoolCounters) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 150;
  config.num_edges = 600;
  config.num_labels = 2;
  config.seed = 3;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(6, 4, 2, 17);
  Soi soi = BuildSoiFromGraph(pattern);

  SolverOptions options;
  options.num_threads = 4;
  SimEngine engine(&db, options);
  ASSERT_NE(engine.pool(), nullptr);
  EXPECT_EQ(engine.pool()->NumThreads(), 4u);

  Solution solution = engine.Solve(soi);
  EXPECT_EQ(solution.stats.threads_used, 4u);
  // 6 nodes / 10 edges => 20 matrix inequalities in round one.
  EXPECT_GE(solution.stats.max_round_width, 2u);
  EXPECT_GE(solution.stats.parallel_rounds, 1u);
}

// ---------------------------------------------------------------------------
// Deadlines: truncation is sound (superset) and flagged
// ---------------------------------------------------------------------------

TEST(SolveControlTest, CancelledSolveTruncatesToASoundSuperset) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 150;
  config.num_edges = 600;
  config.num_labels = 3;
  config.seed = 9;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(6, 4, 3, 77);
  Soi soi = BuildSoiFromGraph(pattern);

  SimEngine engine(&db, SolverOptions{});
  Solution full = engine.Solve(soi);
  ASSERT_FALSE(full.truncated);

  // Pre-cancelled control: the fixpoint stops at the first round boundary.
  std::atomic<bool> cancel{true};
  SolveControl control;
  control.cancel = &cancel;
  Solution cut = engine.Solve(soi, /*initial=*/nullptr, &control);
  EXPECT_TRUE(cut.truncated);
  ASSERT_EQ(cut.candidates.size(), full.candidates.size());
  for (size_t v = 0; v < full.candidates.size(); ++v) {
    // Soundness: truncation can only leave extra candidates, never lose one.
    util::BitVector both = cut.candidates[v];
    both.AndWith(full.candidates[v]);
    EXPECT_EQ(both, full.candidates[v]) << "var " << v;
  }
}

TEST(SolveControlTest, ExpiredDeadlineMarksPruneReportTruncated) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { ?m <genre> ?g . ?d <directed> ?m . }");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  sparql::Query query = std::move(parsed).value();

  SimEngine engine(&db, SolverOptions{});
  SolveControl control;
  control.deadline = std::chrono::steady_clock::now();  // already expired
  PruneReport report = engine.Prune(query, &control);
  EXPECT_TRUE(report.truncated);

  PruneReport full = engine.Prune(query);
  EXPECT_FALSE(full.truncated);
  // Superset property lifts through triple extraction.
  for (const graph::Triple& t : full.kept_triples) {
    EXPECT_TRUE(std::find(report.kept_triples.begin(),
                          report.kept_triples.end(),
                          t) != report.kept_triples.end());
  }
}

}  // namespace
}  // namespace sparqlsim::sim
