// The scratch-pool contract, three layers deep:
//
//  * util: summary-guided sparse clearing (HierarchicalBitVector::ClearLive)
//    and candidate-set recycling (ResetForReuse / AssignFrom) are
//    observationally identical to fresh construction;
//  * solver: pooled and unpooled solves are bit-identical — solutions,
//    PruneReports, and fixpoint trajectories — across thread counts, for
//    one-shot, warm-started, and standing-query solves;
//  * serving: a warmed SimEngine/QueryService reaches the zero-allocation
//    steady state (scratch_allocs flat, every checkout a reuse), including
//    under concurrent submission (this suite runs in the TSan CI leg).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "graph/graph_database.h"
#include "graph/triple.h"
#include "sim/query_service.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/standing_query.h"
#include "sparql/normalize.h"
#include "sparql/parser.h"
#include "util/bitvector.h"
#include "util/hierarchical_bitvector.h"
#include "util/rng.h"

namespace sparqlsim::sim {
namespace {

using util::BitVector;
using util::HierarchicalBitVector;

sparql::Query ParseQuery(const std::string& text) {
  auto parsed = sparql::Parser::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error_message() << " in " << text;
  return std::move(parsed).value();
}

BitVector RandomVector(util::Rng* rng, size_t n, double density) {
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(density)) v.Set(i);
  }
  return v;
}

// ---------------------------------------------------------------------------
// util layer: sparse clearing and recycling primitives
// ---------------------------------------------------------------------------

TEST(SparseClearTest, ClearLiveEqualsClearAllAndCountsWords) {
  util::Rng rng(13);
  for (size_t n : {64u, 4095u, 4096u, 4097u, 3 * 4096u + 9u}) {
    for (double density : {0.0, 0.001, 0.3}) {
      HierarchicalBitVector h(n);
      BitVector seed = RandomVector(&rng, n, density);
      seed.ForEachSetBit([&](uint32_t i) { h.Set(i); });
      const uint64_t before = h.words_cleared();
      h.ClearLive();
      EXPECT_EQ(h.Count(), 0u);
      for (size_t i = 0; i < n; i += 97) EXPECT_FALSE(h.Test(i));
      if (seed.None()) {
        // No live block: the sparse clear touches nothing.
        EXPECT_EQ(h.words_cleared(), before);
      } else {
        EXPECT_GT(h.words_cleared(), before);
      }
      // The vector must be fully reusable after the wipe: set a bit in
      // every block and count through the summary.
      for (size_t i = 0; i < n; i += 4096) h.Set(i);
      EXPECT_EQ(h.Count(), (n + 4095) / 4096);
    }
  }
}

TEST(SparseClearTest, ResetForReuseIsObservationallyAFreshSet) {
  util::Rng rng(17);
  for (size_t old_n : {600u, 4200u}) {
    for (size_t new_n : {600u, 4200u}) {
      // Dirty a set, then recycle it under a possibly different width.
      HierarchicalBitVector used(old_n);
      RandomVector(&rng, old_n, 0.01).ForEachSetBit([&](uint32_t i) {
        used.Set(i);
      });
      used.AndWith(RandomVector(&rng, old_n, 0.5));
      used.ResetForReuse(new_n);

      HierarchicalBitVector fresh(new_n);
      EXPECT_EQ(used.size(), fresh.size());
      EXPECT_EQ(used.Count(), 0u);
      EXPECT_FALSE(used.Any());

      // Drive both through the same mutation sequence: every observable
      // (count, membership, change reports) must stay equal.
      BitVector mask = RandomVector(&rng, new_n, 0.3);
      used.SetAll();
      fresh.SetAll();
      EXPECT_EQ(used.AndWith(mask), fresh.AndWith(mask));
      EXPECT_EQ(used.Count(), fresh.Count());
      EXPECT_EQ(used.bits(), fresh.bits());
    }
  }
}

TEST(SparseClearTest, AssignFromMatchesSeedingConstructor) {
  util::Rng rng(23);
  for (double density : {0.0, 0.004, 0.6}) {
    const size_t n = 5000;
    BitVector seed = RandomVector(&rng, n, density);
    HierarchicalBitVector recycled(n / 2, true);
    recycled.AssignFrom(seed);
    HierarchicalBitVector fresh(seed);
    EXPECT_EQ(recycled.Count(), fresh.Count());
    EXPECT_EQ(recycled.Any(), fresh.Any());
    EXPECT_EQ(recycled.bits(), fresh.bits());
    // The rebuilt summary must drive the zero-block kernels exactly.
    BitVector mask = RandomVector(&rng, n, 0.5);
    EXPECT_EQ(recycled.AndWith(mask), fresh.AndWith(mask));
    EXPECT_EQ(recycled.bits(), fresh.bits());
  }
}

// ---------------------------------------------------------------------------
// Solver layer: pooled == unpooled, bit for bit
// ---------------------------------------------------------------------------

void ExpectSameTrajectory(const SolveStats& actual, const SolveStats& want,
                          const std::string& context) {
  EXPECT_EQ(actual.rounds, want.rounds) << context;
  EXPECT_EQ(actual.evaluations, want.evaluations) << context;
  EXPECT_EQ(actual.updates, want.updates) << context;
  EXPECT_EQ(actual.row_evals, want.row_evals) << context;
  EXPECT_EQ(actual.col_evals, want.col_evals) << context;
  EXPECT_EQ(actual.delta_evals, want.delta_evals) << context;
  EXPECT_EQ(actual.full_evals, want.full_evals) << context;
  EXPECT_EQ(actual.acc_rebuilds, want.acc_rebuilds) << context;
  EXPECT_EQ(actual.cols_cleared, want.cols_cleared) << context;
  EXPECT_EQ(actual.max_round_width, want.max_round_width) << context;
}

class PooledDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PooledDeterminism, PooledSolvesMatchUnpooledAcrossTheMatrix) {
  const uint64_t seed = GetParam();
  datagen::RandomGraphConfig config;
  config.num_nodes = 150;
  config.num_edges = 600;
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

  // Two patterns through the same engine, solved twice each: the second
  // round recycles scratch dirtied by a *different* query, the regime
  // where stale-buffer bugs would surface.
  std::vector<Soi> sois;
  sois.push_back(
      BuildSoiFromGraph(datagen::MakeRandomPattern(6, 4, 3, seed + 2000)));
  sois.push_back(
      BuildSoiFromGraph(datagen::MakeRandomPattern(4, 5, 3, seed + 3000)));

  // Unpooled sequential oracle.
  std::vector<Solution> reference;
  {
    SolverOptions plain;
    plain.num_threads = 1;
    plain.reuse_scratch = false;
    SimEngine oracle(&db, plain);
    ASSERT_EQ(oracle.scratch_pool(), nullptr);
    for (const Soi& soi : sois) reference.push_back(oracle.Solve(soi));
  }

  for (bool pooled : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SolverOptions options;
      options.num_threads = threads;
      options.reuse_scratch = pooled;
      SimEngine engine(&db, options);
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t q = 0; q < sois.size(); ++q) {
          const std::string context =
              "seed " + std::to_string(seed) +
              (pooled ? ", pooled" : ", unpooled") + ", " +
              std::to_string(threads) + " threads, pass " +
              std::to_string(pass) + ", query " + std::to_string(q);
          Solution solution = engine.Solve(sois[q]);
          ASSERT_EQ(solution.candidates.size(),
                    reference[q].candidates.size())
              << context;
          for (size_t v = 0; v < solution.candidates.size(); ++v) {
            EXPECT_EQ(solution.candidates[v], reference[q].candidates[v])
                << context << ", var " << v;
          }
          ExpectSameTrajectory(solution.stats, reference[q].stats, context);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PooledDeterminism,
                         ::testing::Range<uint64_t>(1, 5));

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

// The zero-alloc steady-state tests need the pool to exist; under
// SPARQLSIM_NO_SCRATCH=1 (the CI differential-oracle leg) they skip —
// the determinism tests above are the ones that matter in that mode.
bool PoolDisabledByEnv() { return !SolverOptions{}.EffectiveReuseScratch(); }

TEST(ScratchPoolTest, SteadyStateRepeatedSolveStopsAllocating) {
  if (PoolDisabledByEnv()) GTEST_SKIP() << "SPARQLSIM_NO_SCRATCH set";
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  SolverOptions options;
  options.num_threads = 1;
  options.cache_sois = false;
  options.cache_solutions = false;
  SimEngine engine(&db, options);
  ASSERT_NE(engine.scratch_pool(), nullptr);

  sparql::Query query =
      ParseQuery("SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }");
  Soi soi = BuildSoiFromPattern(*query.where, db);

  // Warm-up: the first checkout shapes the scratch.
  engine.Solve(soi);
  EXPECT_EQ(engine.scratch_pool()->stats().allocs, 1u);

  for (int i = 0; i < 10; ++i) {
    const ScratchPool::Stats before = engine.scratch_pool()->stats();
    Solution solution = engine.Solve(soi);
    const ScratchPool::Stats after = engine.scratch_pool()->stats();
    EXPECT_EQ(after.allocs - before.allocs, 0u) << "solve " << i;
    EXPECT_EQ(after.reuses - before.reuses, 1u) << "solve " << i;
    EXPECT_EQ(solution.stats.scratch_reuses, 1u) << "solve " << i;
    EXPECT_EQ(solution.stats.scratch_allocs, 0u) << "solve " << i;
    EXPECT_GT(solution.stats.bytes_recycled, 0u) << "solve " << i;
  }
}

TEST(ScratchPoolTest, SteadyStateHoldsAcrossDistinctSameWidthQueries) {
  if (PoolDisabledByEnv()) GTEST_SKIP() << "SPARQLSIM_NO_SCRATCH set";
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  SolverOptions options;
  options.num_threads = 1;
  options.cache_sois = false;
  options.cache_solutions = false;
  SimEngine engine(&db, options);

  // Distinct shapes over one node universe. A recycled scratch must
  // serve any of them allocation-free once it has seen the widest.
  std::vector<Soi> sois;
  for (const char* text :
       {"SELECT * WHERE { ?d <directed> ?m . }",
        "SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }",
        "SELECT * WHERE { ?d <directed> ?m . ?a <acted_in> ?m . "
        "?d <worked_with> ?a . }",
        "SELECT * WHERE { ?m <genre> ?g . ?a <acted_in> ?m . }"}) {
    sparql::Query query = ParseQuery(text);
    sois.push_back(BuildSoiFromPattern(*query.where, db));
  }

  for (const Soi& soi : sois) engine.Solve(soi);  // warm-up pass

  const ScratchPool::Stats warm = engine.scratch_pool()->stats();
  for (int pass = 0; pass < 3; ++pass) {
    for (const Soi& soi : sois) {
      Solution solution = engine.Solve(soi);
      EXPECT_EQ(solution.stats.scratch_reuses, 1u);
      EXPECT_EQ(solution.stats.scratch_allocs, 0u);
    }
  }
  const ScratchPool::Stats steady = engine.scratch_pool()->stats();
  EXPECT_EQ(steady.allocs, warm.allocs) << "steady-state solves allocated";
  EXPECT_EQ(steady.reuses - warm.reuses, 3u * sois.size());
  EXPECT_GT(steady.bytes_recycled, warm.bytes_recycled);
}

TEST(ScratchPoolTest, DisabledPoolReportsAllocsOnly) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  SolverOptions options;
  options.num_threads = 1;
  options.reuse_scratch = false;
  EXPECT_FALSE(options.EffectiveReuseScratch());
  SimEngine engine(&db, options);
  EXPECT_EQ(engine.scratch_pool(), nullptr);

  sparql::Query query = ParseQuery("SELECT * WHERE { ?d <directed> ?m . }");
  Soi soi = BuildSoiFromPattern(*query.where, db);
  for (int i = 0; i < 3; ++i) {
    Solution solution = engine.Solve(soi);
    EXPECT_EQ(solution.stats.scratch_reuses, 0u);
    EXPECT_EQ(solution.stats.scratch_allocs, 1u);
    EXPECT_EQ(solution.stats.bytes_recycled, 0u);
  }
}

// ---------------------------------------------------------------------------
// Standing queries: pooled scratch under maintenance deltas
// ---------------------------------------------------------------------------

TEST(ScratchPoolStandingTest, MaintenanceIdenticalWithAndWithoutScratch) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 120;
  config.num_edges = 500;
  config.num_labels = 3;
  config.seed = 41;
  graph::GraphDatabase base = datagen::MakeRandomDatabase(config);
  auto snapshot = std::make_shared<const graph::GraphDatabase>(
      base.Snapshot() != nullptr ? *base.Snapshot() : base);

  sparql::Query query = ParseQuery(
      "SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z . ?z <p2> ?x . }");

  StandingQueryOptions with_scratch;
  StandingQueryOptions without_scratch;
  without_scratch.solver.reuse_scratch = false;

  StandingQuery pooled(query, snapshot, with_scratch);
  StandingQuery plain(query, snapshot, without_scratch);

  util::Rng rng(77);
  auto random_triple = [&] {
    return graph::Triple{
        static_cast<uint32_t>(rng.NextBounded(base.NumNodes())),
        static_cast<uint32_t>(rng.NextBounded(base.NumPredicates())),
        static_cast<uint32_t>(rng.NextBounded(base.NumNodes()))};
  };

  for (int step = 0; step < 6; ++step) {
    TripleDelta delta;
    for (int i = 0; i < 5; ++i) delta.inserts.push_back(random_triple());
    std::vector<graph::Triple> all = pooled.db().AllTriples();
    for (int i = 0; i < 3 && !all.empty(); ++i) {
      delta.deletes.push_back(all[rng.NextBounded(all.size())]);
    }

    const PruneReport& a = pooled.Apply(delta);
    const PruneReport& b = plain.Apply(delta);
    EXPECT_EQ(a.kept_triples, b.kept_triples) << "step " << step;
    EXPECT_EQ(a.var_candidates, b.var_candidates) << "step " << step;
    ExpectSameTrajectory(a.stats, b.stats, "step " + std::to_string(step));

    // Cold cross-check: the pooled maintained state equals a cold prune.
    SolverOptions plain_opts;
    plain_opts.num_threads = 1;
    plain_opts.reuse_scratch = false;
    SimEngine cold(&pooled.db(), plain_opts);
    PruneReport want = cold.Prune(query);
    EXPECT_EQ(a.kept_triples, want.kept_triples) << "step " << step;
    EXPECT_EQ(a.var_candidates, want.var_candidates) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// Serving layer: concurrent QueryService on one shared pool (TSan gate)
// ---------------------------------------------------------------------------

TEST(ScratchPoolServiceTest, ConcurrentSubmissionsRecycleAndStayExact) {
  if (PoolDisabledByEnv()) GTEST_SKIP() << "SPARQLSIM_NO_SCRATCH set";
  graph::GraphDatabase db = datagen::MakeMovieDatabase();

  std::vector<sparql::Query> mix;
  for (const char* text :
       {"SELECT * WHERE { ?d <directed> ?m . }",
        "SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }",
        "SELECT * WHERE { ?a <acted_in> ?m . ?d <directed> ?m . }",
        "SELECT * WHERE { ?d <directed> ?m . OPTIONAL { ?d <worked_with> "
        "?c . } }"}) {
    mix.push_back(ParseQuery(text));
  }

  // Sequential cache-free unpooled oracle.
  SolverOptions plain;
  plain.num_threads = 1;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  plain.reuse_scratch = false;
  SimEngine oracle(&db, plain);
  std::map<std::string, PruneReport> reference;
  for (const sparql::Query& q : mix) {
    std::string key = sparql::CanonicalPatternKey(*q.where);
    if (!reference.count(key)) reference.emplace(key, oracle.Prune(q));
  }

  QueryServiceOptions options;
  options.num_workers = 4;
  // Caching off so every submission exercises a pool checkout.
  options.solver.cache_sois = false;
  options.solver.cache_solutions = false;
  QueryService service(&db, options);

  std::vector<std::thread> producers;
  constexpr int kPerProducer = 12;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const sparql::Query& q = mix[(p + i) % mix.size()];
        PruneReport report = service.Submit(q).get();
        const PruneReport& want =
            reference.at(sparql::CanonicalPatternKey(*q.where));
        EXPECT_EQ(report.kept_triples, want.kept_triples);
        EXPECT_EQ(report.var_candidates, want.var_candidates);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.Drain();

  const QueryService::Stats stats = service.stats();
  EXPECT_GT(stats.scratch_reuses, 0u)
      << "a warmed service must recycle scratch";
  // Concurrency may mint a few scratches (one per simultaneous checkout),
  // but never one per solve: reuse must dominate.
  EXPECT_LT(stats.scratch_allocs, stats.scratch_reuses);
  EXPECT_GT(stats.bytes_recycled, 0u);
}

}  // namespace
}  // namespace sparqlsim::sim
