// QueryService contract tests. The load-bearing one is differential: 72
// random queries submitted concurrently from several threads, under every
// combination of worker count / queue depth / cache configuration, must
// produce PruneReports bit-identical to a sequential SimEngine::Prune of
// the same queries. Runs under TSan in CI (thread-sanitizer job).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "datagen/random_graphs.h"
#include "sim/query_service.h"
#include "sim/sim_engine.h"
#include "sparql/normalize.h"
#include "sparql/parser.h"
#include "util/rng.h"

namespace sparqlsim::sim {
namespace {

std::string RandomQueryText(util::Rng& rng, size_t num_nodes) {
  auto var = [&](int k) { return "?v" + std::to_string(rng.NextBounded(k)); };
  auto triple = [&](int k) {
    std::string p = "<p" + std::to_string(rng.NextBounded(3)) + ">";
    std::string s =
        rng.NextBool(0.15)
            ? "<n" + std::to_string(rng.NextBounded(num_nodes)) + ">"
            : var(k);
    return s + " " + p + " " + var(k) + " . ";
  };
  std::string text = "SELECT * WHERE { ";
  switch (rng.NextBounded(4)) {
    case 0:
      text += triple(3) + triple(3);
      break;
    case 1:
      text += triple(2) + "OPTIONAL { " + triple(4) + "} ";
      break;
    case 2:
      text += "{ " + triple(2) + "} UNION { " + triple(2) + "} ";
      break;
    default:
      text += triple(2) + "OPTIONAL { " + triple(3) + "} " + triple(3);
      break;
  }
  text += "}";
  return text;
}

std::vector<sparql::Query> MakeQueryPool(uint64_t seed, size_t count,
                                         size_t num_nodes) {
  util::Rng rng(seed);
  std::vector<sparql::Query> queries;
  while (queries.size() < count) {
    auto parsed = sparql::Parser::Parse(RandomQueryText(rng, num_nodes));
    if (!parsed.ok()) continue;
    queries.push_back(std::move(parsed).value());
  }
  return queries;
}

void ExpectReportsEqual(const PruneReport& actual, const PruneReport& want,
                        const std::string& context) {
  EXPECT_EQ(actual.kept_triples, want.kept_triples) << context;
  EXPECT_EQ(actual.num_branches, want.num_branches) << context;
  ASSERT_EQ(actual.var_candidates.size(), want.var_candidates.size())
      << context;
  for (const auto& [var, bits] : want.var_candidates) {
    auto it = actual.var_candidates.find(var);
    ASSERT_NE(it, actual.var_candidates.end()) << context << " ?" << var;
    EXPECT_EQ(it->second, bits) << context << " ?" << var;
  }
}

struct StressConfig {
  size_t workers;
  size_t queue_depth;
  size_t cache_capacity;
  bool cache;
  size_t solver_threads;
};

class QueryServiceStress : public ::testing::TestWithParam<StressConfig> {};

TEST_P(QueryServiceStress, ConcurrentSubmissionsMatchSequentialPrune) {
  const StressConfig& config = GetParam();

  datagen::RandomGraphConfig graph_config;
  graph_config.num_nodes = 60;
  graph_config.num_edges = 240;
  graph_config.num_labels = 3;
  graph_config.seed = 11 + config.workers;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(graph_config);

  // 16 distinct random queries, cycled into 72 submissions so the mix has
  // guaranteed duplicates (dedup + solution-cache fodder).
  std::vector<sparql::Query> pool =
      MakeQueryPool(/*seed=*/1234 + config.workers, 16,
                    graph_config.num_nodes);
  constexpr size_t kSubmissions = 72;
  std::vector<size_t> workload(kSubmissions);
  for (size_t i = 0; i < kSubmissions; ++i) workload[i] = i % pool.size();

  // Sequential ground truth: a plain single-threaded, cache-free engine.
  SolverOptions plain;
  plain.num_threads = 1;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  SimEngine reference_engine(&db, plain);
  std::vector<PruneReport> reference;
  reference.reserve(pool.size());
  for (const sparql::Query& q : pool) {
    reference.push_back(reference_engine.Prune(q));
  }

  QueryServiceOptions options;
  options.num_workers = config.workers;
  options.queue_depth = config.queue_depth;
  options.cache_capacity = config.cache_capacity;
  options.solver.cache_sois = config.cache;
  options.solver.cache_solutions = config.cache;
  options.solver.num_threads = config.solver_threads;
  QueryService service(&db, options);

  // 6 submitter threads × 12 submissions: Submit and future::get both race
  // against the service workers.
  constexpr size_t kSubmitters = 6;
  std::vector<PruneReport> results(kSubmissions);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = t; i < kSubmissions; i += kSubmitters) {
        std::future<PruneReport> f = service.Submit(pool[workload[i]]);
        results[i] = f.get();
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  service.Drain();

  for (size_t i = 0; i < kSubmissions; ++i) {
    ExpectReportsEqual(results[i], reference[workload[i]],
                       "submission " + std::to_string(i) + " (query " +
                           std::to_string(workload[i]) + ")");
  }

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, kSubmissions);
  EXPECT_EQ(stats.executed + stats.coalesced, kSubmissions);
  EXPECT_GE(stats.peak_in_flight, 1u);
  EXPECT_LE(stats.peak_in_flight, config.queue_depth == 0
                                      ? 1u
                                      : config.queue_depth);
  if (config.cache) {
    EXPECT_LE(stats.cached_sois,
              config.cache_capacity == 0 ? kSubmissions
                                         : config.cache_capacity);
    EXPECT_LE(stats.cached_solutions,
              config.cache_capacity == 0 ? kSubmissions
                                         : config.cache_capacity);
  } else {
    EXPECT_EQ(stats.cached_sois, 0u);
    EXPECT_EQ(stats.cached_solutions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, QueryServiceStress,
    ::testing::Values(
        // Serial floor: one worker, admission one at a time.
        StressConfig{1, 1, 0, true, 1},
        // Typical server shape: several workers, bounded queue, LRU cache.
        StressConfig{4, 8, 4, true, 1},
        // Deep queue, unbounded cache.
        StressConfig{4, 64, 0, true, 1},
        // Cache off entirely.
        StressConfig{4, 8, 0, false, 1},
        // Tiny cache (capacity 1): eviction storm while queries are in
        // flight.
        StressConfig{8, 8, 1, true, 1},
        // Intra-query parallelism on top: engine pool shared by concurrent
        // Prune calls.
        StressConfig{2, 4, 4, true, 2}));

TEST(QueryServiceTest, SubmitBatchReturnsReportsInSubmissionOrder) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 40;
  config.num_edges = 160;
  config.num_labels = 3;
  config.seed = 77;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  std::vector<sparql::Query> pool = MakeQueryPool(99, 8, config.num_nodes);

  SolverOptions plain;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  SimEngine reference(&db, plain);

  QueryServiceOptions options;
  options.num_workers = 4;
  options.queue_depth = 4;
  QueryService service(&db, options);
  std::vector<PruneReport> reports = service.SubmitBatch(pool);
  ASSERT_EQ(reports.size(), pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    ExpectReportsEqual(reports[i], reference.Prune(pool[i]),
                       "batch query " + std::to_string(i));
  }
}

TEST(QueryServiceTest, InFlightDuplicatesCoalesceDeterministically) {
  graph::GraphDatabase db = datagen::MakeRandomDatabase({});
  std::vector<sparql::Query> pool = MakeQueryPool(5, 2, 50);
  const sparql::Query& blocker = pool[0];
  const sparql::Query& repeated = pool[1];
  ASSERT_NE(sparql::CanonicalPatternKey(*blocker.where),
            sparql::CanonicalPatternKey(*repeated.where));

  // Pin the single worker inside the first solve so every later submission
  // is provably in flight at once.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<size_t> solves{0};

  QueryServiceOptions options;
  options.num_workers = 1;
  options.queue_depth = 4;
  options.solve_hook = [&, released] {
    if (solves.fetch_add(1) == 0) released.wait();
  };
  QueryService service(&db, options);

  std::future<PruneReport> f0 = service.Submit(blocker);
  std::vector<std::future<PruneReport>> dups;
  for (int i = 0; i < 10; ++i) dups.push_back(service.Submit(repeated));

  // Worker is parked in the hook; exactly one admission for `repeated`.
  QueryService::Stats mid = service.stats();
  EXPECT_EQ(mid.submitted, 11u);
  EXPECT_EQ(mid.coalesced, 9u);
  EXPECT_EQ(mid.executed, 0u);

  release.set_value();
  service.Drain();

  SolverOptions plain;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  SimEngine reference(&db, plain);
  PruneReport want = reference.Prune(repeated);
  ExpectReportsEqual(f0.get(), reference.Prune(blocker), "blocker");
  for (auto& f : dups) ExpectReportsEqual(f.get(), want, "dup");

  QueryService::Stats done = service.stats();
  EXPECT_EQ(done.executed, 2u);
  EXPECT_EQ(done.coalesced, 9u);
  EXPECT_EQ(done.peak_in_flight, 2u);
}

TEST(QueryServiceTest, CompletedQueryAdmitsAFreshSolveAndHitsTheCache) {
  graph::GraphDatabase db = datagen::MakeRandomDatabase({});
  std::vector<sparql::Query> pool = MakeQueryPool(21, 1, 50);

  QueryServiceOptions options;
  options.num_workers = 1;
  QueryService service(&db, options);

  PruneReport first = service.Submit(pool[0]).get();
  service.Drain();
  PruneReport second = service.Submit(pool[0]).get();
  ExpectReportsEqual(second, first, "re-submission");

  QueryService::Stats stats = service.stats();
  // Two executions (no overlap), zero coalesced — but the second one was
  // answered from the solution cache, not the solver.
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_GE(stats.cache.solution_hits, 1u);
}

TEST(QueryServiceTest, FullyCachedQueryIsAnsweredOnTheSubmittingThread) {
  graph::GraphDatabase db = datagen::MakeRandomDatabase({});
  std::vector<sparql::Query> pool = MakeQueryPool(5, 2, 50);
  const sparql::Query& blocker = pool[0];
  const sparql::Query& cached = pool[1];
  ASSERT_NE(sparql::CanonicalPatternKey(*blocker.where),
            sparql::CanonicalPatternKey(*cached.where));

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> hold{false};
  std::atomic<size_t> solves{0};

  QueryServiceOptions options;
  options.num_workers = 1;
  options.queue_depth = 2;
  options.solve_hook = [&, released] {
    solves.fetch_add(1);
    if (hold.load()) released.wait();
  };
  QueryService service(&db, options);
  const PruneReport first = service.Submit(cached).get();
  service.Drain();
  ASSERT_EQ(solves.load(), 1u);

  // Park the only worker: a submission that needs it waits in the queue.
  hold.store(true);
  std::future<PruneReport> parked = service.Submit(blocker);
  std::future<PruneReport> hit = service.Submit(cached);
  const bool answered_at_once =
      hit.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  release.set_value();
  EXPECT_TRUE(answered_at_once);
  ExpectReportsEqual(hit.get(), first, "cached resubmission");
  parked.get();
  service.Drain();
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(solves.load(), 2u);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.peak_in_flight, 1u);
  EXPECT_GE(stats.cache.solution_hits, 1u);
}

TEST(QueryServiceTest, PruneCachedCountsOnlyTheHitsItAnswers) {
  graph::GraphDatabase db = datagen::MakeRandomDatabase({});
  const sparql::Query query = std::move(MakeQueryPool(8, 1, 50)[0]);
  auto expect_stats_equal = [](const SoiCache::Stats& a,
                               const SoiCache::Stats& b) {
    EXPECT_EQ(a.soi_hits, b.soi_hits);
    EXPECT_EQ(a.soi_misses, b.soi_misses);
    EXPECT_EQ(a.solution_hits, b.solution_hits);
    EXPECT_EQ(a.solution_misses, b.solution_misses);
  };

  SimEngine engine(&db);
  EXPECT_FALSE(engine.PruneCached(query).has_value());
  expect_stats_equal(engine.cache()->stats(), SoiCache::Stats{});
  const PruneReport report = engine.Prune(query);

  // A hit answers exactly what Prune answers, solves nothing, and counts
  // the same lookups as a Prune served from the cache.
  const SoiCache::Stats before = engine.cache()->stats();
  const std::optional<PruneReport> cached = engine.PruneCached(query);
  ASSERT_TRUE(cached.has_value());
  const SoiCache::Stats after_hit = engine.cache()->stats();
  ExpectReportsEqual(*cached, report, "cached prune");
  EXPECT_EQ(cached->solution_cache_hits, cached->num_branches);
  EXPECT_EQ(cached->stats.rounds, 0u);
  const PruneReport again = engine.Prune(query);
  EXPECT_EQ(again.solution_cache_hits, again.num_branches);
  const SoiCache::Stats after_prune = engine.cache()->stats();
  EXPECT_EQ(after_hit.soi_hits - before.soi_hits,
            after_prune.soi_hits - after_hit.soi_hits);
  EXPECT_EQ(after_hit.solution_hits - before.solution_hits,
            after_prune.solution_hits - after_hit.solution_hits);
  EXPECT_EQ(after_hit.soi_misses, before.soi_misses);
  EXPECT_EQ(after_hit.solution_misses, before.solution_misses);

  // A union with one cached branch and one uncached is not a hit, and its
  // probe counts nothing.
  auto parse = [](const char* text) {
    return std::move(sparql::Parser::Parse(text)).value();
  };
  const sparql::Query one = parse("SELECT * WHERE { ?x <p0> ?y . }");
  const sparql::Query two = parse(
      "SELECT * WHERE { { ?x <p0> ?y . } UNION { ?x <p1> ?y . } }");
  engine.Prune(one);
  const SoiCache::Stats before_partial = engine.cache()->stats();
  EXPECT_FALSE(engine.PruneCached(two).has_value());
  expect_stats_equal(engine.cache()->stats(), before_partial);
  EXPECT_EQ(engine.Prune(two).solution_cache_hits, 1u);

  SolverOptions no_solutions;
  no_solutions.cache_solutions = false;
  SimEngine uncached(&db, no_solutions);
  uncached.Prune(query);
  EXPECT_FALSE(uncached.PruneCached(query).has_value());
}

TEST(QueryServiceTest, DestructorDrainsOutstandingFutures) {
  graph::GraphDatabase db = datagen::MakeRandomDatabase({});
  std::vector<sparql::Query> pool = MakeQueryPool(42, 6, 50);

  std::vector<std::future<PruneReport>> futures;
  {
    QueryServiceOptions options;
    options.num_workers = 2;
    options.queue_depth = 6;
    QueryService service(&db, options);
    for (const sparql::Query& q : pool) futures.push_back(service.Submit(q));
    // Service destroyed with work possibly still queued.
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.valid());
    PruneReport report = f.get();  // settled, not abandoned
    EXPECT_GE(report.num_branches, 1u);
  }
}

}  // namespace
}  // namespace sparqlsim::sim
