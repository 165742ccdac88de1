// Out-of-core tier suite. A database opened from a v1 file, a v2 file
// opened eagerly, and a v2 file opened lazily (mmap + per-predicate
// materialization on first touch) must be indistinguishable to the
// engine: bit-identical solutions, prune reports, and fixpoint
// trajectories across thread counts.
// On top of that interchangeability, the suite pins the tier's own
// contracts: a cold lazy open materializes nothing until a query
// touches it, untouched predicates stay on disk, the resident-byte
// budget triggers eviction (and re-faulting stays correct), pins block
// eviction for the duration of a solve, and concurrent readers may
// fault and evict the same slots freely (the racing case runs under
// TSan in CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "graph/binary_io.h"
#include "graph/graph_database.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/validate.h"
#include "sparql/parser.h"
#include "util/bitvector.h"

namespace sparqlsim::sim {
namespace {

using graph::BinaryIo;
using graph::GraphDatabase;

// Writes `db` in both formats; returns the two paths.
std::pair<std::string, std::string> WriteBothFormats(const GraphDatabase& db,
                                                     const std::string& tag) {
  std::string v1 = "/tmp/sparqlsim_outofcore_" + tag + "_v1.gdb";
  std::string v2 = "/tmp/sparqlsim_outofcore_" + tag + "_v2.gdb";
  EXPECT_TRUE(BinaryIo::SaveFile(db, v1).ok());
  EXPECT_TRUE(BinaryIo::SaveV2File(db, v2).ok());
  return {v1, v2};
}

GraphDatabase OpenOrDie(const std::string& path,
                        const BinaryIo::LoadOptions& options = {}) {
  auto loaded = BinaryIo::LoadFile(path, options);
  EXPECT_TRUE(loaded.ok()) << path << ": " << loaded.error_message();
  return std::move(loaded).value();
}

void ExpectSameTrajectory(const SolveStats& actual, const SolveStats& want,
                          const std::string& context) {
  EXPECT_EQ(actual.rounds, want.rounds) << context;
  EXPECT_EQ(actual.evaluations, want.evaluations) << context;
  EXPECT_EQ(actual.updates, want.updates) << context;
  EXPECT_EQ(actual.row_evals, want.row_evals) << context;
  EXPECT_EQ(actual.col_evals, want.col_evals) << context;
  EXPECT_EQ(actual.max_round_width, want.max_round_width) << context;
}

// ---------------------------------------------------------------------------
// Interchangeability: v1 / v2-eager / v2-lazy across the solver matrix
// ---------------------------------------------------------------------------

TEST(OutOfCoreDifferentialTest, BackingNeverChangesSolveResults) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 150;
  config.num_edges = 600;
  config.num_labels = 3;
  config.seed = 11;
  GraphDatabase built = datagen::MakeRandomDatabase(config);
  auto [v1_path, v2_path] = WriteBothFormats(built, "diff");

  graph::Graph pattern = datagen::MakeRandomPattern(6, 4, 3, 2011);
  Soi soi = BuildSoiFromGraph(pattern);

  // Canonical solve on the in-memory database.
  Solution reference;
  {
    SimEngine engine(&built, SolverOptions{});
    reference = engine.Solve(soi);
    std::string why;
    ASSERT_TRUE(SatisfiesSoi(soi, built, reference.candidates, &why)) << why;
  }

  BinaryIo::LoadOptions eager;
  eager.eager = true;
  BinaryIo::LoadOptions lazy_tight;
  lazy_tight.resident_budget_bytes = 1;  // evict-everything pressure

  struct Variant {
    const char* name;
    GraphDatabase db;
  };
  Variant variants[] = {
      {"v1", OpenOrDie(v1_path)},
      {"v2-eager", OpenOrDie(v2_path, eager)},
      {"v2-lazy", OpenOrDie(v2_path)},
      {"v2-lazy-tight", OpenOrDie(v2_path, lazy_tight)},
  };

  for (Variant& variant : variants) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      SolverOptions options;
      options.num_threads = threads;
      SimEngine engine(&variant.db, options);
      Solution solution = engine.Solve(soi);
      const std::string context = std::string(variant.name) + ", " +
                                  std::to_string(threads) + " threads";
      ASSERT_EQ(solution.candidates.size(), reference.candidates.size())
          << context;
      for (size_t v = 0; v < reference.candidates.size(); ++v) {
        EXPECT_EQ(solution.candidates[v], reference.candidates[v])
            << context << ", var " << v;
      }
      ExpectSameTrajectory(solution.stats, reference.stats, context);
    }
  }
}

TEST(OutOfCoreDifferentialTest, PruneReportsIdenticalAcrossBackings) {
  GraphDatabase built = datagen::MakeMovieDatabase();
  auto [v1_path, v2_path] = WriteBothFormats(built, "prune");
  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { { ?d <directed> ?m . } UNION "
      "{ ?m <genre> ?g . ?d <directed> ?m . } UNION "
      "{ ?d <directed> ?m . OPTIONAL { ?d <worked_with> ?c . } } }");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  sparql::Query query = std::move(parsed).value();

  BinaryIo::LoadOptions eager;
  eager.eager = true;
  GraphDatabase v1 = OpenOrDie(v1_path);
  GraphDatabase v2_eager = OpenOrDie(v2_path, eager);
  GraphDatabase v2_lazy = OpenOrDie(v2_path);

  PruneReport reference;
  bool have_reference = false;
  for (GraphDatabase* db : {&v1, &v2_eager, &v2_lazy}) {
    SolverOptions options;
    options.num_threads = 2;
    SimEngine engine(db, options);
    PruneReport report = engine.Prune(query);
    if (!have_reference) {
      reference = std::move(report);
      have_reference = true;
      EXPECT_FALSE(reference.kept_triples.empty());
      continue;
    }
    EXPECT_EQ(report.kept_triples, reference.kept_triples);
    ASSERT_EQ(report.var_candidates.size(), reference.var_candidates.size());
    for (const auto& [var, bits] : reference.var_candidates) {
      auto it = report.var_candidates.find(var);
      ASSERT_NE(it, report.var_candidates.end()) << "?" << var;
      EXPECT_EQ(it->second, bits) << "?" << var;
    }
    ExpectSameTrajectory(report.stats, reference.stats, "prune");
  }
}

// ---------------------------------------------------------------------------
// Laziness: cold opens materialize nothing; queries touch only their
// predicates
// ---------------------------------------------------------------------------

TEST(OutOfCoreLazinessTest, ColdOpenMaterializesNothing) {
  GraphDatabase built = datagen::MakeMovieDatabase();
  auto [v1_path, v2_path] = WriteBothFormats(built, "cold");
  (void)v1_path;

  GraphDatabase db = OpenOrDie(v2_path);
  ASSERT_TRUE(db.HasBacking());
  graph::BackingStats stats = db.backing_stats();
  EXPECT_EQ(stats.predicates, built.NumPredicates());
  EXPECT_EQ(stats.materializations, 0u);
  EXPECT_EQ(stats.resident, 0u);

  // Metadata must come from the directory, not from decoding blocks.
  EXPECT_EQ(db.NumTriples(), built.NumTriples());
  for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
    EXPECT_EQ(db.PredicateCardinality(p), built.PredicateCardinality(p));
  }
  EXPECT_EQ(db.backing_stats().materializations, 0u);
}

TEST(OutOfCoreLazinessTest, QueriesOnlyMaterializeTouchedPredicates) {
  GraphDatabase built = datagen::MakeMovieDatabase();
  ASSERT_GE(built.NumPredicates(), 3u);
  auto [v1_path, v2_path] = WriteBothFormats(built, "touch");
  (void)v1_path;

  GraphDatabase db = OpenOrDie(v2_path);
  auto parsed =
      sparql::Parser::Parse("SELECT * WHERE { ?d <directed> ?m . }");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  SimEngine engine(&db, SolverOptions{});
  PruneReport report = engine.Prune(parsed.value());
  EXPECT_FALSE(report.kept_triples.empty());

  graph::BackingStats stats = db.backing_stats();
  EXPECT_GT(stats.materializations, 0u);
  EXPECT_LT(stats.materializations, stats.predicates)
      << "a single-predicate query materialized the whole database";
  const uint32_t directed = *built.predicates().Lookup("directed");
  EXPECT_TRUE(db.PredicateResident(directed));
  size_t resident = 0;
  for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
    resident += db.PredicateResident(p) ? 1u : 0u;
  }
  EXPECT_EQ(resident, stats.resident);
  EXPECT_LT(resident, static_cast<size_t>(db.NumPredicates()));
}

// The resident budget counts a slab as exactly its two matrices: the
// Eq. (13) summaries are the matrices' presence bitmaps, already inside
// ApproxBytes, not extra copies.
TEST(OutOfCoreLazinessTest, ResidentBytesAreTheMatricesApproxBytes) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 300;
  config.num_edges = 1200;
  config.num_labels = 4;
  config.seed = 5;
  GraphDatabase built = datagen::MakeRandomDatabase(config);
  auto [v1_path, v2_path] = WriteBothFormats(built, "slabbytes");
  (void)v1_path;

  GraphDatabase db = OpenOrDie(v2_path);
  ASSERT_EQ(db.backing_stats().resident_bytes, 0u);
  size_t expected = 0;
  for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
    expected += db.Forward(p).ApproxBytes() + db.Backward(p).ApproxBytes();
    EXPECT_EQ(db.backing_stats().resident_bytes, expected) << "p=" << p;
  }
  EXPECT_EQ(db.ApproxMatrixBytes(), expected);
}

// Restrict after a lazy prune settles every predicate from slot metadata or
// from the slabs the query already faulted in, so it decodes nothing new —
// not the predicates the query never read, and not a predicate with no
// triples. Its result is the eager open's Restrict, triple for triple.
TEST(OutOfCoreLazinessTest, RestrictAfterPruneMaterializesNothingNew) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 200;
  config.num_edges = 1500;
  config.num_labels = 8;
  config.seed = 23;
  GraphDatabase random = datagen::MakeRandomDatabase(config);
  graph::GraphDatabaseBuilder builder;
  for (uint32_t node = 0; node < random.NumNodes(); ++node) {
    builder.InternNode(random.nodes().Name(node));
  }
  for (uint32_t p = 0; p < random.NumPredicates(); ++p) {
    builder.InternPredicate(random.predicates().Name(p));
  }
  builder.InternPredicate("no_triples");
  random.ForEachTriple([&](const graph::Triple& t) {
    ASSERT_TRUE(builder.AddTripleIds(t.subject, t.predicate, t.object).ok());
  });
  GraphDatabase built = std::move(builder).Build();
  auto [v1_path, v2_path] = WriteBothFormats(built, "restrict");
  (void)v1_path;

  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z . }");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();

  GraphDatabase lazy = OpenOrDie(v2_path);
  PruneReport lazy_report =
      SimEngine(&lazy, SolverOptions{}).Prune(parsed.value());
  ASSERT_FALSE(lazy_report.kept_triples.empty());
  const size_t faulted = lazy.backing_stats().materializations;
  EXPECT_LT(faulted, lazy.NumPredicates());
  GraphDatabase restricted = lazy.Restrict(lazy_report.kept_triples);
  EXPECT_EQ(lazy.backing_stats().materializations, faulted);

  BinaryIo::LoadOptions eager_options;
  eager_options.eager = true;
  GraphDatabase eager = OpenOrDie(v2_path, eager_options);
  PruneReport eager_report =
      SimEngine(&eager, SolverOptions{}).Prune(parsed.value());
  GraphDatabase eager_restricted = eager.Restrict(eager_report.kept_triples);
  EXPECT_EQ(restricted.NumTriples(), eager_restricted.NumTriples());
  EXPECT_EQ(restricted.AllTriples(), eager_restricted.AllTriples());
}

// ---------------------------------------------------------------------------
// Eviction: the budget holds once pins drop, and re-faulting is correct
// ---------------------------------------------------------------------------

TEST(OutOfCoreEvictionTest, BudgetEvictsAndRefaultsCorrectly) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 200;
  config.num_edges = 900;
  config.num_labels = 6;
  config.seed = 4;
  GraphDatabase built = datagen::MakeRandomDatabase(config);
  auto [v1_path, v2_path] = WriteBothFormats(built, "evict");
  (void)v1_path;

  BinaryIo::LoadOptions tight;
  tight.resident_budget_bytes = 1;  // room for at most the pinned slab
  GraphDatabase db = OpenOrDie(v2_path, tight);
  ASSERT_TRUE(db.HasBacking());
  EXPECT_EQ(db.backing_stats().budget_bytes, 1u);

  // Touch every predicate twice; with a 1-byte budget each unpinned slab
  // must be evicted, and the second pass re-faults it.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
      EXPECT_EQ(db.Forward(p).Nnz(), built.Forward(p).Nnz())
          << "pass " << pass << " predicate " << p;
    }
  }
  graph::BackingStats stats = db.backing_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.materializations, static_cast<size_t>(db.NumPredicates()))
      << "second pass should have re-faulted evicted predicates";
  EXPECT_LE(stats.resident, 1u);

  // Lifting the budget stops eviction; everything can stay resident.
  db.SetResidentBudget(0);
  for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
    (void)db.Forward(p).Nnz();
  }
  EXPECT_EQ(db.backing_stats().resident,
            static_cast<size_t>(db.NumPredicates()));
}

TEST(OutOfCoreEvictionTest, PinsDeferEvictionUntilReleased) {
  GraphDatabase built = datagen::MakeMovieDatabase();
  auto [v1_path, v2_path] = WriteBothFormats(built, "pin");
  (void)v1_path;

  GraphDatabase db = OpenOrDie(v2_path);
  {
    graph::ResidencyPin pin = db.PinResidency();
    for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
      (void)db.Forward(p).Nnz();
    }
    // A pinned database ignores the budget (enforcement is deferred)...
    db.SetResidentBudget(1);
    EXPECT_EQ(db.backing_stats().resident,
              static_cast<size_t>(db.NumPredicates()));
  }
  // ...and the deferred enforcement runs at the last unpin.
  EXPECT_LE(db.backing_stats().resident, 1u);
  EXPECT_GT(db.backing_stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: racing faults and evictions (TSan-checked in CI)
// ---------------------------------------------------------------------------

TEST(OutOfCoreConcurrencyTest, RacingReadersFaultAndEvictSafely) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 120;
  config.num_edges = 500;
  config.num_labels = 4;
  config.seed = 23;
  GraphDatabase built = datagen::MakeRandomDatabase(config);
  auto [v1_path, v2_path] = WriteBothFormats(built, "race");
  (void)v1_path;

  BinaryIo::LoadOptions tight;
  tight.resident_budget_bytes = 1;
  GraphDatabase db = OpenOrDie(v2_path, tight);

  graph::Graph pattern = datagen::MakeRandomPattern(5, 3, 4, 99);
  Soi soi = BuildSoiFromGraph(pattern);
  Solution reference;
  {
    SimEngine engine(&built, SolverOptions{});
    reference = engine.Solve(soi);
  }

  std::vector<std::thread> workers;
  std::vector<int> mismatches(8, 0);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        SolverOptions options;
        options.num_threads = 1;
        SimEngine engine(&db, options);
        Solution solution = engine.Solve(soi);
        if (solution.candidates != reference.candidates) ++mismatches[t];
        // Raw matrix reads happen while other threads evict; like any
        // direct matrix walk on an out-of-core database they must hold a
        // residency pin, which defers eviction past the reads.
        auto pin = db.PinResidency();
        for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
          if (db.Forward(p).Nnz() != built.Forward(p).Nnz()) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace sparqlsim::sim
