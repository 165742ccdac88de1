#include "sim/solver.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "sim/equivalence.h"
#include "sim/naive_oracle.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/validate.h"
#include "sparql/parser.h"

namespace sparqlsim::sim {
namespace {

graph::GraphDatabase ChainDb(size_t length) {
  graph::GraphDatabaseBuilder b;
  for (size_t i = 0; i + 1 < length; ++i) {
    EXPECT_TRUE(b.AddTriple("n" + std::to_string(i), "e",
                            "n" + std::to_string(i + 1))
                    .ok());
  }
  return std::move(b).Build();
}

Soi SoiFor(const char* pattern_text, const graph::GraphDatabase& db) {
  auto p = sparql::Parser::ParsePattern(pattern_text);
  EXPECT_TRUE(p.ok()) << p.error_message();
  return BuildSoiFromPattern(*p.value(), db);
}

TEST(SolverTest, FixpointSatisfiesSoi) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor(
      "{ ?d <directed> ?m . OPTIONAL { ?d <worked_with> ?c . } }", db);
  Solution s = SolveSoi(soi, db);
  std::string why;
  EXPECT_TRUE(SatisfiesSoi(soi, db, s.candidates, &why)) << why;
}

TEST(SolverTest, FixpointIsLargest) {
  // Any valid assignment is contained in the fixpoint (Prop. 1): perturb
  // the solution by clearing bits — still valid; adding any discarded bit
  // breaks validity.
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor("{ ?d <directed> ?m . ?d <worked_with> ?c . }", db);
  Solution s = SolveSoi(soi, db);

  // Clearing a whole variable keeps (7) for connected patterns only if the
  // rest is cleared too — the all-empty assignment is trivially valid.
  std::vector<util::BitVector> empty(soi.NumVars(),
                                     util::BitVector(db.NumNodes()));
  EXPECT_TRUE(SatisfiesSoi(soi, db, empty));

  // Adding any single bit outside the fixpoint is invalid.
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    for (uint32_t node = 0; node < db.NumNodes(); ++node) {
      if (s.candidates[v].Test(node)) continue;
      std::vector<util::BitVector> enlarged = s.candidates;
      enlarged[v].Set(node);
      EXPECT_FALSE(SatisfiesSoi(soi, db, enlarged))
          << "adding " << db.nodes().Name(node) << " to "
          << soi.var_names[v] << " should violate the SOI";
    }
  }
}

TEST(SolverTest, LongChainNeedsManyRounds) {
  // A length-k path pattern against a length-k chain database converges,
  // and emptiness propagates along the chain when the pattern is longer
  // than the data.
  graph::GraphDatabase db = ChainDb(6);
  {
    Soi soi = SoiFor(
        "{ ?a <e> ?b . ?b <e> ?c . ?c <e> ?d . ?d <e> ?f . ?f <e> ?g . }",
        db);
    Solution s = SolveSoi(soi, db);
    EXPECT_TRUE(s.AnyCandidate());
    EXPECT_EQ(s.RelationSize(), 6u);  // one binding per variable
  }
  {
    // Pattern longer than the data: everything dies.
    Soi soi = SoiFor(
        "{ ?a <e> ?b . ?b <e> ?c . ?c <e> ?d . ?d <e> ?f . ?f <e> ?g . "
        "?g <e> ?h . }",
        db);
    Solution s = SolveSoi(soi, db);
    EXPECT_FALSE(s.AnyCandidate());
  }
}

TEST(SolverTest, MaxRoundsTruncates) {
  graph::GraphDatabase db = ChainDb(20);
  Soi soi = SoiFor(
      "{ ?a <e> ?b . ?b <e> ?c . ?c <e> ?d . ?d <e> ?f . ?f <e> ?g . "
      "?g <e> ?h . ?h <e> ?i . ?i <e> ?j . }",
      db);
  SolverOptions unbounded;
  Solution full = SolveSoi(soi, db, unbounded);

  SolverOptions capped;
  capped.max_rounds = 1;
  Solution partial = SolveSoi(soi, db, capped);
  EXPECT_EQ(partial.stats.rounds, 1u);
  // The capped run is an over-approximation of the fixpoint.
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    EXPECT_TRUE(full.candidates[v].IsSubsetOf(partial.candidates[v]));
  }
}

TEST(SolverTest, InitialAssignmentRestricts) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor("{ ?d <directed> ?m . }", db);
  Solution full = SolveSoi(soi, db);
  EXPECT_EQ(full.candidates[0].Count(), 4u);  // four directors

  // Restrict the start to De Palma only: the fixpoint below it keeps just
  // his film.
  std::vector<util::BitVector> initial(soi.NumVars(),
                                       util::BitVector(db.NumNodes(), true));
  int d_var = -1;
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    if (soi.var_names[v] == "d") d_var = static_cast<int>(v);
  }
  ASSERT_GE(d_var, 0);
  initial[d_var].ClearAll();
  initial[d_var].Set(*db.nodes().Lookup("B. De Palma"));

  Solution restricted = SolveSoi(soi, db, {}, &initial);
  EXPECT_EQ(restricted.candidates[d_var].Count(), 1u);
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    EXPECT_TRUE(restricted.candidates[v].IsSubsetOf(full.candidates[v]));
  }
  std::string why;
  EXPECT_TRUE(SatisfiesSoi(soi, db, restricted.candidates, &why)) << why;
}

TEST(SolverTest, StatsCountEvaluationModes) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor("{ ?d <directed> ?m . ?d <worked_with> ?c . }", db);

  SolverOptions row;
  row.eval_mode = SolverOptions::EvalMode::kRowWise;
  Solution sr = SolveSoi(soi, db, row);
  EXPECT_GT(sr.stats.row_evals, 0u);
  EXPECT_EQ(sr.stats.col_evals, 0u);

  SolverOptions col;
  col.eval_mode = SolverOptions::EvalMode::kColumnWise;
  Solution sc = SolveSoi(soi, db, col);
  EXPECT_EQ(sc.stats.row_evals, 0u);
  EXPECT_GT(sc.stats.col_evals, 0u);
}

// The forced eval modes compute the same masks after the AND with
// chi(lhs), so they walk the same fixpoint trajectory; only the eval-kind
// split differs, and it stays within the evaluation count.
TEST(SolverTest, ForcedEvalModesAgreeAndCountersAddUp) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 130;
  config.num_edges = 650;
  config.num_labels = 2;
  config.seed = 11;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(6, 5, 2, 901);
  Soi soi = BuildSoiFromGraph(pattern);

  Solution reference;
  for (auto mode : {SolverOptions::EvalMode::kDynamic,
                    SolverOptions::EvalMode::kRowWise,
                    SolverOptions::EvalMode::kColumnWise}) {
    SolverOptions options;
    options.eval_mode = mode;
    Solution s = SolveSoi(soi, db, options);
    EXPECT_LE(s.stats.row_evals + s.stats.col_evals, s.stats.evaluations);
    EXPECT_LE(s.stats.updates, s.stats.evaluations);
    if (mode == SolverOptions::EvalMode::kRowWise) {
      EXPECT_GT(s.stats.row_evals, 0u);
      EXPECT_EQ(s.stats.col_evals, 0u);
    }
    if (mode == SolverOptions::EvalMode::kColumnWise) {
      EXPECT_EQ(s.stats.row_evals, 0u);
      EXPECT_GT(s.stats.col_evals, 0u);
    }
    if (mode == SolverOptions::EvalMode::kDynamic) {
      reference = std::move(s);
      continue;
    }
    ASSERT_EQ(s.candidates.size(), reference.candidates.size());
    for (size_t v = 0; v < reference.candidates.size(); ++v) {
      EXPECT_EQ(s.candidates[v], reference.candidates[v]) << "var " << v;
    }
    EXPECT_EQ(s.stats.rounds, reference.stats.rounds);
    EXPECT_EQ(s.stats.evaluations, reference.stats.evaluations);
    EXPECT_EQ(s.stats.updates, reference.stats.updates);
  }
}

// Restricted solves (the strong-simulation ball path) start below the
// all-ones assignment via `initial`: the result is the largest solution
// below it, at every thread count.
TEST(SolverTest, RestrictedSolveRespectsInitialAssignment) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 80;
  config.num_edges = 300;
  config.num_labels = 2;
  config.seed = 23;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(5, 3, 2, 321);
  Soi soi = BuildSoiFromGraph(pattern);

  // Restrict every variable to the even nodes.
  std::vector<util::BitVector> initial(soi.NumVars(),
                                       util::BitVector(db.NumNodes()));
  for (auto& v : initial) {
    for (size_t i = 0; i < db.NumNodes(); i += 2) v.Set(i);
  }

  Solution full = SolveSoi(soi, db);
  Solution restricted = SolveSoi(soi, db, {}, &initial);
  std::string why;
  EXPECT_TRUE(SatisfiesSoi(soi, db, restricted.candidates, &why)) << why;
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    EXPECT_TRUE(restricted.candidates[v].IsSubsetOf(initial[v]));
    EXPECT_TRUE(restricted.candidates[v].IsSubsetOf(full.candidates[v]));
  }
  // Largest below `initial`: no single allowed candidate can be added.
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    initial[v].ForEachSetBit([&](uint32_t node) {
      if (restricted.candidates[v].Test(node)) return;
      std::vector<util::BitVector> enlarged = restricted.candidates;
      enlarged[v].Set(node);
      EXPECT_FALSE(SatisfiesSoi(soi, db, enlarged))
          << "var " << v << " node " << node;
    });
  }

  SolverOptions threaded;
  threaded.num_threads = 4;
  Solution parallel = SolveSoi(soi, db, threaded, &initial);
  for (size_t v = 0; v < soi.NumVars(); ++v) {
    EXPECT_EQ(parallel.candidates[v], restricted.candidates[v]) << "var " << v;
  }
  EXPECT_EQ(parallel.stats.rounds, restricted.stats.rounds);
  EXPECT_EQ(parallel.stats.updates, restricted.stats.updates);
}

TEST(SolverTest, AccumulateStats) {
  SolveStats a;
  a.rounds = 2;
  a.evaluations = 10;
  SolveStats b;
  b.rounds = 3;
  b.updates = 4;
  b.solve_seconds = 0.5;
  a.Accumulate(b);
  EXPECT_EQ(a.rounds, 5u);
  EXPECT_EQ(a.evaluations, 10u);
  EXPECT_EQ(a.updates, 4u);
  EXPECT_DOUBLE_EQ(a.solve_seconds, 0.5);
}

TEST(EquivalenceTest, MovieX1Classes) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  Soi soi = SoiFor("{ ?d <directed> ?m . ?d <worked_with> ?c . }", db);
  Solution s = SolveSoi(soi, db);
  EquivalenceClasses classes = ComputeEquivalenceClasses(s, db.NumNodes());

  // Three classes: directors, movies, coworkers (no overlaps here).
  EXPECT_EQ(classes.num_classes, 3u);
  EXPECT_EQ(classes.num_discarded, db.NumNodes() - 6);
  size_t members = 0;
  for (size_t size : classes.class_sizes) members += size;
  EXPECT_EQ(members, 6u);

  // Nodes of the same class have identical membership everywhere.
  uint32_t depalma = *db.nodes().Lookup("B. De Palma");
  uint32_t hamilton = *db.nodes().Lookup("G. Hamilton");
  EXPECT_EQ(classes.class_of[depalma], classes.class_of[hamilton]);
  uint32_t koepp = *db.nodes().Lookup("D. Koepp");
  EXPECT_NE(classes.class_of[depalma], classes.class_of[koepp]);
}

TEST(EquivalenceTest, SignaturesAreConsistent) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 50;
  config.num_edges = 200;
  config.num_labels = 2;
  config.seed = 9;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(4, 2, 2, 10);
  Soi soi = BuildSoiFromGraph(pattern);
  Solution s = SolveSoi(soi, db);
  EquivalenceClasses classes = ComputeEquivalenceClasses(s, db.NumNodes());

  for (size_t node = 0; node < db.NumNodes(); ++node) {
    if (classes.class_of[node] < 0) {
      for (const util::BitVector& c : s.candidates) {
        EXPECT_FALSE(c.Test(node));
      }
      continue;
    }
    const auto& signature = classes.signatures[classes.class_of[node]];
    for (uint32_t v = 0; v < s.candidates.size(); ++v) {
      bool in_signature = std::find(signature.begin(), signature.end(), v) !=
                          signature.end();
      EXPECT_EQ(s.candidates[v].Test(node), in_signature);
    }
  }
}

// ---------------------------------------------------------------------------
// Threads differential: every thread count reproduces the single-threaded
// solve bit for bit, trajectory included, and the single-threaded solve
// equals the naive oracle's largest dual simulation.
// ---------------------------------------------------------------------------

SolverOptions ThreadOptions(size_t threads) {
  SolverOptions options;
  options.num_threads = threads;
  options.cache_sois = false;  // differential runs must actually solve
  options.cache_solutions = false;
  return options;
}

class ThreadsDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThreadsDifferential, RandomSoiMatchesOracleAtEveryThreadCount) {
  const uint64_t seed = GetParam();
  datagen::RandomGraphConfig config;
  config.num_nodes = 140;
  config.num_edges = 520;
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  // Denser patterns than the database (6 nodes, 10 edges) take several
  // rounds to converge.
  graph::Graph pattern = datagen::MakeRandomPattern(6, 4, 3, seed + 500);
  Soi soi = BuildSoiFromGraph(pattern);

  Solution reference = SimEngine(&db, ThreadOptions(1)).Solve(soi);
  std::set<std::pair<uint32_t, uint32_t>> relation;
  for (uint32_t v = 0; v < pattern.NumNodes(); ++v) {
    reference.candidates[v].ForEachSetBit(
        [&](uint32_t x) { relation.emplace(v, x); });
  }
  EXPECT_EQ(relation, OracleLargestDualSimulation(pattern, db))
      << "seed " << seed;

  for (size_t threads : {size_t{2}, size_t{8}}) {
    Solution solution = SimEngine(&db, ThreadOptions(threads)).Solve(soi);
    ASSERT_EQ(solution.candidates.size(), reference.candidates.size());
    for (size_t v = 0; v < reference.candidates.size(); ++v) {
      ASSERT_EQ(solution.candidates[v], reference.candidates[v])
          << "seed " << seed << ", threads " << threads << ", var " << v;
    }
    EXPECT_EQ(solution.stats.rounds, reference.stats.rounds);
    EXPECT_EQ(solution.stats.evaluations, reference.stats.evaluations);
    EXPECT_EQ(solution.stats.updates, reference.stats.updates);
    EXPECT_EQ(solution.stats.row_evals, reference.stats.row_evals);
    EXPECT_EQ(solution.stats.col_evals, reference.stats.col_evals);
  }
}

TEST_P(ThreadsDifferential, PruneReportsIdenticalAcrossThreads) {
  const uint64_t seed = GetParam();
  // OPTIONAL + UNION exercise subordinations and branch batching on top
  // of the matrix inequalities.
  auto parsed = sparql::Parser::Parse(
      "SELECT * WHERE { { ?x <p0> ?y . ?y <p1> ?z . ?z <p0> ?x . "
      "OPTIONAL { ?y <p0> ?w . } } UNION { ?a <p1> ?b . ?b <p1> ?a . } }");
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  sparql::Query query = std::move(parsed).value();

  for (uint64_t graph_offset : {uint64_t{77}, uint64_t{177}}) {
    datagen::RandomGraphConfig config;
    config.num_nodes = 90;
    config.num_edges = 350;
    config.num_labels = 2;
    config.seed = seed + graph_offset;
    graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

    PruneReport reference = SimEngine(&db, ThreadOptions(1)).Prune(query);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      PruneReport report =
          SimEngine(&db, ThreadOptions(threads)).Prune(query);
      const std::string context = "graph seed " + std::to_string(config.seed) +
                                  ", " + std::to_string(threads) + " threads";
      EXPECT_EQ(report.kept_triples, reference.kept_triples) << context;
      ASSERT_EQ(report.var_candidates.size(), reference.var_candidates.size());
      for (const auto& [var, bits] : reference.var_candidates) {
        auto it = report.var_candidates.find(var);
        ASSERT_NE(it, report.var_candidates.end()) << var;
        EXPECT_EQ(it->second, bits) << context << ", var " << var;
      }
      EXPECT_EQ(report.stats.rounds, reference.stats.rounds) << context;
      EXPECT_EQ(report.stats.evaluations, reference.stats.evaluations)
          << context;
      EXPECT_EQ(report.stats.updates, reference.stats.updates) << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadsDifferential,
                         ::testing::Range<uint64_t>(1, 10));  // 9 seeds

}  // namespace
}  // namespace sparqlsim::sim
