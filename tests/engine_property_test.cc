// Property tests of the evaluation engine against a brute-force reference
// implementation of the SPARQL semantics of Sect. 4 of the paper:
// [[BGP]] by exhaustive candidate enumeration, AND as compatibility join,
// OPTIONAL per the left-outer definition, UNION as set union. The oracle
// shares no code with the engine.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "datagen/random_graphs.h"
#include "engine/evaluator.h"
#include "sim/sim_engine.h"
#include "sim/soi_cache.h"
#include "sparql/parser.h"
#include "util/rng.h"

namespace sparqlsim::engine {
namespace {

/// A candidate mapping mu: variable name -> node id (partial).
using Mu = std::map<std::string, uint32_t>;

bool Compatible(const Mu& a, const Mu& b) {
  for (const auto& [var, value] : a) {
    auto it = b.find(var);
    if (it != b.end() && it->second != value) return false;
  }
  return true;
}

Mu Merge(const Mu& a, const Mu& b) {
  Mu merged = a;
  merged.insert(b.begin(), b.end());
  return merged;
}

/// Exhaustive BGP evaluation: try every assignment of the pattern's
/// variables (tiny node universes only).
std::set<Mu> EvalBgpNaive(const std::vector<sparql::TriplePattern>& triples,
                          const graph::GraphDatabase& db) {
  std::vector<std::string> vars;
  for (const sparql::TriplePattern& t : triples) {
    for (const sparql::Term* term : {&t.subject, &t.object}) {
      if (term->IsVariable() &&
          std::find(vars.begin(), vars.end(), term->text()) == vars.end()) {
        vars.push_back(term->text());
      }
    }
  }
  std::set<Mu> result;
  const size_t n = db.NumNodes();
  std::vector<uint32_t> assignment(vars.size(), 0);
  while (true) {
    Mu mu;
    for (size_t i = 0; i < vars.size(); ++i) mu[vars[i]] = assignment[i];
    bool match = true;
    for (const sparql::TriplePattern& t : triples) {
      auto value = [&](const sparql::Term& term) -> std::optional<uint32_t> {
        if (term.IsVariable()) return mu.at(term.text());
        return db.nodes().Lookup(term.text());
      };
      auto s = value(t.subject);
      auto o = value(t.object);
      auto p = db.predicates().Lookup(t.predicate.text());
      if (!s || !o || !p || !db.Forward(*p).Test(*s, *o)) {
        match = false;
        break;
      }
    }
    if (match) result.insert(mu);
    // Next assignment (odometer).
    size_t pos = 0;
    while (pos < assignment.size()) {
      if (++assignment[pos] < n) break;
      assignment[pos] = 0;
      ++pos;
    }
    if (pos == assignment.size()) break;
    if (vars.empty()) break;
  }
  if (vars.empty()) {
    // All-constant BGP handled above with a single (empty) assignment.
    bool ok = true;
    for (const sparql::TriplePattern& t : triples) {
      auto s = db.nodes().Lookup(t.subject.text());
      auto o = db.nodes().Lookup(t.object.text());
      auto p = db.predicates().Lookup(t.predicate.text());
      if (!s || !o || !p || !db.Forward(*p).Test(*s, *o)) ok = false;
    }
    result.clear();
    if (ok) result.insert(Mu{});
  }
  return result;
}

/// Recursive reference semantics (Sect. 4.2/4.3 definitions verbatim).
std::set<Mu> EvalNaive(const sparql::Pattern& p,
                       const graph::GraphDatabase& db) {
  switch (p.kind()) {
    case sparql::PatternKind::kBgp:
      return EvalBgpNaive(p.triples(), db);
    case sparql::PatternKind::kJoin: {
      std::set<Mu> left = EvalNaive(p.left(), db);
      std::set<Mu> right = EvalNaive(p.right(), db);
      std::set<Mu> out;
      for (const Mu& a : left) {
        for (const Mu& b : right) {
          if (Compatible(a, b)) out.insert(Merge(a, b));
        }
      }
      return out;
    }
    case sparql::PatternKind::kOptional: {
      std::set<Mu> left = EvalNaive(p.left(), db);
      std::set<Mu> right = EvalNaive(p.right(), db);
      std::set<Mu> out;
      for (const Mu& a : left) {
        bool extended = false;
        for (const Mu& b : right) {
          if (Compatible(a, b)) {
            out.insert(Merge(a, b));
            extended = true;
          }
        }
        if (!extended) out.insert(a);
      }
      return out;
    }
    case sparql::PatternKind::kUnion: {
      std::set<Mu> out = EvalNaive(p.left(), db);
      std::set<Mu> right = EvalNaive(p.right(), db);
      out.insert(right.begin(), right.end());
      return out;
    }
  }
  return {};
}

std::set<Mu> FromSolutionSet(const SolutionSet& rows) {
  std::set<Mu> out;
  for (size_t i = 0; i < rows.NumRows(); ++i) {
    Mu mu;
    for (size_t c = 0; c < rows.Arity(); ++c) {
      if (rows.Row(i)[c] != kUnbound) mu[rows.vars()[c]] = rows.Row(i)[c];
    }
    out.insert(mu);
  }
  return out;
}

struct PropertyCase {
  uint64_t seed;
  JoinOrderPolicy policy;
};

class EngineVsOracle : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(EngineVsOracle, RandomQueriesMatchReferenceSemantics) {
  const PropertyCase& param = GetParam();
  util::Rng rng(param.seed);

  datagen::RandomGraphConfig config;
  config.num_nodes = 6 + rng.NextBounded(5);  // tiny: oracle enumerates n^k
  config.num_edges = 15 + rng.NextBounded(25);
  config.num_labels = 2;
  config.seed = param.seed * 97 + 1;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

  auto var = [&](int k) { return "?v" + std::to_string(rng.NextBounded(k)); };
  auto triple = [&](int k) {
    std::string p = "<p" + std::to_string(rng.NextBounded(2)) + ">";
    std::string s = rng.NextBool(0.15)
                        ? "<n" + std::to_string(rng.NextBounded(
                                     config.num_nodes)) + ">"
                        : var(k);
    return s + " " + p + " " + var(k) + " .";
  };

  // Random shapes: BGP / BGP+OPTIONAL / UNION of BGPs / BGP AND OPTIONAL.
  std::string text = "SELECT * WHERE { ";
  switch (rng.NextBounded(4)) {
    case 0:
      text += triple(3) + " " + triple(3) + " ";
      break;
    case 1:
      text += triple(2) + " OPTIONAL { " + triple(4) + " } ";
      break;
    case 2:
      text += "{ " + triple(2) + " } UNION { " + triple(2) + " } ";
      break;
    default:
      text += triple(2) + " OPTIONAL { " + triple(3) + " } " + triple(3) +
              " ";
      break;
  }
  text += "}";

  auto parsed = sparql::Parser::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  sparql::Query query = std::move(parsed).value();

  Evaluator evaluator(&db, {param.policy});
  std::set<Mu> actual = FromSolutionSet(evaluator.EvaluatePattern(*query.where));
  std::set<Mu> expected = EvalNaive(*query.where, db);
  EXPECT_EQ(actual, expected) << text;
}

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    cases.push_back({seed, JoinOrderPolicy::kRdfoxLike});
    cases.push_back({seed, JoinOrderPolicy::kVirtuosoLike});
    cases.push_back({seed, JoinOrderPolicy::kAsWritten});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineVsOracle,
                         ::testing::ValuesIn(MakeCases()));

// ---------------------------------------------------------------------------
// Cache-consistency property: cached vs cache-free pruning agree across
// interleaved database "mutations" (Restrict() generation bumps)
// ---------------------------------------------------------------------------

/// Random query text over the p0/p1/p2, n0..n{k-1} universe of
/// MakeRandomDatabase: BGPs, OPTIONAL, and UNION shapes.
std::string RandomPruneQuery(util::Rng& rng, size_t num_nodes) {
  auto var = [&](int k) { return "?v" + std::to_string(rng.NextBounded(k)); };
  auto triple = [&](int k) {
    std::string p = "<p" + std::to_string(rng.NextBounded(3)) + ">";
    std::string s =
        rng.NextBool(0.2)
            ? "<n" + std::to_string(rng.NextBounded(num_nodes)) + ">"
            : var(k);
    return s + " " + p + " " + var(k) + " . ";
  };
  std::string text = "SELECT * WHERE { ";
  switch (rng.NextBounded(3)) {
    case 0:
      text += triple(3) + triple(3);
      break;
    case 1:
      text += triple(2) + "OPTIONAL { " + triple(3) + "} ";
      break;
    default:
      text += "{ " + triple(2) + "} UNION { " + triple(2) + "} ";
      break;
  }
  return text + "}";
}

void ExpectSamePrune(const sim::PruneReport& cached,
                     const sim::PruneReport& plain,
                     const std::string& context) {
  EXPECT_EQ(cached.kept_triples, plain.kept_triples) << context;
  ASSERT_EQ(cached.var_candidates.size(), plain.var_candidates.size())
      << context;
  for (const auto& [var, bits] : plain.var_candidates) {
    auto it = cached.var_candidates.find(var);
    ASSERT_NE(it, cached.var_candidates.end()) << context << " ?" << var;
    EXPECT_EQ(it->second, bits) << context << " ?" << var;
  }
}

class CacheConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheConsistency, CachedAndUncachedPruningAgreeAcrossGenerations) {
  const uint64_t seed = GetParam();
  util::Rng rng(seed * 131 + 7);

  datagen::RandomGraphConfig config;
  config.num_nodes = 30;
  config.num_edges = 120;
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

  // The nastiest cache configuration: tiny LRU capacity (evictions mid-run)
  // plus eager generation GC, shared across every engine below.
  auto cache =
      std::make_shared<sim::SoiCache>(sim::SoiCache::Options{3, true});

  // A small pool of query texts reused across steps, so later steps replay
  // queries whose entries were cached against earlier (now stale)
  // generations.
  std::vector<sparql::Query> pool;
  for (int q = 0; q < 5; ++q) {
    auto parsed =
        sparql::Parser::Parse(RandomPruneQuery(rng, config.num_nodes));
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    pool.push_back(std::move(parsed).value());
  }

  sim::SolverOptions no_cache;
  no_cache.cache_sois = false;
  no_cache.cache_solutions = false;

  for (int step = 0; step < 3; ++step) {
    sim::SimEngine cached_engine(&db, sim::SolverOptions{}, cache);
    sim::SimEngine plain_engine(&db, no_cache);
    // Each query twice: the second run hits whatever the first cached.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t q = 0; q < pool.size(); ++q) {
        ExpectSamePrune(cached_engine.Prune(pool[q]),
                        plain_engine.Prune(pool[q]),
                        "seed " + std::to_string(seed) + " step " +
                            std::to_string(step) + " pass " +
                            std::to_string(pass) + " query " +
                            std::to_string(q));
      }
    }

    // Mutate the database: keep a random ~85% of the triples. Restrict()
    // assigns a fresh generation, which must invalidate every cached
    // artifact of the old one.
    std::vector<graph::Triple> kept;
    for (const graph::Triple& t : db.AllTriples()) {
      if (!rng.NextBool(0.15)) kept.push_back(t);
    }
    uint64_t old_generation = db.generation();
    db = db.Restrict(kept);
    ASSERT_NE(db.generation(), old_generation);
  }

  // The shared bounded cache honored its capacity throughout.
  EXPECT_LE(cache->NumSois(), 3u);
  EXPECT_LE(cache->NumSolutions(), 3u);
  // Generation GC actually fired: step 1+ queries carry newer generations.
  EXPECT_GT(cache->stats().generation_evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheConsistency,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Solver-configuration property: the thread count must be invisible to
// pruning — every thread count produces the single-threaded PruneReport on
// the same random queries.
// ---------------------------------------------------------------------------

class SolverConfigConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverConfigConsistency, PruningAgreesAcrossThreads) {
  const uint64_t seed = GetParam();
  util::Rng rng(seed * 277 + 11);

  datagen::RandomGraphConfig config;
  config.num_nodes = 60;
  config.num_edges = 240;
  config.num_labels = 3;
  config.seed = seed;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);

  std::vector<sparql::Query> pool;
  for (int q = 0; q < 4; ++q) {
    auto parsed =
        sparql::Parser::Parse(RandomPruneQuery(rng, config.num_nodes));
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    pool.push_back(std::move(parsed).value());
  }

  auto options = [](size_t threads) {
    sim::SolverOptions o;
    o.num_threads = threads;
    o.cache_sois = false;  // differential runs must actually solve
    o.cache_solutions = false;
    return o;
  };

  sim::SimEngine reference(&db, options(1));
  for (size_t threads : {size_t{2}, size_t{8}}) {
    sim::SimEngine engine(&db, options(threads));
    for (size_t q = 0; q < pool.size(); ++q) {
      ExpectSamePrune(engine.Prune(pool[q]), reference.Prune(pool[q]),
                      "seed " + std::to_string(seed) + " threads " +
                          std::to_string(threads) + " query " +
                          std::to_string(q));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverConfigConsistency,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace sparqlsim::engine
