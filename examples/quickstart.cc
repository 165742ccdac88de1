// Quickstart: the paper's worked example end to end.
//
// Builds the movie graph of Fig. 1(a), runs the introductory query (X1)
// through all three layers of the library:
//   1. the exact SPARQL engine (the reference semantics),
//   2. the largest dual simulation via the SOI solver (Sect. 3),
//   3. dual-simulation pruning (Sect. 5) and re-evaluation on the prune.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "datagen/movies.h"
#include "engine/evaluator.h"
#include "sim/pruner.h"
#include "sparql/parser.h"

int main() {
  using namespace sparqlsim;

  // --- The database of Fig. 1(a). ---
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  std::printf("database: %zu nodes, %zu predicates, %zu triples\n",
              db.NumNodes(), db.NumPredicates(), db.NumTriples());

  // --- Query (X1): directors with a movie and a coworker. ---
  const char* text =
      "SELECT * WHERE { ?director <directed> ?movie . "
      "?director <worked_with> ?coworker . }";
  auto parsed = sparql::Parser::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error_message().c_str());
    return 1;
  }
  sparql::Query query = std::move(parsed).value();

  // --- 1. Exact evaluation. ---
  engine::Evaluator evaluator(&db);
  engine::SolutionSet matches = evaluator.Evaluate(query);
  std::printf("\n(X1) matches (%zu):\n%s", matches.NumRows(),
              matches.ToString(db).c_str());

  // --- 2. The largest dual simulation (relation (2) of the paper). ---
  sim::SparqlSimProcessor processor(&db);
  sim::PruneReport report = processor.Prune(query);
  std::printf("largest dual simulation candidates per variable:\n");
  for (const auto& [var, candidates] : report.var_candidates) {
    std::printf("  ?%s ->", var.c_str());
    candidates.ForEachSetBit(
        [&](uint32_t node) {
          const std::string_view name = db.nodes().Name(node);
          std::printf(" %.*s,", static_cast<int>(name.size()), name.data());
        });
    std::printf("\n");
  }

  // --- 3. Pruning: only the two bold subgraphs of Fig. 1(a) survive. ---
  std::printf("\npruned database: %zu of %zu triples kept "
              "(%.1f%% pruned away) in %.4fs\n",
              report.kept_triples.size(), db.NumTriples(),
              100.0 * (1.0 - static_cast<double>(report.kept_triples.size()) /
                                 static_cast<double>(db.NumTriples())),
              report.total_seconds);
  graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
  engine::SolutionSet on_pruned = engine::Evaluator(&pruned).Evaluate(query);
  std::printf("re-evaluating (X1) on the prune: %zu matches "
              "(soundness: identical result set)\n",
              on_pruned.NumRows());
  return 0;
}
