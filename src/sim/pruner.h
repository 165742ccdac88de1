#pragma once

#include "graph/graph_database.h"
#include "sim/sim_engine.h"
#include "sim/solver.h"
#include "sparql/ast.h"

namespace sparqlsim::sim {

/// High-level dual simulation processor for SPARQL queries — the paper's
/// SPARQLSIM. This is a convenience facade over SimEngine for one-shot
/// callers: each call constructs a transient engine from the given options,
/// so pool threads and cache entries live only for that call (a multi-branch
/// query still benefits from intra-call caching when the union normal form
/// produces duplicate branches). Hold a SimEngine directly to amortize the
/// pool and reuse SOIs/solutions across repeated queries.
class SparqlSimProcessor {
 public:
  /// `db` is borrowed, not owned: it must outlive the processor.
  explicit SparqlSimProcessor(const graph::GraphDatabase* db) : db_(db) {}

  /// Full pipeline: query -> pruned triple set + candidates.
  PruneReport Prune(const sparql::Query& query,
                    const SolverOptions& options = {}) const;

  /// Builds and solves the SOI of a union-free pattern without extracting
  /// triples (what Table 2 times for BGPs).
  Solution Solve(const sparql::Pattern& union_free_pattern,
                 const SolverOptions& options = {}) const;

 private:
  const graph::GraphDatabase* db_;
};

}  // namespace sparqlsim::sim
