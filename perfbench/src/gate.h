#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "graph/graph_database.h"
#include "sim/sim_engine.h"
#include "sparql/ast.h"

namespace perfbench {

/// What the correctness gate compares, in constant space per report: a hash
/// of the sorted kept-triple set and of every variable's candidate set.
/// Timed phases keep digests instead of reports (a report carries one
/// node-universe-wide bit vector per variable).
struct ReportDigest {
  uint64_t kept_hash = 0;
  uint64_t candidates_hash = 0;
  size_t kept_count = 0;
  bool truncated = false;

  friend bool operator==(const ReportDigest&, const ReportDigest&) = default;
};

ReportDigest Digest(const sparqlsim::sim::PruneReport& report);

/// The reference answer: a sequential (one thread), cache-free
/// SimEngine::Prune of `query` on `db`.
sparqlsim::sim::PruneReport ReferencePrune(
    const sparqlsim::graph::GraphDatabase& db,
    const sparqlsim::sparql::Query& query);

/// The gate's verdict on one served report: it passes only when it is not
/// truncated and equals the reference.
bool Passes(const ReportDigest& served, const ReportDigest& reference);

/// Runs fn(i) for i in [0, n) on `threads` threads (the untimed gate
/// parallelizes its reference solves; each solve stays sequential).
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn);

}  // namespace perfbench
