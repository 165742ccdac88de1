#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph_database.h"
#include "graph/triple.h"
#include "sim/soi.h"
#include "sim/soi_cache.h"
#include "sim/solver.h"
#include "sparql/ast.h"
#include "util/bitvector.h"
#include "util/thread_pool.h"

namespace sparqlsim::sim {

/// Outcome of dual-simulation processing of a SPARQL query (Sect. 5):
/// the pruned triple set plus per-variable candidate sets.
struct PruneReport {
  /// Triples surviving the prune, sorted and deduplicated.
  ///
  /// Soundness (Thm. 2 / Def. 3): no match is lost — every solution of the
  /// query on the full database is also a solution on
  /// GraphDatabase::Restrict(kept_triples). For the monotone fragment
  /// (BGP, AND, UNION) the pruned result set is *equal* to the full one.
  /// For OPTIONAL queries it may be a superset: OPTIONAL is non-monotone,
  /// so dropping triples that no full match needs can turn a formerly
  /// bound optional part unbound and unblock additional rows — the
  /// "overapproximation of the actual SPARQL query results" the paper
  /// describes in Sect. 1, intended for further inspection, filtering, or
  /// exact re-evaluation.
  std::vector<graph::Triple> kept_triples;

  /// Per original query variable: union of the candidate sets of all its
  /// SOI occurrence groups across all union-free branches.
  std::map<std::string, util::BitVector> var_candidates;

  /// Aggregated solver statistics over all union-free branches that were
  /// actually solved (solution-cache hits contribute no solver work, only
  /// `solution_cache_hits`). Branches may solve concurrently, but the
  /// aggregation happens at a single-writer merge point after the batch
  /// barrier — see SimEngine::Prune.
  SolveStats stats;
  /// Number of union-free branches processed (Prop. 3).
  size_t num_branches = 0;
  /// Branches answered from the engine's solution cache.
  size_t solution_cache_hits = 0;
  /// End-to-end wall time: SOI construction + solving + triple extraction.
  double total_seconds = 0.0;

  /// True iff any branch's fixpoint stopped early — deadline expiry,
  /// cancellation, or a max_rounds cap. A truncated report stays *sound*
  /// in the Thm. 2 sense (candidate sets and kept triples are supersets of
  /// the converged ones; no match is lost) but is not the canonical
  /// fixpoint, so it never enters the solution cache and callers that need
  /// the exact pruned database must re-run without the deadline.
  bool truncated = false;

  /// generation() of the database this report was computed against. The
  /// serving layer uses it to tell which snapshot answered a query when
  /// versions race with ingest.
  uint64_t snapshot_generation = 0;
};

/// Sect. 5 triple extraction for one solved union-free branch: appends to
/// `kept` every data triple that some pattern edge (v, a, w) admits with
/// its subject in chi(v) and its object in chi(w). The caller keeps the
/// matrices of `db` resident (GraphDatabase::PinResidency).
void ExtractBranchTriples(const Soi& soi, const Solution& solution,
                          const graph::GraphDatabase& db,
                          std::vector<graph::Triple>* kept);

/// One solved union-free branch as MergeBranches reads it (borrowed).
struct BranchResult {
  const Soi* soi;
  const Solution* solution;
  const std::vector<graph::Triple>* kept;
};

/// Merges solved branches into `report`, in order: per original query
/// variable, the union of the candidate sets of all its SOI occurrence
/// groups across the branches (surrogates are subsumed by their anchors,
/// Sect. 4.3, but unanchored optional groups each contribute); and the
/// branches' kept triples, sorted and deduplicated. Solver stats, cache
/// hits and truncation are the caller's to merge.
void MergeBranches(std::span<const BranchResult> branches,
                   PruneReport* report);

/// The execution subsystem for SOI solving — owns policy end to end:
/// thread pool, per-round parallel inequality evaluation, batching of
/// union-free branches, and SOI/solution caching.
///
/// One engine binds one database (borrowed; it must outlive the engine).
/// The pool is created once from `options.num_threads` (0 = hardware,
/// 1 = everything inline on the caller) and shared by every solve issued
/// through the engine, including the nested per-round parallelism of
/// branch-batched prunes. Determinism: results are bit-identical for any
/// `num_threads` — fixpoint trajectory included, so the cache layers may
/// serve entries solved under any thread count; see SolveSoi.
///
/// Caching: unless a shared cache is injected, the engine creates a private
/// SoiCache when either cache toggle is set — bounded by
/// `options.cache_capacity` LRU entries and with generation GC on
/// (a private cache serves exactly one database). Entries are keyed by
/// database generation + canonical branch key, so a shared cache may safely
/// serve engines bound to different databases (each sees only its own
/// entries; leave generation GC off for that sharing pattern).
///
/// For concurrent multi-query serving on top of the engine, see
/// sim::QueryService (bounded admission queue + in-flight dedup).
///
/// Thread-safety: Solve/SolvePattern/Prune are const and safe to call
/// concurrently from multiple threads — a contract QueryService relies on
/// (its pool workers all Prune through one shared engine). Concurrent
/// calls share only the immutable database, the internally synchronized
/// SoiCache, the ThreadPool (whose Submit is locked and whose ParallelFor
/// keeps per-call state, so overlapping callers are fine). Keep it that
/// way: per-solve state lives in SolveSoiWarm locals, not in engine
/// members.
class SimEngine {
 public:
  explicit SimEngine(const graph::GraphDatabase* db,
                     SolverOptions options = {},
                     std::shared_ptr<SoiCache> cache = nullptr);

  const graph::GraphDatabase& db() const { return *db_; }
  const SolverOptions& options() const { return options_; }
  /// Null when the engine runs inline (num_threads resolves to 1).
  util::ThreadPool* pool() const { return pool_.get(); }
  /// Null when both cache toggles are off and no cache was injected.
  SoiCache* cache() const { return cache_.get(); }
  std::shared_ptr<SoiCache> shared_cache() const { return cache_; }

  /// Solves a prepared SOI through the engine's pool. No cache
  /// interaction — callers that constructed a Soi by hand (or restrict via
  /// `initial`, as strong simulation does) get exactly the solver.
  /// `control`, when given, bounds the solve (deadline/cancellation,
  /// checked at round boundaries; see SolveControl) — an expired solve
  /// returns with Solution::truncated set.
  Solution Solve(const Soi& soi,
                 const std::vector<util::BitVector>* initial = nullptr,
                 const SolveControl* control = nullptr) const;

  /// Builds (or fetches from cache) and solves the SOI of a union-free
  /// pattern; consults the solution cache when enabled. A solve truncated
  /// by `control` is returned but never cached.
  Solution SolvePattern(const sparql::Pattern& union_free_pattern,
                        const SolveControl* control = nullptr) const;

  /// Full pipeline: query -> pruned triple set + candidates. All union-free
  /// branches of the union normal form are processed concurrently through
  /// the pool (solve + triple extraction per branch), then merged in branch
  /// order at a single-writer merge point, so the report is deterministic
  /// for any thread count. The same `control` is shared by every branch;
  /// expiry marks the report truncated (sound over-approximation).
  PruneReport Prune(const sparql::Query& query,
                    const SolveControl* control = nullptr) const;

  /// True iff the solution of every union-free branch of `query` is cached
  /// for this database, so Prune(query) only extracts triples (unless an
  /// entry is evicted before it runs; it then solves as usual). Counts
  /// nothing in the cache stats.
  bool SolutionsCached(const sparql::Query& query) const;

 private:
  struct BranchOutcome {
    std::shared_ptr<const Soi> soi;
    std::shared_ptr<const Solution> solution;
    std::vector<graph::Triple> kept;
    bool solution_from_cache = false;
  };

  /// Whether Prune consults and fills the solution cache.
  bool CachesSolutions() const;

  BranchOutcome ProcessBranch(const sparql::Pattern& branch,
                              bool extract_triples,
                              const SolveControl* control) const;

  const graph::GraphDatabase* db_;
  SolverOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::shared_ptr<SoiCache> cache_;
};

}  // namespace sparqlsim::sim
