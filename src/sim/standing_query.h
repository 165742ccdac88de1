#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph_database.h"
#include "graph/triple.h"
#include "sim/sim_engine.h"
#include "sim/soi.h"
#include "sim/solver.h"
#include "sparql/ast.h"
#include "util/thread_pool.h"

namespace sparqlsim::sim {

/// A batched triple-level graph delta. Both halves use ids of the standing
/// query's pinned node/predicate universe (dictionaries never grow or
/// compact across versions — see GraphDatabase::WithTriplesAdded/
/// WithTriplesRemoved). Deleting an absent triple and inserting a
/// duplicate are no-ops; a delta whose effect is empty keeps the database
/// generation and costs the standing query nothing.
struct TripleDelta {
  std::vector<graph::Triple> inserts;
  std::vector<graph::Triple> deletes;

  bool Empty() const { return inserts.empty() && deletes.empty(); }
};

struct StandingQueryOptions {
  /// Per-solve policy (threads, evaluation strategy). The cache toggles
  /// are ignored — a standing query *is* its own cache: it holds the
  /// converged solution per branch.
  SolverOptions solver;
};

/// Maintenance counters of one StandingQuery, cumulative since
/// registration.
struct StandingStats {
  /// Apply calls that saw a content change (generation advanced).
  size_t applies = 0;
  /// Apply calls whose delta was contentless (duplicate inserts, absent
  /// deletes): the generation — and the report — were reused outright.
  size_t noop_applies = 0;
  /// Branch re-convergences solved warm from the carried state.
  size_t maintained = 0;
  /// Branch solves from cold (escalated by the cost model, or forced).
  size_t recomputed = 0;
  /// Branches whose predicates were all clean for a delta: no solve, no
  /// re-extraction, the stored branch state was reused as-is.
  size_t untouched_branches = 0;
  /// Inequalities armed across all warm solves, and the system sizes they
  /// were armed out of: armed_ineqs < total_ineqs is the "maintenance did
  /// strictly less than a full first round" engagement signal.
  size_t armed_ineqs = 0;
  size_t total_ineqs = 0;
  /// Wall time spent inside Apply/ApplySnapshot (solves + extraction).
  double maintain_seconds = 0.0;
};

/// A registered query whose dual-simulation solution is maintained across
/// graph versions instead of recomputed from cold (the live pruned views
/// of the ROADMAP; maintenance-under-updates in the spirit of the
/// external-memory bisimulation line of PAPERS.md).
///
/// The standing query pins a GraphDatabase snapshot and holds, per
/// union-free branch of the query, its SOI, the converged Solution, the
/// extracted kept-triples. Apply(delta) — or ApplySnapshot with a
/// successor version from a COW publish chain — re-converges from that
/// state:
///
///  * the per-predicate dirty set falls out of COW slab identity
///    (GraphDatabase::ChangedPredicates — pointer diff is content diff
///    along a publish chain);
///  * deletions only shrink the fixpoint: the old fixpoint is a sound
///    over-approximation of the new one, so the warm start begins at the
///    converged assignment and re-arms only inequalities reading a dirty
///    predicate (plus the dependents of variables whose summary
///    initialization shrank);
///  * insertions reset the *affected cone* (variables reading a grown
///    predicate, closed under inequality reading) to the cold
///    initialization — outside the cone the old assignment provably *is*
///    the new fixpoint, so it is kept verbatim;
///  * the cost model escalates to a full cold recompute when the cone
///    covers every variable: the warm start then equals the cold start
///    plus arming bookkeeping, so maintenance has provably lost.
///    Deletions never enter the cone, so delete-only deltas always
///    maintain.
///
/// Correctness bar (held by tests/standing_query_test.cc): after every
/// applied delta the maintained solution, kept-triple set, and
/// per-variable candidates are bit-identical to a cold
/// SimEngine::Prune on the post-delta snapshot — for every thread count.
///
/// Not thread-safe: one writer at a time (QueryService::Subscribe wraps a
/// StandingQuery in a mutex and drives it from the publish path).
class StandingQuery {
 public:
  /// Registers `query` against `snapshot` and solves it cold; report()
  /// is valid immediately.
  StandingQuery(const sparql::Query& query,
                std::shared_ptr<const graph::GraphDatabase> snapshot,
                StandingQueryOptions options = {});

  StandingQuery(StandingQuery&&) noexcept = default;
  StandingQuery& operator=(StandingQuery&&) noexcept = default;

  /// The last converged report: bit-identical to what
  /// SimEngine(db()).Prune(query) would produce on the pinned snapshot
  /// (modulo SolveStats/seconds, which describe the maintenance work
  /// actually performed, and solution_cache_hits, which is always 0).
  const PruneReport& report() const { return report_; }
  /// The pinned snapshot the report is converged against.
  const graph::GraphDatabase& db() const { return *snapshot_; }
  uint64_t generation() const { return snapshot_->generation(); }
  const StandingStats& stats() const { return stats_; }
  const StandingQueryOptions& options() const { return options_; }

  /// Applies `delta` (deletes first, then inserts — both COW publishes
  /// against the pinned snapshot; ids must be interned) and re-converges.
  /// Returns the new report.
  const PruneReport& Apply(const TripleDelta& delta);

  /// Re-converges directly onto `next`, a successor of the pinned
  /// snapshot sharing its node and predicate universe — the entry point
  /// for publish chains owned elsewhere (QueryService). A `next` with the
  /// pinned generation is a no-op.
  const PruneReport& ApplySnapshot(
      std::shared_ptr<const graph::GraphDatabase> next);

 private:
  struct BranchState {
    std::shared_ptr<const Soi> soi;
    Solution solution;
    std::vector<graph::Triple> kept;
  };

  /// Re-converges one branch onto `next` given the per-predicate dirty
  /// set; `grown` lazily classifies a dirty predicate as insert-carrying.
  /// Accumulates solver work into `stats`.
  template <typename GrownFn>
  void MaintainBranch(BranchState& b, const graph::GraphDatabase& next,
                      const std::vector<bool>& dirty, GrownFn&& grown,
                      SolveStats* stats);

  /// Re-extracts the branch's kept triples against `db`.
  static void ExtractTriples(BranchState& b, const graph::GraphDatabase& db);

  /// Reassembles report_ from the per-branch state (MergeBranches, as
  /// SimEngine::Prune does).
  void RebuildReport(const SolveStats& stats, double seconds);

  StandingQueryOptions options_;
  std::shared_ptr<const graph::GraphDatabase> snapshot_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<BranchState> branches_;
  PruneReport report_;
  StandingStats stats_;
};

}  // namespace sparqlsim::sim
