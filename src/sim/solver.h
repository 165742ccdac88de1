#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph_database.h"
#include "sim/soi.h"
#include "util/bitvector.h"
#include "util/thread_pool.h"

namespace sparqlsim::sim {

/// Strategy knobs for the SOI fixpoint (Sect. 3.3 of the paper). The
/// defaults are the paper's SPARQLSIM configuration; the ablation bench
/// toggles them individually.
struct SolverOptions {
  /// Initialize candidate sets from the per-label summary vectors f^a/b^a
  /// (Eq. 13) instead of the all-ones vectors of Eq. (12).
  bool summary_init = true;

  /// How to evaluate `x <= y *b A`.
  enum class EvalMode {
    kRowWise,     // always materialize the product (Eq. 9)
    kColumnWise,  // always per-candidate intersection tests via A^T
    kDynamic,     // paper's rule: row-wise iff |chi(y)| < |chi(x)|
  };
  EvalMode eval_mode = EvalMode::kDynamic;

  /// Order the initial worklist so that inequalities whose matrix has the
  /// most empty columns (highest pruning potential) come first.
  bool order_by_sparsity = true;

  /// Safety valve for experiments; 0 means no limit.
  size_t max_rounds = 0;

  /// Worker threads for the solving path: per-round parallel inequality
  /// evaluation and (through SimEngine) concurrent union-free branches.
  /// 0 means all hardware threads; 1 (the default) keeps everything on the
  /// calling thread. Results are bit-identical for every value — the solver
  /// evaluates each round against a stable snapshot and merges the results
  /// in a fixed order — so this is purely a wall-clock knob.
  size_t num_threads = 1;

  /// Cache toggles, honored by SimEngine (the free SolveSoi function has no
  /// cache to consult). `cache_sois` reuses the constructed SOI of a
  /// canonically-equal normalized pattern; `cache_solutions` additionally
  /// reuses whole solutions when the database generation matches. The
  /// solution layer requires the SOI layer (a cached solution is only valid
  /// against the cached SOI instance's variable numbering), so
  /// `cache_solutions` without `cache_sois` is inert. Solutions are never
  /// cached for truncated runs (max_rounds != 0), whose outcome is not the
  /// canonical fixpoint.
  bool cache_sois = true;
  bool cache_solutions = true;

  /// Entry bound of the cache a SimEngine creates privately (0 =
  /// unbounded); each entry holds one SOI and, once solved, its attached
  /// solution. Ignored when a shared cache is injected — the injected
  /// cache carries its own SoiCache::Options.
  size_t cache_capacity = 0;

  /// `num_threads` with the 0-means-hardware convention applied.
  size_t ResolvedThreads() const {
    return util::ThreadPool::ResolveThreadCount(num_threads);
  }
};

/// Per-solve cooperative control, checked at fixpoint round boundaries
/// (and between union-free branches in SimEngine). Expiry or cancellation
/// stops the solve early with `Solution::truncated` set; the partial
/// assignment is still a sound over-approximation of the fixpoint (the
/// solve only ever removes candidates that can never match), it is just
/// not the canonical largest solution, so truncated results are never
/// cached.
struct SolveControl {
  /// Absolute deadline; unset = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// External cancellation flag (borrowed); null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;

  bool Expired() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline.has_value() &&
           std::chrono::steady_clock::now() >= *deadline;
  }
};

/// Counters describing one fixpoint run.
struct SolveStats {
  /// Fixpoint rounds: one round processes every inequality that was
  /// unstable when the round began. This is the paper's "iterations"
  /// metric (L0 needs 30+, L1 only 2; Sect. 5.3).
  size_t rounds = 0;
  size_t evaluations = 0;  // inequality evaluations
  size_t updates = 0;      // evaluations that shrank a candidate set
  size_t row_evals = 0;    // row-wise products (Eq. 9)
  size_t col_evals = 0;    // column-wise evaluations
  double solve_seconds = 0.0;

  /// Always 0: kept only for perfbench's `sim.delta_evals`.
  size_t delta_evals = 0;
  /// Zero 64-word blocks the hierarchical candidate vectors skipped in
  /// the single-threaded AND kernels (initialization + merge phases);
  /// grows as candidate sets collapse.
  size_t blocks_skipped = 0;

  /// Per-round parallelism counters: rounds whose evaluation phase ran on a
  /// thread pool, the widest round (unstable inequalities evaluated
  /// together — the available per-round parallelism), and the executor count
  /// the solve ran with (pool workers, or 1 for inline solves).
  size_t parallel_rounds = 0;
  size_t max_round_width = 0;
  size_t threads_used = 1;

  /// Adds `other`'s counters and time into this (multi-branch aggregation);
  /// width/thread counters combine by max.
  ///
  /// Not synchronized: when branches are solved concurrently, each branch
  /// writes its own SolveStats and the coordinator calls Accumulate for all
  /// branches at a single-threaded merge point after the batch barrier
  /// (see SimEngine::Prune). Never call this from worker tasks.
  void Accumulate(const SolveStats& other);
};

/// The largest solution of an SOI: one candidate bit-vector per SOI
/// variable. The induced relation {(v, o) | o in candidates[v]} is the
/// largest dual simulation (Prop. 2 of the paper).
struct Solution {
  std::vector<util::BitVector> candidates;
  SolveStats stats;

  /// The solve stopped before reaching the fixpoint — max_rounds hit, or
  /// SolveControl expiry/cancellation. The candidates are then a sound
  /// over-approximation of the largest solution (a superset per variable),
  /// not the canonical fixpoint; truncated solutions are never cached.
  bool truncated = false;

  /// True iff the induced relation is non-empty.
  bool AnyCandidate() const;
  /// Sum of candidate-set sizes (size of the induced relation).
  size_t RelationSize() const;
};

/// Computes the largest solution of `soi` against `db` by the worklist
/// fixpoint of Sect. 3.2/3.3: start from Eq. (12)/(13), repeatedly pick an
/// unstable inequality, AND the left-hand side with the right-hand-side
/// product, and re-activate every inequality whose right-hand side reads a
/// changed variable.
///
/// When `initial` is non-null it replaces the all-ones start of Eq. (12):
/// the fixpoint then computes the largest solution *below* the given
/// assignment. This is how restricted instances — e.g. the distance-bounded
/// balls of strong simulation — reuse the solver.
/// One fixpoint round evaluates every unstable inequality against the
/// round-start assignment (the results are per-inequality AND-masks), then
/// merges the masks into the candidate vectors in fixed worklist order on
/// the calling thread. Because each mask is a pure function of the
/// round-start state and the merge order never depends on scheduling, the
/// result is bit-identical for every thread count (rounds/evaluations/
/// updates agree too, not just the fixpoint).
///
/// When `options.num_threads != 1` a transient pool is spun up for this one
/// call; long-lived consumers should hold a SimEngine, which owns a
/// persistent pool (and the caches) and passes it to the overload below.
Solution SolveSoi(const Soi& soi, const graph::GraphDatabase& db,
                  const SolverOptions& options = {},
                  const std::vector<util::BitVector>* initial = nullptr);

/// Pool-reusing overload: evaluates rounds through `pool` when it is
/// non-null, inline otherwise. `options.num_threads` is ignored in favor of
/// the pool actually passed. `control` (borrowed, may be null) is checked
/// at round boundaries; see SolveControl.
Solution SolveSoi(const Soi& soi, const graph::GraphDatabase& db,
                  const SolverOptions& options,
                  const std::vector<util::BitVector>* initial,
                  util::ThreadPool* pool,
                  const SolveControl* control = nullptr);

/// Warm-start entry point (sim::StandingQuery): like the pool overload of
/// SolveSoi, but the first round's worklist holds only the inequalities
/// `armed` marks. The mask is indexed in the solver's unified handle space
/// — matrix_ineqs.size() + sub_ineqs.size() entries, matrix inequalities
/// first — and a null mask arms everything (the plain solve). Unarmed
/// inequalities re-activate through the normal dependency worklist when a
/// variable they read shrinks. With an all-false mask and an `initial`
/// equal to a converged fixpoint the solve performs zero rounds — a no-op
/// delta is free.
///
/// Soundness is the caller's contract: every unarmed inequality must
/// already hold at `initial` against `db` (true for StandingQuery's
/// construction — unarmed inequalities read only unchanged predicates and
/// variables whose initial value is the old converged fixpoint). Given
/// that, the result is exactly the canonical fixpoint a cold solve below
/// `initial` would produce.
///
/// Every call allocates its own workspace (candidate sets, worklist, eval
/// masks) and keeps nothing once it returns.
Solution SolveSoiWarm(const Soi& soi, const graph::GraphDatabase& db,
                      const SolverOptions& options,
                      const std::vector<util::BitVector>* initial,
                      util::ThreadPool* pool, const SolveControl* control,
                      const std::vector<bool>* armed);

}  // namespace sparqlsim::sim
