#include "sim/solver.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>

#include "util/hierarchical_bitvector.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace sparqlsim::sim {

namespace {

/// Unified inequality handle: indices [0, M) are matrix inequalities,
/// [M, M + S) are subordinations.
struct Work {
  std::vector<uint32_t> current;
  std::vector<uint32_t> next;
  /// Membership in `next`. A BitVector rather than vector<bool>: Test/Set
  /// compile to single word ops instead of the bit-proxy's shift dance,
  /// and the end-of-round reset is one word-parallel ClearAll.
  util::BitVector queued;
};

/// What the evaluation phase decided for one unstable inequality. The
/// merge phase replays these tags in worklist order, so the tag plus the
/// mask fully determine the round's effect.
enum class EvalKind : uint8_t {
  kSkip,   // lhs already empty at round start: nothing to do
  kClear,  // rhs empty / predicate absent: lhs drains to the empty set
  kRow,    // mask = chi(rhs) *b A (Eq. 9)
  kCol,    // mask = chi(lhs) filtered by per-column intersection tests
  kSub,    // mask = chi(rhs) (subordination, Eq. 14/15)
};

}  // namespace

void SolveStats::Accumulate(const SolveStats& other) {
  rounds += other.rounds;
  evaluations += other.evaluations;
  updates += other.updates;
  row_evals += other.row_evals;
  col_evals += other.col_evals;
  solve_seconds += other.solve_seconds;
  blocks_skipped += other.blocks_skipped;
  parallel_rounds += other.parallel_rounds;
  max_round_width = std::max(max_round_width, other.max_round_width);
  threads_used = std::max(threads_used, other.threads_used);
}

bool Solution::AnyCandidate() const {
  for (const util::BitVector& c : candidates) {
    if (c.Any()) return true;
  }
  return false;
}

size_t Solution::RelationSize() const {
  size_t total = 0;
  for (const util::BitVector& c : candidates) total += c.Count();
  return total;
}

Solution SolveSoi(const Soi& soi, const graph::GraphDatabase& db,
                  const SolverOptions& options,
                  const std::vector<util::BitVector>* initial) {
  std::unique_ptr<util::ThreadPool> transient;
  if (options.ResolvedThreads() > 1) {
    transient = std::make_unique<util::ThreadPool>(options.ResolvedThreads());
  }
  return SolveSoi(soi, db, options, initial, transient.get());
}

Solution SolveSoi(const Soi& soi, const graph::GraphDatabase& db,
                  const SolverOptions& options,
                  const std::vector<util::BitVector>* initial,
                  util::ThreadPool* pool, const SolveControl* control) {
  return SolveSoiWarm(soi, db, options, initial, pool, control,
                      /*armed=*/nullptr);
}

Solution SolveSoiWarm(const Soi& soi, const graph::GraphDatabase& db,
                      const SolverOptions& options,
                      const std::vector<util::BitVector>* initial,
                      util::ThreadPool* pool, const SolveControl* control,
                      const std::vector<bool>* armed) {
  util::Stopwatch timer;
  // Every solver entry point funnels through here: one residency pin keeps
  // lazily-materialized matrix slabs resident (out-of-core tier) for the
  // whole fixpoint. Free for in-memory databases.
  graph::ResidencyPin residency_pin = db.PinResidency();
  const size_t n = db.NumNodes();
  const size_t num_vars = soi.NumVars();
  const size_t num_matrix = soi.matrix_ineqs.size();
  const size_t num_ineqs = num_matrix + soi.sub_ineqs.size();

  Solution solution;
  SolveStats& stats = solution.stats;
  // Empty slots only: every candidate vector is moved out of chi at the
  // end of the solve, so allocating dense vectors here would be wasted.
  solution.candidates.resize(num_vars);

  // Candidate sets are hierarchical bit-vectors for the whole fixpoint:
  // zero-block skipping over the SIMD word kernels. Their flat vectors are
  // moved into the Solution at the end.
  std::vector<util::HierarchicalBitVector> chi;
  chi.reserve(num_vars);
  for (size_t v = 0; v < num_vars; ++v) chi.emplace_back(n);
  std::vector<size_t> counts(num_vars, 0);

  // --- Initialization: Eq. (12) or Eq. (13), constants per Sect. 4.5. ---
  // An empty set cannot shrink, so it skips the AND (and its block-skip
  // accounting) outright.
  auto narrow = [&](size_t v, const util::BitVector& mask) {
    if (chi[v].Any()) chi[v].AndWith(mask);
  };
  for (size_t v = 0; v < num_vars; ++v) {
    if (soi.unsatisfiable_vars[v]) continue;  // stays empty
    if (initial != nullptr) {
      chi[v].AssignFrom((*initial)[v]);
      if (soi.constants[v]) {
        util::BitVector pin(n);
        pin.Set(*soi.constants[v]);
        narrow(v, pin);
      }
      continue;
    }
    if (soi.constants[v]) {
      chi[v].Set(*soi.constants[v]);
    } else {
      chi[v].SetAll();
    }
  }
  if (options.summary_init) {
    for (const Soi::Edge& e : soi.edges) {
      if (e.predicate == kEmptyPredicate) {
        chi[e.subject_var].ClearAll();
        chi[e.object_var].ClearAll();
        continue;
      }
      narrow(e.subject_var, db.ForwardSummary(e.predicate));
      narrow(e.object_var, db.BackwardSummary(e.predicate));
    }
  }
  for (size_t v = 0; v < num_vars; ++v) counts[v] = chi[v].Count();

  // --- Dependency index: ineqs whose right-hand side reads var v. ---
  std::vector<std::vector<uint32_t>> dependents(num_vars);
  for (size_t i = 0; i < num_matrix; ++i) {
    dependents[soi.matrix_ineqs[i].rhs].push_back(static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < soi.sub_ineqs.size(); ++i) {
    dependents[soi.sub_ineqs[i].rhs].push_back(
        static_cast<uint32_t>(num_matrix + i));
  }

  // --- Initial worklist order (sparsity heuristic, Sect. 3.3). ---
  Work work;
  std::vector<uint32_t>& order = work.current;
  order.resize(num_ineqs);
  std::iota(order.begin(), order.end(), 0);
  if (options.order_by_sparsity) {
    auto key = [&](uint32_t idx) -> size_t {
      if (idx >= num_matrix) return SIZE_MAX;  // subordinations last
      const Soi::MatrixIneq& m = soi.matrix_ineqs[idx];
      if (m.predicate == kEmptyPredicate) return 0;
      // More empty columns in A first. The counts are precomputed per
      // predicate at database build time; ascending (cols - empty) is the
      // same order as the descending empty-column sort of Sect. 3.3.
      return n - (m.forward ? db.EmptyForwardColumns(m.predicate)
                            : db.EmptyBackwardColumns(m.predicate));
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) { return key(a) < key(b); });
  }

  // Warm start (sim::StandingQuery): seed the first round with the armed
  // subset only — in sparsity order, like a full first round would be.
  // Unarmed inequalities hold at `initial` by the SolveSoiWarm contract
  // and re-activate through `dependents` if an input of theirs later
  // shrinks.
  if (armed != nullptr) {
    std::erase_if(work.current, [&](uint32_t idx) { return !(*armed)[idx]; });
  }
  work.queued.Resize(num_ineqs);

  // Per-inequality result slots, reused across rounds. chi and counts are
  // frozen during the evaluation phase — every mask is a pure function of
  // the round-start assignment — so the phase parallelizes with no
  // synchronization beyond the end-of-round barrier, and the sequential
  // merge below replays the slots in worklist order for a scheduling-
  // independent outcome.
  std::vector<util::BitVector> masks;
  std::vector<EvalKind> kinds;

  auto on_change = [&](uint32_t var) {
    counts[var] = chi[var].Count();
    for (uint32_t dep : dependents[var]) {
      if (!work.queued.Test(dep)) {
        work.queued.Set(dep);
        work.next.push_back(dep);
      }
    }
  };

  // --- Evaluation: one task per unstable inequality. ----------------------
  // Writes only slot k, so tasks run concurrently without synchronization.
  auto evaluate = [&](size_t k) {
    const uint32_t idx = work.current[k];
    if (idx >= num_matrix) {
      kinds[k] = EvalKind::kSub;
      masks[k] = chi[soi.sub_ineqs[idx - num_matrix].rhs].bits();
      return;
    }

    const Soi::MatrixIneq& m = soi.matrix_ineqs[idx];
    if (counts[m.lhs] == 0) {  // cannot shrink further
      kinds[k] = EvalKind::kSkip;
      return;
    }
    if (m.predicate == kEmptyPredicate || counts[m.rhs] == 0) {
      kinds[k] = EvalKind::kClear;
      return;
    }

    const util::HierarchicalBitVector& sel = chi[m.rhs];
    const size_t sel_count = counts[m.rhs];

    bool row_wise = true;
    switch (options.eval_mode) {
      case SolverOptions::EvalMode::kRowWise:
        row_wise = true;
        break;
      case SolverOptions::EvalMode::kColumnWise:
        row_wise = false;
        break;
      case SolverOptions::EvalMode::kDynamic:
        // Paper's rule: row-wise iff chi(rhs) has fewer bits than chi(lhs).
        row_wise = sel_count < counts[m.lhs];
        break;
    }

    if (row_wise) {
      kinds[k] = EvalKind::kRow;
      const util::BitMatrix& a =
          m.forward ? db.Forward(m.predicate) : db.Backward(m.predicate);
      masks[k].Resize(n);
      a.Multiply(sel, sel_count, &masks[k]);
    } else {
      kinds[k] = EvalKind::kCol;
      // Keep candidate j of lhs iff column j of A intersects chi(rhs);
      // column j of A is row j of A^T.
      const util::BitMatrix& a_t =
          m.forward ? db.Backward(m.predicate) : db.Forward(m.predicate);
      masks[k] = chi[m.lhs].bits();
      chi[m.lhs].ForEachSetBit([&](uint32_t j) {
        if (!a_t.RowIntersects(j, sel.bits())) masks[k].Reset(j);
      });
    }
  };

  // Merge-phase AND. A set an earlier merge of this round already drained
  // cannot shrink further, so it skips the kernel (and its block-skip
  // accounting), like the initialization does.
  auto apply_mask = [&](uint32_t lhs, size_t k) {
    return counts[lhs] != 0 && chi[lhs].AndWith(masks[k]);
  };

  stats.threads_used = pool != nullptr ? pool->NumThreads() : 1;
  while (!work.current.empty()) {
    if (options.max_rounds != 0 && stats.rounds >= options.max_rounds) {
      solution.truncated = true;
      break;
    }
    // Cooperative cancellation/deadline check, once per round: a truncated
    // fixpoint stops between rounds, so the exported candidates are a
    // sound over-approximation of the true solution (supersets).
    if (control != nullptr && control->Expired()) {
      solution.truncated = true;
      break;
    }
    ++stats.rounds;
    const size_t width = work.current.size();
    stats.max_round_width = std::max(stats.max_round_width, width);
    if (masks.size() < width) {
      masks.resize(width);
      kinds.resize(width);
    }

    // Evaluation phase: chi/counts are read-only until the barrier.
    if (pool == nullptr || width <= 1) {
      for (size_t k = 0; k < width; ++k) evaluate(k);
    } else {
      ++stats.parallel_rounds;
      util::ParallelFor(pool, width, evaluate);
    }

    // Merge phase, single-threaded, in worklist order.
    for (size_t k = 0; k < width; ++k) {
      ++stats.evaluations;
      const uint32_t idx = work.current[k];
      const uint32_t lhs = idx >= num_matrix
                               ? soi.sub_ineqs[idx - num_matrix].lhs
                               : soi.matrix_ineqs[idx].lhs;
      bool changed = false;
      switch (kinds[k]) {
        case EvalKind::kSkip:
          continue;
        case EvalKind::kClear:
          changed = counts[lhs] != 0;
          if (changed) chi[lhs].ClearAll();
          break;
        case EvalKind::kRow:
          ++stats.row_evals;
          changed = apply_mask(lhs, k);
          break;
        case EvalKind::kCol:
          ++stats.col_evals;
          changed = apply_mask(lhs, k);
          break;
        case EvalKind::kSub:
          changed = apply_mask(lhs, k);
          break;
      }
      if (changed) {
        ++stats.updates;
        on_change(lhs);
      }
    }

    work.current.clear();
    std::swap(work.current, work.next);
    work.queued.ClearAll();
  }

  // Export the flat candidate vectors; harvest the kernel counters first.
  for (size_t v = 0; v < num_vars; ++v) {
    stats.blocks_skipped += chi[v].TakeBlocksSkipped();
    solution.candidates[v] = std::move(chi[v]).TakeBits();
  }

  stats.solve_seconds = timer.ElapsedSeconds();
  return solution;
}

}  // namespace sparqlsim::sim
