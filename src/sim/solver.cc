#include "sim/solver.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>

#include "util/counted_accumulator.h"
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
  kRow,    // mask = chi(rhs) *b A (Eq. 9), computed in full
  kCol,    // mask = chi(lhs) filtered by per-column intersection tests
  kSub,    // mask = chi(rhs) (subordination, Eq. 14/15)
  kDelta,  // mask = accumulator product after counted retraction of the
           // rows that left chi(rhs); identical to the kRow mask
};

/// Per-matrix-inequality incremental state, persistent across rounds.
///
/// Two tiers, both exploiting that candidate sets only ever shrink (the
/// accumulated removal delta since the last synchronization is exactly
/// `last_rhs` minus the current chi(rhs), and its *size* is a free count
/// difference):
///
///  * Snapshot tier — every full row-wise evaluation keeps its product
///    and the selection it was computed from (the product is computed in
///    place; the selection copy is a negligible premium over the Multiply
///    itself). A re-evaluation with a small delta then *retracts*: only
///    columns reachable from removed rows can leave the product, and each
///    such column is re-checked with one early-exit cover probe against
///    the current selection (row of A^T vs chi(rhs)).
///  * Counted tier — an inequality that demonstrably iterates escalates
///    to a util::CountedAccumulator, whose per-column cover counts make
///    every retraction O(1) per touched column (no probes, GQ-Fast-style
///    counted index). Building counts writes 4 bytes per selected-nnz
///    entry where a product writes a bit, so the build is only risked on
///    *collapsed* selections, where it is near-free and every later
///    retraction is pure profit.
///
/// State is touched exclusively by the one evaluation task that owns the
/// inequality in a round (each inequality appears at most once per
/// round), so the evaluation phase stays race-free; its evolution is a
/// pure function of the worklist and the round-start assignments, so it
/// is scheduling-independent too.
struct IneqState {
  util::BitVector product;   // snapshot tier: chi(rhs) *b A for last_rhs
  util::BitVector last_rhs;  // selection both tiers are synchronized to
  size_t last_count = 0;     // == last_rhs.Count(), kept for the cost rule
  bool product_valid = false;
  util::CountedAccumulator acc;  // counted tier (escalation)
  bool acc_valid = false;
  /// Delta evaluations this inequality has completed, saturating — past
  /// retraction is the only reliable predictor of the future retractions
  /// that amortize the counted build (visit counts are not: for an
  /// inequality the fixpoint evaluates k times, any visit threshold
  /// tends to trigger exactly at the k-th, final, visit).
  uint8_t deltas_done = 0;
};

/// Escalation gate to the counted tier: at least this many delta
/// evaluations already performed...
constexpr uint8_t kAccDeltaThreshold = 2;
/// ...and a selection collapsed below 1/kAccBuildFraction of the
/// universe, so the counter-array build premium is negligible.
constexpr size_t kAccBuildFraction = 8;

/// Snapshot-tier cost asymmetry: a probe retraction pays an early-exit
/// row scan per touched column where a recompute pays a bit write per
/// entry, so probing is only chosen for deltas this many times smaller
/// than the full evaluation (counted-tier decrements are O(1) per column
/// and keep the plain removed-vs-full comparison).
constexpr size_t kProbePenalty = 8;

}  // namespace

/// Carried incremental state: the per-inequality tier vector of the last
/// converged solve.
struct IncrementalCarry::Impl {
  std::vector<IneqState> states;
};

IncrementalCarry::IncrementalCarry() = default;
IncrementalCarry::~IncrementalCarry() = default;
IncrementalCarry::IncrementalCarry(IncrementalCarry&&) noexcept = default;
IncrementalCarry& IncrementalCarry::operator=(IncrementalCarry&&) noexcept =
    default;

void IncrementalCarry::Clear() { impl_.reset(); }

size_t IncrementalCarry::LiveEntries() const {
  if (impl_ == nullptr) return 0;
  size_t live = 0;
  for (const IneqState& st : impl_->states) {
    if (st.product_valid || st.acc_valid) ++live;
  }
  return live;
}

void SolveStats::Accumulate(const SolveStats& other) {
  rounds += other.rounds;
  evaluations += other.evaluations;
  updates += other.updates;
  row_evals += other.row_evals;
  col_evals += other.col_evals;
  solve_seconds += other.solve_seconds;
  delta_evals += other.delta_evals;
  full_evals += other.full_evals;
  acc_rebuilds += other.acc_rebuilds;
  cols_cleared += other.cols_cleared;
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
                      /*warm=*/nullptr);
}

Solution SolveSoiWarm(const Soi& soi, const graph::GraphDatabase& db,
                      const SolverOptions& options,
                      const std::vector<util::BitVector>* initial,
                      util::ThreadPool* pool, const SolveControl* control,
                      const WarmStart* warm) {
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
  // Unarmed inequalities hold at `initial` by the WarmStart contract and
  // re-activate through `dependents` if an input of theirs later shrinks.
  if (warm != nullptr && warm->armed != nullptr) {
    std::erase_if(work.current,
                  [&](uint32_t idx) { return !(*warm->armed)[idx]; });
  }
  work.queued.Resize(num_ineqs);

  // Per-matrix-inequality incremental state (accumulator + selection
  // snapshot); see IneqState. Allocated once, lazily populated — or
  // adopted from a WarmStart carry, minus the entries the caller declared
  // stale, so retractions resume from products synchronized during the
  // previous converged solve of this Soi.
  IncrementalCarry* carry =
      warm != nullptr && options.incremental_eval ? warm->carry : nullptr;
  std::vector<IneqState> inc_state(options.incremental_eval ? num_matrix : 0);
  if (warm != nullptr && warm->carry != nullptr && carry == nullptr) {
    // incremental_eval off: whatever the carry holds is from a different
    // configuration and must not survive into a later incremental solve.
    warm->carry->Clear();
  }
  if (carry != nullptr && carry->impl_ != nullptr) {
    IncrementalCarry::Impl& held = *carry->impl_;
    if (held.states.size() == num_matrix) {
      inc_state = std::move(held.states);
      if (warm->carry_invalid != nullptr) {
        for (size_t i = 0; i < num_matrix; ++i) {
          if ((*warm->carry_invalid)[i]) inc_state[i] = IneqState{};
        }
      }
    }
    // Moved-from or shape-mismatched state must not be adopted twice.
    carry->impl_.reset();
  }

  // Per-inequality result slots, reused across rounds. chi and counts are
  // frozen during the evaluation phase — every mask is a pure function of
  // the round-start assignment — so the phase parallelizes with no
  // synchronization beyond the end-of-round barrier, and the sequential
  // merge below replays the slots in worklist order for a scheduling-
  // independent outcome. `mask_ptrs[k]` designates the mask the merge
  // applies: the slot's own `masks[k]`, or the owning inequality's
  // snapshot product or accumulator product (stable storage in
  // `inc_state`, untouched during the merge).
  std::vector<util::BitVector> masks;
  std::vector<EvalKind> kinds;
  std::vector<const util::BitVector*> mask_ptrs;
  std::vector<size_t> cleared;   // kDelta-retraction clears
  std::vector<uint8_t> rebuilt;  // slot rebuilt an accumulator
  std::vector<util::BitVector> gone;  // rows gone from chi(rhs)

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
  // Writes only slot k and the one IneqState this inequality owns this
  // round (each inequality appears at most once per round), so tasks run
  // concurrently without synchronization.
  auto evaluate = [&](size_t k) {
    rebuilt[k] = 0;
    cleared[k] = 0;
    const uint32_t idx = work.current[k];
    if (idx >= num_matrix) {
      kinds[k] = EvalKind::kSub;
      masks[k] = chi[soi.sub_ineqs[idx - num_matrix].rhs].bits();
      mask_ptrs[k] = &masks[k];
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

    const util::BitMatrix& a =
        m.forward ? db.Forward(m.predicate) : db.Backward(m.predicate);
    const util::BitMatrix& a_t =
        m.forward ? db.Backward(m.predicate) : db.Forward(m.predicate);
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

    if (options.incremental_eval) {
      IneqState& st = inc_state[idx];

      // Cost rule, same flavor as the row/column dynamic rule: retract
      // iff the rows removed since the sync point are fewer than what the
      // chosen full strategy would touch. The monotone shrink makes the
      // removal count an exact count difference — no set difference is
      // needed to *decide*.
      if (st.acc_valid || st.product_valid) {
        const size_t removed = st.last_count - sel_count;
        const size_t full_cost = row_wise ? sel_count : counts[m.lhs];
        // Which tier (if any) evaluates this delta: the counted tier
        // whenever its counts are live; otherwise escalate from the
        // snapshot tier when the inequality keeps iterating on a
        // collapsed selection; otherwise probe — but only for deltas
        // small enough to beat recomputation despite the probe premium.
        const bool counted_ok = st.acc_valid && removed < full_cost;
        const bool escalate_ok = !st.acc_valid && removed < full_cost &&
                                 st.deltas_done >= kAccDeltaThreshold &&
                                 sel_count * kAccBuildFraction < n;
        const bool probe_ok =
            !st.acc_valid && !escalate_ok && removed * kProbePenalty < full_cost;
        if (counted_ok || escalate_ok || probe_ok) {
          kinds[k] = EvalKind::kDelta;
          if (st.deltas_done < kAccDeltaThreshold) ++st.deltas_done;
          if (escalate_ok) {
            // Build the cover counts on the current (collapsed)
            // selection; the build subsumes this retraction and makes
            // every later one O(1) per column.
            rebuilt[k] = 1;
            st.acc.Rebuild(a, sel, sel_count);
            st.acc_valid = true;
            st.product_valid = false;
          } else if (removed != 0) {
            gone[k] = st.last_rhs;
            gone[k].AndNotWith(sel.bits());
            if (st.acc_valid) {
              cleared[k] = st.acc.Retract(a, gone[k]);
            } else {
              // Snapshot tier: only columns of removed rows can leave the
              // product; each is re-checked with one early-exit cover
              // probe against the current selection.
              gone[k].ForEachSetBit([&](uint32_t r) {
                for (uint32_t c : a.Row(r)) {
                  if (st.product.Test(c) &&
                      !a_t.RowIntersects(c, sel.bits())) {
                    st.product.Reset(c);
                    ++cleared[k];
                  }
                }
              });
            }
          }
          if (removed != 0 || rebuilt[k]) {
            st.last_rhs = sel.bits();
            st.last_count = sel_count;
          }
          // Either tier's product equals chi(rhs) *b A exactly — the same
          // mask a full kRow evaluation would produce.
          mask_ptrs[k] = st.acc_valid ? &st.acc.result() : &st.product;
          return;
        }
      }

      if (row_wise) {
        // Full product, written straight into the snapshot tier so the
        // next visit can retract; the selection copy is a negligible
        // premium over the Multiply itself, and a stale counted tier is
        // dropped (its counts no longer match any snapshot we keep).
        kinds[k] = EvalKind::kRow;
        st.product.Resize(n);
        a.Multiply(sel, sel_count, &st.product);
        st.last_rhs = sel.bits();
        st.last_count = sel_count;
        st.product_valid = true;
        st.acc_valid = false;
        mask_ptrs[k] = &st.product;
        return;
      }
    }

    if (row_wise) {
      kinds[k] = EvalKind::kRow;
      masks[k].Resize(n);
      a.Multiply(sel, sel_count, &masks[k]);
    } else {
      kinds[k] = EvalKind::kCol;
      // Keep candidate j of lhs iff column j of A intersects chi(rhs);
      // column j of A is row j of A^T.
      masks[k] = chi[m.lhs].bits();
      chi[m.lhs].ForEachSetBit([&](uint32_t j) {
        if (!a_t.RowIntersects(j, sel.bits())) masks[k].Reset(j);
      });
    }
    mask_ptrs[k] = &masks[k];
  };

  // Merge-phase AND. A set an earlier merge of this round already drained
  // cannot shrink further, so it skips the kernel (and its block-skip
  // accounting), like the initialization does.
  auto apply_mask = [&](uint32_t lhs, size_t k) {
    return counts[lhs] != 0 && chi[lhs].AndWith(*mask_ptrs[k]);
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
      mask_ptrs.resize(width);
      cleared.resize(width);
      rebuilt.resize(width);
      gone.resize(width);
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
          ++stats.full_evals;
          continue;
        case EvalKind::kClear:
          ++stats.full_evals;
          changed = counts[lhs] != 0;
          if (changed) chi[lhs].ClearAll();
          break;
        case EvalKind::kRow:
          ++stats.full_evals;
          ++stats.row_evals;
          changed = apply_mask(lhs, k);
          break;
        case EvalKind::kCol:
          ++stats.full_evals;
          ++stats.col_evals;
          changed = apply_mask(lhs, k);
          break;
        case EvalKind::kSub:
          ++stats.full_evals;
          changed = apply_mask(lhs, k);
          break;
        case EvalKind::kDelta:
          ++stats.delta_evals;
          stats.acc_rebuilds += rebuilt[k];
          stats.cols_cleared += cleared[k];
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

  // Deposit the incremental state for the next warm solve of this Soi —
  // but only from a converged run: a truncated run's products are
  // synchronized to selections that are not a fixpoint, and the carry's
  // validity reasoning (monotone shrink from the deposited state) starts
  // from convergence.
  if (carry != nullptr && !solution.truncated) {
    carry->impl_ = std::make_unique<IncrementalCarry::Impl>();
    carry->impl_->states = std::move(inc_state);
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
