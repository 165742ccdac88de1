#include "sim/standing_query.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sparql/normalize.h"
#include "util/stopwatch.h"

namespace sparqlsim::sim {

namespace {

/// True iff `next` holds an entry `prev` lacks — the insert-carrying test
/// for one predicate, an O(nnz) sorted-merge walk over the CSR rows. A
/// dirty predicate that did not grow only lost triples, which keeps it on
/// the pure retraction path (no cone).
bool ForwardGrew(const util::BitMatrix& next, const util::BitMatrix& prev) {
  bool grew = false;
  next.ForEachRow([&](uint32_t r, std::span<const uint32_t> nrow) {
    const std::span<const uint32_t> prow = prev.Row(r);
    grew = grew ||
           !std::includes(prow.begin(), prow.end(), nrow.begin(), nrow.end());
  });
  return grew;
}

}  // namespace

StandingQuery::StandingQuery(
    const sparql::Query& query,
    std::shared_ptr<const graph::GraphDatabase> snapshot,
    StandingQueryOptions options)
    : options_(std::move(options)), snapshot_(std::move(snapshot)) {
  if (options_.solver.ResolvedThreads() > 1) {
    pool_ =
        std::make_unique<util::ThreadPool>(options_.solver.ResolvedThreads());
  }
  util::Stopwatch timer;
  SolveStats stats;
  std::vector<std::unique_ptr<sparql::Pattern>> branches =
      sparql::UnionNormalForm(*query.where);
  branches_.reserve(branches.size());
  for (const std::unique_ptr<sparql::Pattern>& branch : branches) {
    BranchState b;
    b.soi = std::make_shared<const Soi>(
        BuildSoiFromPattern(*branch, *snapshot_));
    b.solution = SolveSoi(*b.soi, *snapshot_, options_.solver,
                          /*initial=*/nullptr, pool_.get());
    stats.Accumulate(b.solution.stats);
    ExtractTriples(b, *snapshot_);
    branches_.push_back(std::move(b));
  }
  RebuildReport(stats, timer.ElapsedSeconds());
}

const PruneReport& StandingQuery::Apply(const TripleDelta& delta) {
  graph::GraphDatabase next = snapshot_->WithTriplesRemoved(delta.deletes);
  if (!delta.inserts.empty()) {
    next = next.WithTriplesAdded(delta.inserts);
  }
  return ApplySnapshot(
      std::make_shared<const graph::GraphDatabase>(std::move(next)));
}

const PruneReport& StandingQuery::ApplySnapshot(
    std::shared_ptr<const graph::GraphDatabase> next) {
  assert(next->NumNodes() == snapshot_->NumNodes() &&
         next->NumPredicates() == snapshot_->NumPredicates() &&
         "successor snapshot must share the standing query's universe");
  util::Stopwatch timer;
  if (next->generation() == snapshot_->generation()) {
    // Content-identical publish (no-op/duplicate delta): nothing about the
    // fixpoint can differ, so the converged state — report included — is
    // reused outright. Repin so the caller's chain owner may drop `next`.
    snapshot_ = std::move(next);
    ++stats_.noop_applies;
    stats_.maintain_seconds += timer.ElapsedSeconds();
    return report_;
  }

  // Exact per-predicate dirty set of the COW publish chain; grown
  // classification is lazy and memoized — a branch not reading predicate
  // p never pays p's O(nnz) subset walk.
  const std::vector<uint32_t> changed = snapshot_->ChangedPredicates(*next);
  std::vector<bool> dirty(snapshot_->NumPredicates(), false);
  for (uint32_t p : changed) dirty[p] = true;
  std::vector<uint8_t> grown_memo(snapshot_->NumPredicates(), 2);
  auto grown = [&](uint32_t p) {
    if (grown_memo[p] == 2) {
      grown_memo[p] =
          ForwardGrew(next->Forward(p), snapshot_->Forward(p)) ? 1 : 0;
    }
    return grown_memo[p] == 1;
  };

  SolveStats stats;
  for (BranchState& b : branches_) {
    MaintainBranch(b, *next, dirty, grown, &stats);
  }

  snapshot_ = std::move(next);
  ++stats_.applies;
  RebuildReport(stats, timer.ElapsedSeconds());
  stats_.maintain_seconds += report_.total_seconds;
  return report_;
}

template <typename GrownFn>
void StandingQuery::MaintainBranch(BranchState& b,
                                   const graph::GraphDatabase& next,
                                   const std::vector<bool>& dirty,
                                   GrownFn&& grown, SolveStats* stats) {
  const Soi& soi = *b.soi;
  const size_t num_vars = soi.NumVars();
  const size_t num_matrix = soi.matrix_ineqs.size();
  const size_t num_ineqs = num_matrix + soi.sub_ineqs.size();

  // `touched`: variables whose warm-start value may *shrink* at
  // initialization (they read a dirty predicate, so the Eq. (13) summary
  // AND may remove candidates) — their dependents must be armed.
  // `cone` seeds: variables whose candidates may *grow* (they read a
  // predicate that gained entries, through an inequality product or a
  // summary) — they restart from the cold initialization.
  std::vector<bool> touched(num_vars, false);
  std::vector<bool> cone(num_vars, false);
  bool any_dirty = false;
  auto mark = [&](uint32_t predicate, uint32_t u, uint32_t v) {
    if (predicate == kEmptyPredicate || !dirty[predicate]) return;
    any_dirty = true;
    touched[u] = touched[v] = true;
    if (grown(predicate)) cone[u] = cone[v] = true;
  };
  for (const Soi::Edge& e : soi.edges) {
    mark(e.predicate, e.subject_var, e.object_var);
  }
  for (const Soi::MatrixIneq& m : soi.matrix_ineqs) {
    mark(m.predicate, m.lhs, m.rhs);
  }
  if (!any_dirty) {
    // Every predicate this branch reads kept its slab: the SOI, the
    // fixpoint, and the extraction inputs are all unchanged, so the
    // stored branch state *is* the post-delta answer.
    ++stats_.untouched_branches;
    return;
  }

  // Affected-cone closure: a variable reset toward the cold start can
  // only force resets in variables that read it, i.e. along rhs -> lhs of
  // both inequality kinds. Outside the closed cone, every inequality
  // writing a variable has a clean matrix and a non-cone right-hand side,
  // so that subsystem is unchanged and closed — its old fixpoint values
  // remain exact, which is what lets the warm start keep them verbatim.
  {
    std::vector<std::vector<uint32_t>> readers(num_vars);
    for (const Soi::MatrixIneq& m : soi.matrix_ineqs) {
      readers[m.rhs].push_back(m.lhs);
    }
    for (const Soi::SubIneq& s : soi.sub_ineqs) {
      readers[s.rhs].push_back(s.lhs);
    }
    std::vector<uint32_t> queue;
    for (uint32_t v = 0; v < num_vars; ++v) {
      if (cone[v]) queue.push_back(v);
    }
    while (!queue.empty()) {
      const uint32_t v = queue.back();
      queue.pop_back();
      for (uint32_t lhs : readers[v]) {
        if (!cone[lhs]) {
          cone[lhs] = true;
          queue.push_back(lhs);
        }
      }
    }
  }

  size_t cone_count = 0;
  for (uint32_t v = 0; v < num_vars; ++v) {
    if (cone[v] || soi.unsatisfiable_vars[v]) ++cone_count;
  }
  // A full cone makes the warm start the cold start plus bookkeeping.
  const bool recompute = cone_count == num_vars;

  Solution solved;
  if (recompute) {
    solved = SolveSoi(soi, next, options_.solver, /*initial=*/nullptr,
                      pool_.get());
    ++stats_.recomputed;
  } else {
    // Arm: inequalities reading a dirty matrix; inequalities whose lhs is
    // in the cone (their lhs restarted high and must be re-shrunk); and
    // dependents of any variable whose round-start value differs from the
    // old fixpoint (cone = may have grown, touched = summary AND may have
    // shrunk it at initialization without a round to queue dependents).
    std::vector<bool> armed(num_ineqs, false);
    size_t armed_count = 0;
    for (size_t i = 0; i < num_matrix; ++i) {
      const Soi::MatrixIneq& m = soi.matrix_ineqs[i];
      const bool pred_dirty =
          m.predicate != kEmptyPredicate && dirty[m.predicate];
      if (pred_dirty || cone[m.lhs] || cone[m.rhs] || touched[m.rhs]) {
        armed[i] = true;
        ++armed_count;
      }
    }
    for (size_t s = 0; s < soi.sub_ineqs.size(); ++s) {
      const Soi::SubIneq& si = soi.sub_ineqs[s];
      if (cone[si.lhs] || cone[si.rhs] || touched[si.rhs]) {
        armed[num_matrix + s] = true;
        ++armed_count;
      }
    }

    const size_t n = next.NumNodes();
    std::vector<util::BitVector> start(num_vars);
    for (uint32_t v = 0; v < num_vars; ++v) {
      if (cone[v]) {
        // Cold restart for this variable: all-ones; the solver re-ANDs
        // the constant pin and the Eq. (13) summaries, reproducing the
        // exact cold initialization.
        start[v] = util::BitVector(n);
        start[v].SetAll();
      } else {
        start[v] = b.solution.candidates[v];
      }
    }

    solved = SolveSoiWarm(soi, next, options_.solver, &start, pool_.get(),
                          /*control=*/nullptr, &armed);
    ++stats_.maintained;
    stats_.armed_ineqs += armed_count;
    stats_.total_ineqs += num_ineqs;
  }
  stats->Accumulate(solved.stats);
  b.solution = std::move(solved);
  ExtractTriples(b, next);
}

void StandingQuery::ExtractTriples(BranchState& b,
                                   const graph::GraphDatabase& db) {
  graph::ResidencyPin residency_pin = db.PinResidency();
  b.kept.clear();
  ExtractBranchTriples(*b.soi, b.solution, db, &b.kept);
}

void StandingQuery::RebuildReport(const SolveStats& stats, double seconds) {
  report_ = PruneReport{};
  report_.snapshot_generation = snapshot_->generation();
  report_.num_branches = branches_.size();
  report_.stats = stats;
  std::vector<BranchResult> results;
  results.reserve(branches_.size());
  for (const BranchState& b : branches_) {
    results.push_back({b.soi.get(), &b.solution, &b.kept});
  }
  MergeBranches(results, &report_);
  report_.total_seconds = seconds;
}

}  // namespace sparqlsim::sim
