#include "sim/sim_engine.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <utility>

#include "sparql/normalize.h"
#include "util/stopwatch.h"

namespace sparqlsim::sim {

void ExtractBranchTriples(const Soi& soi, const Solution& solution,
                          const graph::GraphDatabase& db,
                          std::vector<graph::Triple>* kept) {
  for (const Soi::Edge& e : soi.edges) {
    if (e.predicate == kEmptyPredicate) continue;
    const util::BitVector& subjects = solution.candidates[e.subject_var];
    const util::BitVector& objects = solution.candidates[e.object_var];
    if (subjects.None() || objects.None()) continue;
    const util::BitMatrix& fwd = db.Forward(e.predicate);
    subjects.ForEachSetBit([&](uint32_t s) {
      for (uint32_t o : fwd.Row(s)) {
        if (objects.Test(o)) kept->push_back({s, e.predicate, o});
      }
    });
  }
}

void MergeBranches(std::span<const BranchResult> branches,
                   PruneReport* report) {
  size_t total_kept = report->kept_triples.size();
  for (const BranchResult& b : branches) total_kept += b.kept->size();
  report->kept_triples.reserve(total_kept);
  for (const BranchResult& b : branches) {
    for (const auto& [var, groups] : b.soi->query_var_groups) {
      // Every query variable has at least one occurrence group; a new
      // entry starts as a copy of the first instead of a zeroed vector
      // OR-ed with it.
      assert(!groups.empty());
      auto [it, inserted] = report->var_candidates.try_emplace(
          var, b.solution->candidates[groups.front()]);
      for (size_t g = inserted ? 1 : 0; g < groups.size(); ++g) {
        it->second.OrWith(b.solution->candidates[groups[g]]);
      }
    }
    report->kept_triples.insert(report->kept_triples.end(), b.kept->begin(),
                                b.kept->end());
  }
  std::sort(report->kept_triples.begin(), report->kept_triples.end());
  report->kept_triples.erase(
      std::unique(report->kept_triples.begin(), report->kept_triples.end()),
      report->kept_triples.end());
}

SimEngine::SimEngine(const graph::GraphDatabase* db, SolverOptions options,
                     std::shared_ptr<SoiCache> cache)
    : db_(db), options_(options), cache_(std::move(cache)) {
  if (options_.ResolvedThreads() > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.ResolvedThreads());
  }
  if (cache_ == nullptr && (options_.cache_sois || options_.cache_solutions)) {
    // A private cache serves exactly one database, so stale generations can
    // never be read again; generation GC keeps them from pinning memory.
    cache_ = std::make_shared<SoiCache>(
        SoiCache::Options{options_.cache_capacity, /*generation_gc=*/true});
  }
}

Solution SimEngine::Solve(const Soi& soi,
                          const std::vector<util::BitVector>* initial,
                          const SolveControl* control) const {
  return SolveSoi(soi, *db_, options_, initial, pool_.get(), control);
}

SimEngine::BranchOutcome SimEngine::ProcessBranch(
    const sparql::Pattern& branch, bool extract_triples,
    const SolveControl* control) const {
  BranchOutcome out;
  const uint64_t generation = db_->generation();
  const bool cache_sois = cache_ != nullptr && options_.cache_sois;
  // The solution layer rides on the SOI layer: canonically-equal patterns
  // may number their SOI variables differently (construction follows triple
  // order, the key does not), so a cached Solution is only meaningful
  // against the cached SOI instance it was solved on — never against a
  // freshly built one. SoiCache enforces the pairing itself (solution
  // lookups carry the SOI instance), but without the SOI layer there is no
  // instance to pair against. Truncated runs (max_rounds != 0) are not the
  // canonical fixpoint and also bypass the layer.
  const bool cache_solutions = CachesSolutions();

  std::string key;
  if (cache_sois || cache_solutions) {
    key = sparql::CanonicalPatternKey(branch);
  }

  if (cache_sois) {
    out.soi = cache_->FindSoi(generation, key);
    if (out.soi == nullptr) {
      out.soi = cache_->InsertSoi(generation, key,
                                  BuildSoiFromPattern(branch, *db_));
    }
  } else {
    out.soi =
        std::make_shared<const Soi>(BuildSoiFromPattern(branch, *db_));
  }

  if (cache_solutions) {
    out.solution = cache_->FindSolution(generation, key, out.soi.get());
    out.solution_from_cache = out.solution != nullptr;
  }
  if (out.solution == nullptr) {
    Solution solved = Solve(*out.soi, /*initial=*/nullptr, control);
    // A truncated solve (deadline/cancel) is a sound over-approximation,
    // not the fixpoint — serve it to this caller but never cache it.
    if (cache_solutions && !solved.truncated) {
      out.solution = cache_->InsertSolution(generation, key, out.soi.get(),
                                            std::move(solved));
    } else {
      out.solution = std::make_shared<const Solution>(std::move(solved));
    }
  }

  if (extract_triples) {
    ExtractBranchTriples(*out.soi, *out.solution, *db_, &out.kept);
  }
  return out;
}

bool SimEngine::CachesSolutions() const {
  return cache_ != nullptr && options_.cache_sois &&
         options_.cache_solutions && options_.max_rounds == 0;
}

bool SimEngine::SolutionsCached(const sparql::Query& query) const {
  if (!CachesSolutions()) return false;
  const uint64_t generation = db_->generation();
  for (const auto& branch : sparql::UnionNormalForm(*query.where)) {
    const std::string key = sparql::CanonicalPatternKey(*branch);
    if (!cache_->HasSolution(generation, key)) return false;
  }
  return true;
}

Solution SimEngine::SolvePattern(const sparql::Pattern& union_free_pattern,
                                 const SolveControl* control) const {
  return *ProcessBranch(union_free_pattern, /*extract_triples=*/false, control)
              .solution;
}

PruneReport SimEngine::Prune(const sparql::Query& query,
                             const SolveControl* control) const {
  util::Stopwatch timer;
  // Keeps lazily-loaded matrix slabs resident across every branch solve and
  // the triple-extraction passes between them.
  graph::ResidencyPin residency_pin = db_->PinResidency();
  PruneReport report;
  report.snapshot_generation = db_->generation();

  std::vector<std::unique_ptr<sparql::Pattern>> branches =
      sparql::UnionNormalForm(*query.where);
  report.num_branches = branches.size();

  // Branch batch: every union-free branch builds/fetches its SOI, solves,
  // and extracts its triples as one pool task; a branch's fixpoint rounds
  // may themselves fan out on the same pool (ParallelFor nests safely).
  // Each task writes only its own outcome slot.
  std::vector<BranchOutcome> outcomes(branches.size());
  auto run_branch = [&](size_t i) {
    outcomes[i] = ProcessBranch(*branches[i], /*extract_triples=*/true, control);
  };
  util::ParallelFor(branches.size() > 1 ? pool_.get() : nullptr,
                    branches.size(), run_branch);

  // ---- Single-writer merge point. ----------------------------------------
  // ParallelFor is a barrier, so all branch work is done; only the
  // coordinating thread touches the report from here on, in branch order,
  // which keeps the aggregate deterministic for any thread count.
  // SolveStats::Accumulate and the candidate-map union are unsynchronized
  // by design and must never move into the branch tasks; the debug
  // assertion below fires if a refactor ever merges from a pool thread.
  [[maybe_unused]] const std::thread::id coordinator =
      std::this_thread::get_id();
  std::vector<BranchResult> results;
  results.reserve(outcomes.size());
  for (const BranchOutcome& outcome : outcomes) {
    assert(std::this_thread::get_id() == coordinator &&
           "PruneReport merge must stay on the coordinating thread");
    if (outcome.solution_from_cache) {
      ++report.solution_cache_hits;
    } else {
      report.stats.Accumulate(outcome.solution->stats);
    }
    report.truncated = report.truncated || outcome.solution->truncated;
    results.push_back(
        {outcome.soi.get(), outcome.solution.get(), &outcome.kept});
  }
  MergeBranches(results, &report);

  report.total_seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace sparqlsim::sim
