// Standing-query maintenance bench: the update-heavy regime where a
// registered query's dual-simulation solution is maintained across
// small triple deltas instead of recomputed from cold.
//
// One cyclic LUBM query is registered as a sim::StandingQuery, then a
// stream of small delta batches is applied: delete-heavy erosion of the
// predicates the query reads, with periodic restore batches that
// re-insert previously deleted triples (so the retract *and* the grow
// path of maintenance get timed work). After every batch the maintained
// report is gated bit-identical against a cold, cache-free
// SimEngine::Prune on the post-delta snapshot — the bench aborts on the
// first divergence — and both sides are timed. The headline is the
// total maintain time vs the total cold-recompute time over the stream.
//
// Knobs: SPARQLSIM_STANDING_BATCHES (default 8),
//        SPARQLSIM_STANDING_DELTA   (triples per batch, default 32),
//        SPARQLSIM_LUBM_UNIVERSITIES (dataset scale, default 6),
//        --db <file.gdb> / SPARQLSIM_DB for a real ingested database.
// Set SPARQLSIM_BENCH_JSON=<path> to archive numbers as JSON
// (tools/run_benches.sh does).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "sim/sim_engine.h"
#include "sim/standing_query.h"
#include "sparql/ast.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace sparqlsim {
namespace {

// Cyclic multi-join touching eight predicates: enough structure that a
// cold solve does real fixpoint work, while a 32-triple delta dirties
// only a sliver of it — the regime standing queries exist for.
const char* kStandingQuery =
    "SELECT * WHERE { "
    "?x <memberOf> ?d . "
    "?x <takesCourse> ?c . "
    "?y <teacherOf> ?c . "
    "?y <worksFor> ?d . "
    "?x <advisor> ?y . "
    "?y <doctoralDegreeFrom> ?u . "
    "?d <subOrganizationOf> ?u2 . "
    "?p <publicationAuthor> ?x . }";

struct BatchSample {
  size_t batch = 0;
  size_t deletes = 0;
  size_t inserts = 0;
  bool maintained_all = false;  // no branch escalated to recompute
  double maintain_seconds = 0;
  double cold_seconds = 0;
  size_t kept = 0;
};

int Run(int argc, char** argv) {
  std::printf("Standing-query maintenance vs cold recompute (small deltas)\n");
  std::optional<graph::GraphDatabase> override_db =
      bench::LoadDbOverride(argc, argv);
  graph::GraphDatabase base =
      override_db ? std::move(*override_db) : bench::MakeBenchLubm();

  const size_t batches = bench::EnvSize("SPARQLSIM_STANDING_BATCHES", 8);
  const size_t delta_size = bench::EnvSize("SPARQLSIM_STANDING_DELTA", 32);

  sparql::Query query = bench::ParseOrDie(kStandingQuery);

  sim::StandingQueryOptions options;
  options.solver.cache_sois = false;
  options.solver.cache_solutions = false;
  std::shared_ptr<const graph::GraphDatabase> snapshot = base.Snapshot();

  util::Stopwatch register_watch;
  sim::StandingQuery standing(query, snapshot, options);
  const double register_seconds = register_watch.ElapsedSeconds();
  std::printf("  registered: %zu kept triples, cold solve %.5fs\n",
              standing.report().kept_triples.size(), register_seconds);

  // The erodible pool: every triple carrying a predicate the query reads
  // (taken from the kept-triple set, so absent predicates drop out).
  // Deleting from this pool is the worst honest case for maintenance —
  // each batch actually dirties the standing query's matrices.
  std::vector<uint32_t> query_preds;
  for (const graph::Triple& t : standing.report().kept_triples) {
    query_preds.push_back(t.predicate);
  }
  std::sort(query_preds.begin(), query_preds.end());
  query_preds.erase(std::unique(query_preds.begin(), query_preds.end()),
                    query_preds.end());
  std::vector<graph::Triple> pool;
  for (const graph::Triple& t : base.AllTriples()) {
    if (std::binary_search(query_preds.begin(), query_preds.end(),
                           t.predicate)) {
      pool.push_back(t);
    }
  }
  if (pool.empty()) {
    std::fprintf(stderr,
                 "FATAL: empty standing solution on the base dataset — "
                 "nothing to erode\n");
    return 1;
  }
  std::printf("  erodible pool: %zu triples over the query's predicates\n",
              pool.size());

  sim::SolverOptions plain;
  plain.num_threads = 1;
  plain.cache_sois = false;
  plain.cache_solutions = false;

  util::Rng rng(4242);
  std::vector<graph::Triple> retracted;  // deleted so far, restore source
  std::vector<BatchSample> samples;
  double maintain_total = 0, cold_total = 0;
  size_t next_pool = 0;

  for (size_t batch = 0; batch < batches; ++batch) {
    sim::TripleDelta delta;
    const bool restore_batch = batch % 3 == 2 && !retracted.empty();
    if (restore_batch) {
      // Re-insert a prefix of what we retracted: grown predicates, the
      // cone/escalation path.
      const size_t take = std::min(delta_size, retracted.size());
      delta.inserts.assign(retracted.end() - static_cast<ptrdiff_t>(take),
                           retracted.end());
      retracted.resize(retracted.size() - take);
    }
    for (size_t i = 0; i < delta_size && next_pool < pool.size(); ++i) {
      // Stride through the pool at a random skip so erosion spreads over
      // universities instead of draining one department first.
      next_pool += 1 + rng.NextBounded(7);
      if (next_pool >= pool.size()) break;
      delta.deletes.push_back(pool[next_pool]);
      retracted.push_back(pool[next_pool]);
    }
    if (delta.Empty()) break;

    const sim::StandingStats before = standing.stats();
    util::Stopwatch maintain_watch;
    const sim::PruneReport& maintained = standing.Apply(delta);
    const double maintain_seconds = maintain_watch.ElapsedSeconds();
    const sim::StandingStats after = standing.stats();

    util::Stopwatch cold_watch;
    sim::SimEngine cold_engine(&standing.db(), plain);
    sim::PruneReport cold = cold_engine.Prune(query);
    const double cold_seconds = cold_watch.ElapsedSeconds();

    if (maintained.kept_triples != cold.kept_triples ||
        maintained.var_candidates != cold.var_candidates) {
      std::fprintf(stderr,
                   "FATAL: batch %zu maintained report diverges from cold "
                   "recompute (maintained %zu kept, cold %zu kept)\n",
                   batch, maintained.kept_triples.size(),
                   cold.kept_triples.size());
      std::abort();
    }

    BatchSample s;
    s.batch = batch;
    s.deletes = delta.deletes.size();
    s.inserts = delta.inserts.size();
    s.maintained_all = after.recomputed == before.recomputed;
    s.maintain_seconds = maintain_seconds;
    s.cold_seconds = cold_seconds;
    s.kept = maintained.kept_triples.size();
    samples.push_back(s);
    maintain_total += maintain_seconds;
    cold_total += cold_seconds;

    std::printf("  batch %2zu: -%zu/+%zu  maintain %.5fs  cold %.5fs  "
                "(%s, %zu kept)\n",
                batch, s.deletes, s.inserts, maintain_seconds, cold_seconds,
                s.maintained_all ? "maintained" : "escalated", s.kept);
  }

  const sim::StandingStats stats = standing.stats();
  const double speedup =
      maintain_total > 0 ? cold_total / maintain_total : 0.0;
  std::printf("  totals: maintain %.5fs vs cold %.5fs  speedup %.2fx  "
              "(%zu maintained, %zu recomputed, %zu untouched branches, "
              "%zu/%zu ineqs armed)\n",
              maintain_total, cold_total, speedup, stats.maintained,
              stats.recomputed, stats.untouched_branches, stats.armed_ineqs,
              stats.total_ineqs);

  FILE* out = stdout;
  const char* json_path = std::getenv("SPARQLSIM_BENCH_JSON");
  if (json_path != nullptr) {
    out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  }
  std::fprintf(out, "{\n  \"bench\": \"standing\",\n");
  std::fprintf(out,
               "  \"config\": {\"batches\": %zu, \"delta_size\": %zu, "
               "\"pool\": %zu, \"register_seconds\": %.6f},\n",
               batches, delta_size, pool.size(), register_seconds);
  std::fprintf(out, "  \"batches\": [");
  for (size_t i = 0; i < samples.size(); ++i) {
    const BatchSample& s = samples[i];
    std::fprintf(out,
                 "%s\n    {\"batch\": %zu, \"deletes\": %zu, \"inserts\": "
                 "%zu, \"maintained\": %s, \"maintain_seconds\": %.6f, "
                 "\"cold_seconds\": %.6f, \"kept\": %zu}",
                 i == 0 ? "" : ",", s.batch, s.deletes, s.inserts,
                 s.maintained_all ? "true" : "false", s.maintain_seconds,
                 s.cold_seconds, s.kept);
  }
  std::fprintf(out, "\n  ],\n");
  std::fprintf(out,
               "  \"headline\": {\"batches\": %zu, \"delta_size\": %zu, "
               "\"maintained\": %zu, \"recomputed\": %zu, "
               "\"maintain_seconds\": %.6f, \"recompute_seconds\": %.6f, "
               "\"speedup\": %.3f}\n}\n",
               samples.size(), delta_size, stats.maintained, stats.recomputed,
               maintain_total, cold_total, speedup);
  if (out != stdout) {
    std::fclose(out);
    std::fprintf(stderr, "[bench] JSON written to %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
