// Ablation of the Sect. 3.3 solver strategies on representative queries:
//   * Eq. (13) summary initialization vs plain Eq. (12),
//   * sparsity-first inequality ordering on/off,
//   * row-wise vs column-wise vs dynamic product evaluation,
//   * delta-driven incremental evaluation on/off (counted accumulators +
//     hierarchical zero-block skipping vs full re-evaluation each round).
// The paper's observation: no single heuristic fits all inputs, but the
// dynamic default is never far from the best. The incremental pair is the
// headline comparison of this bench: identical fixpoint trajectory
// (rounds/updates are asserted equal) at lower wall-clock.
//
// `--db file.gdb` (or SPARQLSIM_DB) runs the LUBM query set against a real
// ingested database instead of the synthetic generators.
// SPARQLSIM_BENCH_JSON=<path> archives every variant row as JSON;
// tools/run_benches.sh folds that into the repo-root BENCH_summary.json.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/pruner.h"

namespace sparqlsim {
namespace {

struct Variant {
  const char* name;
  sim::SolverOptions options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  auto make = [](bool summary, bool order, sim::SolverOptions::EvalMode mode,
                 bool incremental) {
    sim::SolverOptions o;
    o.summary_init = summary;
    o.order_by_sparsity = order;
    o.eval_mode = mode;
    o.incremental_eval = incremental;
    return o;
  };
  using Mode = sim::SolverOptions::EvalMode;
  variants.push_back(
      {"default(13+order+dyn+inc)", make(true, true, Mode::kDynamic, true)});
  variants.push_back(
      {"no-incremental", make(true, true, Mode::kDynamic, false)});
  variants.push_back({"init12", make(false, true, Mode::kDynamic, true)});
  variants.push_back({"no-order", make(true, false, Mode::kDynamic, true)});
  variants.push_back({"row-only", make(true, true, Mode::kRowWise, true)});
  variants.push_back({"col-only", make(true, true, Mode::kColumnWise, true)});
  variants.push_back(
      {"naive(12,noord,row,noinc)", make(false, false, Mode::kRowWise, false)});
  return variants;
}

struct VariantRow {
  std::string name;
  double seconds = 0;
  size_t rounds = 0;
  size_t updates = 0;
  size_t row_evals = 0;
  size_t col_evals = 0;
  size_t delta_evals = 0;
  size_t full_evals = 0;
  size_t cols_cleared = 0;
  size_t blocks_skipped = 0;
};

struct QueryResult {
  std::string id;
  std::vector<VariantRow> rows;
};

QueryResult RunQuery(const char* id, const graph::GraphDatabase& db,
                     const std::string& text) {
  sparql::Query query = bench::ParseOrDie(text);
  sim::SparqlSimProcessor processor(&db);

  QueryResult result;
  result.id = id;
  std::printf("\n%s:\n", id);
  std::printf("  %-26s %12s %7s %8s %9s %9s %10s %11s\n", "variant", "time(s)",
              "rounds", "updates", "row-ev", "col-ev", "delta-ev",
              "cols-clr");
  for (const Variant& v : Variants()) {
    // Time the solve itself (SOI construction + fixpoint): that is the
    // path every one of these knobs ablates. Triple extraction is
    // identical across variants and would only dilute the comparison.
    sim::Solution solution;
    double seconds = bench::TimeAverage(
        [&] { solution = processor.Solve(*query.where, v.options); });
    VariantRow row;
    row.name = v.name;
    row.seconds = seconds;
    row.rounds = solution.stats.rounds;
    row.updates = solution.stats.updates;
    row.row_evals = solution.stats.row_evals;
    row.col_evals = solution.stats.col_evals;
    row.delta_evals = solution.stats.delta_evals;
    row.full_evals = solution.stats.full_evals;
    row.cols_cleared = solution.stats.cols_cleared;
    row.blocks_skipped = solution.stats.blocks_skipped;
    result.rows.push_back(row);
    std::printf("  %-26s %12.5f %7zu %8zu %9zu %9zu %10zu %11zu\n", v.name,
                seconds, row.rounds, row.updates, row.row_evals, row.col_evals,
                row.delta_evals, row.cols_cleared);
  }

  // The incremental pair must walk the exact same fixpoint trajectory —
  // a divergence here means the delta path changed results, which the
  // differential suite (solver_incremental_test) forbids.
  const VariantRow& inc_on = result.rows[0];
  const VariantRow& inc_off = result.rows[1];
  if (inc_on.rounds != inc_off.rounds || inc_on.updates != inc_off.updates) {
    std::fprintf(stderr,
                 "FATAL: incremental on/off trajectory diverged on %s "
                 "(rounds %zu vs %zu, updates %zu vs %zu)\n",
                 id, inc_on.rounds, inc_off.rounds, inc_on.updates,
                 inc_off.updates);
    std::abort();
  }
  return result;
}

void WriteJson(const std::vector<QueryResult>& results, FILE* out) {
  std::fprintf(out, "{\n  \"bench\": \"ablation\",\n");
  // Headline aggregate: wall-clock of the default (incremental) variant
  // vs the same configuration with incremental evaluation off.
  double on_total = 0, off_total = 0;
  for (const QueryResult& q : results) {
    on_total += q.rows[0].seconds;
    off_total += q.rows[1].seconds;
  }
  std::fprintf(out,
               "  \"incremental\": {\"seconds_on\": %.6f, \"seconds_off\": "
               "%.6f, \"speedup\": %.3f},\n",
               on_total, off_total,
               on_total > 0 ? off_total / on_total : 0.0);
  std::fprintf(out, "  \"queries\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const QueryResult& q = results[i];
    std::fprintf(out, "    {\"id\": \"%s\", \"variants\": [\n", q.id.c_str());
    for (size_t j = 0; j < q.rows.size(); ++j) {
      const VariantRow& r = q.rows[j];
      std::fprintf(out,
                   "      {\"name\": \"%s\", \"seconds\": %.6f, \"rounds\": "
                   "%zu, \"updates\": %zu, \"row_evals\": %zu, \"col_evals\": "
                   "%zu, \"delta_evals\": %zu, \"full_evals\": %zu, "
                   "\"cols_cleared\": %zu, \"blocks_skipped\": %zu}%s\n",
                   r.name.c_str(), r.seconds, r.rounds, r.updates, r.row_evals,
                   r.col_evals, r.delta_evals, r.full_evals, r.cols_cleared,
                   r.blocks_skipped, j + 1 == q.rows.size() ? "" : ",");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
}

int Run(int argc, char** argv) {
  std::printf("Solver strategy ablation (Sect. 3.3 + incremental eval)\n");
  std::vector<QueryResult> results;

  // Low-selectivity cyclic pattern over the LUBM vocabulary whose
  // candidate sets erode gradually over many rounds — the iterative
  // regime (the paper's L0/"30+ iterations" discussion, Sect. 5.3) where
  // delta-driven re-evaluation pays the most.
  const std::string lubm_cyclic =
      "SELECT * WHERE { ?x <memberOf> ?d . ?x <takesCourse> ?c . "
      "?y <teacherOf> ?c . ?y <worksFor> ?d . ?x <advisor> ?y . "
      "?y <doctoralDegreeFrom> ?u . ?d <subOrganizationOf> ?u2 . "
      "?p <publicationAuthor> ?x . }";

  std::optional<graph::GraphDatabase> override_db =
      bench::LoadDbOverride(argc, argv);
  if (override_db) {
    // Real ingested database: the LUBM workload is the one whose
    // predicate vocabulary matches the ingested LUBM dumps.
    auto queries = datagen::LubmQueries();
    for (const auto& [qid, text] : queries) {
      results.push_back(RunQuery(qid.c_str(), *override_db, text));
    }
    results.push_back(
        RunQuery("LC (cyclic, gradual erosion)", *override_db, lubm_cyclic));
  } else {
    graph::GraphDatabase lubm = bench::MakeBenchLubm();
    auto lubm_queries = datagen::LubmQueries();
    results.push_back(RunQuery("L0 (cyclic, low selectivity)", lubm,
                               lubm_queries[0].text));
    results.push_back(
        RunQuery("L1 (Fig. 6(b) cycle)", lubm, lubm_queries[1].text));
    results.push_back(
        RunQuery("LC (cyclic, gradual erosion)", lubm, lubm_cyclic));

    graph::GraphDatabase dbp = bench::MakeBenchDbpedia();
    auto b = datagen::BenchmarkQueries();
    results.push_back(RunQuery("B1 (large chain)", dbp, b[1].text));
    results.push_back(RunQuery("B14 (large star)", dbp, b[14].text));
    results.push_back(RunQuery("B8 (cyclic triangle)", dbp, b[8].text));
  }

  const char* json_path = std::getenv("SPARQLSIM_BENCH_JSON");
  if (json_path != nullptr) {
    FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    WriteJson(results, out);
    std::fclose(out);
    std::fprintf(stderr, "[bench] JSON written to %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
