// Ablation of the Sect. 3.3 solver strategies on representative queries:
//   * Eq. (13) summary initialization vs plain Eq. (12),
//   * sparsity-first inequality ordering on/off,
//   * row-wise vs column-wise vs dynamic product evaluation.
// The paper's observation: no single heuristic fits all inputs, but the
// dynamic default is never far from the best. Each variant is timed
// SPARQLSIM_BENCH_REPS times and reported as the median with its
// quartiles, so one run can tell a real gap from noise.
//
// `--db file.gdb` (or SPARQLSIM_DB) runs the LUBM query set against a real
// ingested database instead of the synthetic generators.
// SPARQLSIM_BENCH_JSON=<path> archives every variant row as JSON;
// tools/run_benches.sh folds that into the repo-root BENCH_summary.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
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
  auto make = [](bool summary, bool order, sim::SolverOptions::EvalMode mode) {
    sim::SolverOptions o;
    o.summary_init = summary;
    o.order_by_sparsity = order;
    o.eval_mode = mode;
    return o;
  };
  using Mode = sim::SolverOptions::EvalMode;
  variants.push_back({"default(13+order+dyn)", make(true, true, Mode::kDynamic)});
  variants.push_back({"init12", make(false, true, Mode::kDynamic)});
  variants.push_back({"no-order", make(true, false, Mode::kDynamic)});
  variants.push_back({"row-only", make(true, true, Mode::kRowWise)});
  variants.push_back({"col-only", make(true, true, Mode::kColumnWise)});
  variants.push_back({"naive(12,noord,row)", make(false, false, Mode::kRowWise)});
  return variants;
}

/// Quartiles of per-run seconds (linear interpolation between ranks).
struct Spread {
  double p25 = 0;
  double p50 = 0;
  double p75 = 0;
};

/// Runs fn SPARQLSIM_BENCH_REPS times, timing each run.
Spread TimeSpread(const std::function<void()>& fn) {
  const size_t reps = bench::BenchReps();
  std::vector<double> seconds(reps);
  for (double& s : seconds) {
    util::Stopwatch watch;
    fn();
    s = watch.ElapsedSeconds();
  }
  std::sort(seconds.begin(), seconds.end());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(reps - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, reps - 1);
    return seconds[lo] +
           (pos - static_cast<double>(lo)) * (seconds[hi] - seconds[lo]);
  };
  return {quantile(0.25), quantile(0.5), quantile(0.75)};
}

struct VariantRow {
  std::string name;
  Spread seconds;
  size_t rounds = 0;
  size_t updates = 0;
  size_t row_evals = 0;
  size_t col_evals = 0;
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
  std::printf("  %-22s %10s %10s %10s %7s %8s %9s %9s\n", "variant",
              "p25(s)", "p50(s)", "p75(s)", "rounds", "updates", "row-ev",
              "col-ev");
  for (const Variant& v : Variants()) {
    // Time the solve itself (SOI construction + fixpoint): that is the
    // path every one of these knobs ablates. Triple extraction is
    // identical across variants and would only dilute the comparison.
    sim::Solution solution;
    VariantRow row;
    row.name = v.name;
    row.seconds = TimeSpread(
        [&] { solution = processor.Solve(*query.where, v.options); });
    row.rounds = solution.stats.rounds;
    row.updates = solution.stats.updates;
    row.row_evals = solution.stats.row_evals;
    row.col_evals = solution.stats.col_evals;
    row.blocks_skipped = solution.stats.blocks_skipped;
    result.rows.push_back(row);
    std::printf("  %-22s %10.5f %10.5f %10.5f %7zu %8zu %9zu %9zu\n", v.name,
                row.seconds.p25, row.seconds.p50, row.seconds.p75, row.rounds,
                row.updates, row.row_evals, row.col_evals);
  }
  return result;
}

void WriteJson(const std::vector<QueryResult>& results, FILE* out) {
  std::fprintf(out, "{\n  \"bench\": \"ablation\",\n");
  std::fprintf(out, "  \"queries\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const QueryResult& q = results[i];
    std::fprintf(out, "    {\"id\": \"%s\", \"variants\": [\n", q.id.c_str());
    for (size_t j = 0; j < q.rows.size(); ++j) {
      const VariantRow& r = q.rows[j];
      std::fprintf(out,
                   "      {\"name\": \"%s\", \"p25\": %.6f, \"p50\": %.6f, "
                   "\"p75\": %.6f, \"rounds\": %zu, \"updates\": %zu, "
                   "\"row_evals\": %zu, \"col_evals\": %zu, "
                   "\"blocks_skipped\": %zu}%s\n",
                   r.name.c_str(), r.seconds.p25, r.seconds.p50,
                   r.seconds.p75, r.rounds, r.updates, r.row_evals,
                   r.col_evals, r.blocks_skipped,
                   j + 1 == q.rows.size() ? "" : ",");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
}

int Run(int argc, char** argv) {
  std::printf("Solver strategy ablation (Sect. 3.3)\n");
  std::vector<QueryResult> results;

  // Low-selectivity cyclic pattern over the LUBM vocabulary whose
  // candidate sets erode gradually over many rounds — the iterative
  // regime of the paper's L0/"30+ iterations" discussion (Sect. 5.3).
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
