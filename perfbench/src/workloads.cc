#include "workloads.h"

#include "datagen/lubm.h"
#include "sim/soi.h"
#include "sparql/normalize.h"

namespace perfbench {

namespace graph = sparqlsim::graph;
namespace sim = sparqlsim::sim;
namespace sparql = sparqlsim::sparql;

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"latency_s.p50", "s"},
    {"latency_s.tail", "s"},
    {"throughput_qps", "1/s"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"graph.open_s", "s"},
    {"graph.materialize_s", "s"},
    {"graph.materializations", "count"},
    {"graph.restrict_s", "s"},
    {"graph.write_s", "s"},
    {"graph.bytes_written", "bytes"},
    {"graph.publish_s", "s"},
    {"sparql.parse_s", "s"},
    {"sparql.unf_s", "s"},
    {"sparql.branches", "count"},
    {"sim.soi_build_s", "s"},
    {"sim.solve_s", "s"},
    {"sim.rounds", "count"},
    {"sim.evaluations", "count"},
    {"sim.update_ratio", "ratio"},
    {"sim.row_evals", "count"},
    {"sim.col_evals", "count"},
    {"sim.delta_evals", "count"},
    {"sim.extract_s", "s"},
    {"sim.kept_triples", "count"},
    {"sim.cache_hit_ratio", "ratio"},
    {"sim.cache_evictions", "count"},
    {"sim.scratch_reuse_ratio", "ratio"},
    {"service.admit_wait_s", "s"},
    {"service.queue_wait_s", "s"},
    {"service.executed", "count"},
    {"service.coalesced", "count"},
    {"service.peak_in_flight", "count"},
    {"standing.maintain_s", "s"},
    {"standing.maintained", "count"},
    {"standing.recomputed", "count"},
    {"standing.armed_fraction", "ratio"},
    {"loadgen.lag_s.p99", "s"},
};

graph::GraphDatabase MakeLubm20() {
  sparqlsim::datagen::LubmConfig config;
  config.num_universities = kUniversities;
  config.seed = kDataSeed;
  return sparqlsim::datagen::MakeLubmDatabase(config);
}

std::unique_ptr<sim::QueryService> MakeService(const graph::GraphDatabase& db) {
  sim::QueryServiceOptions options;
  options.num_workers = kServiceWorkers;
  options.cache_capacity = kServiceCacheCapacity;
  return std::make_unique<sim::QueryService>(&db, options);
}

sim::PruneReport TracedPrune(const sim::SimEngine& engine,
                             const sparql::Query& query, Tracer& tracer,
                             uint64_t request, SplitCounters* counters,
                             bool* cache_answered) {
  std::vector<std::unique_ptr<sparql::Pattern>> branches;
  {
    Tracer::Scope span(tracer, "sparql.unf", request);
    branches = sparql::UnionNormalForm(*query.where);
  }
  for (const auto& branch : branches) {
    sim::Soi soi;
    {
      Tracer::Scope span(tracer, "sim.soi_build", request);
      soi = sim::BuildSoiFromPattern(*branch, engine.db());
    }
    Tracer::Scope span(tracer, "sim.solve", request);
    sim::Solution solution = engine.Solve(soi);
    counters->solve.Accumulate(solution.stats);
  }
  for (const auto& branch : branches) engine.SolvePattern(*branch);
  sim::PruneReport report;
  {
    Tracer::Scope span(tracer, "sim.extract", request);
    report = engine.Prune(query);
  }
  ++counters->queries;
  counters->branches += branches.size();
  counters->kept_triples += report.kept_triples.size();
  *cache_answered = report.solution_cache_hits == report.num_branches;
  return report;
}

double MedianSpan(const std::map<std::string, LayerTotals>& spans,
                  const std::string& name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : Median(it->second.durations_s);
}

void AddSplitLayers(const std::map<std::string, LayerTotals>& spans,
                    const SplitCounters& counters, LayerValues* layers) {
  for (const char* name : {"sparql.parse", "sparql.unf", "sim.soi_build",
                           "sim.solve", "sim.extract"}) {
    (*layers)[std::string(name) + "_s"] = MedianSpan(spans, name);
  }
  if (counters.queries == 0) return;
  const double queries = static_cast<double>(counters.queries);
  const double solves =
      static_cast<double>(std::max<size_t>(counters.branches, 1));
  const sim::SolveStats& s = counters.solve;
  (*layers)["sparql.branches"] = static_cast<double>(counters.branches) / queries;
  (*layers)["sim.rounds"] = static_cast<double>(s.rounds) / solves;
  (*layers)["sim.evaluations"] = static_cast<double>(s.evaluations) / solves;
  (*layers)["sim.update_ratio"] =
      s.evaluations == 0 ? 0.0
                         : static_cast<double>(s.updates) /
                               static_cast<double>(s.evaluations);
  (*layers)["sim.row_evals"] = static_cast<double>(s.row_evals) / solves;
  (*layers)["sim.col_evals"] = static_cast<double>(s.col_evals) / solves;
  (*layers)["sim.delta_evals"] = static_cast<double>(s.delta_evals) / solves;
  (*layers)["sim.kept_triples"] =
      static_cast<double>(counters.kept_triples) / queries;
}

}  // namespace perfbench
