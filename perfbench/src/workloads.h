#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph_database.h"
#include "metrics.h"
#include "query_mix.h"
#include "sim/query_service.h"
#include "sim/sim_engine.h"
#include "sparql/ast.h"
#include "trace.h"

namespace perfbench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// serve-mix open-loop arrival rate (requests/s); required for serve-mix,
  /// set once in BENCHMARK.json's command.
  double serve_rate = 0.0;
  /// Where the SQSIMDB2 file and the trace dump go (inside the checkout).
  std::string out_dir = ".";
};

/// The dataset of every workload: LUBM(kUniversities = 20) with the
/// generator's default data seed — 1,067,256 triples, 442,944 nodes, 18
/// predicates. The workload seed drives the serve-mix queries and the
/// update-churn batches and reader draws.
inline constexpr uint64_t kDataSeed = 42;
sparqlsim::graph::GraphDatabase MakeLubm20();

/// Set-ups per run; setup_s is their median.
inline constexpr size_t kSetupRepeats = 3;

/// Load threads a workload may run (the benchmark host has 4 cores).
inline constexpr size_t kLoadThreads = 4;
/// QueryService workers in serve-mix and update-churn.
inline constexpr size_t kServiceWorkers = 4;
/// Bound on the service's SoiCache: one entry holds a solution with one
/// node-universe-wide bit vector per SOI variable (~55 KB each on LUBM(20)),
/// so an unbounded cache grows by ~0.3 MB per distinct query.
inline constexpr size_t kServiceCacheCapacity = 256;

/// The QueryService of serve-mix and update-churn: kServiceWorkers workers,
/// the SoiCache bounded at kServiceCacheCapacity, defaults otherwise.
std::unique_ptr<sparqlsim::sim::QueryService> MakeService(
    const sparqlsim::graph::GraphDatabase& db);

/// The end-to-end metrics every untraced run reports (BENCHMARK.json's
/// `end_to_end`, in order) and the per-layer metrics every traced run
/// reports (`per_layer`). A per-layer metric a workload's path does not
/// cross reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// Per-layer values by name; main() emits every kPerLayerMetrics entry.
using LayerValues = std::map<std::string, double>;

/// What one workload run hands back to main().
struct WorkloadOutput {
  RunResult result;
  /// End-to-end values by kEndToEndMetrics name.
  std::map<std::string, double> end_to_end;
  LayerValues layers;
};

WorkloadOutput RunColdPrune(const BenchOptions& options, Tracer& tracer);
WorkloadOutput RunServeMix(const BenchOptions& options, Tracer& tracer);
WorkloadOutput RunUpdateChurn(const BenchOptions& options, Tracer& tracer);

/// The sequential per-query layer split shared by the traced runs:
/// UnionNormalForm -> BuildSoiFromPattern -> SimEngine::Solve per branch,
/// then SimEngine::Prune after SolvePattern has filled `engine`'s solution
/// cache, which leaves extraction, merge and sort. `engine` must cache
/// solutions. Spans go to `tracer` under `request`. Returns the report and
/// sets *cache_answered to whether the final Prune hit the cache for every
/// branch (the condition under which sim.extract measures extraction only).
struct SplitCounters {
  size_t queries = 0;
  size_t branches = 0;
  sparqlsim::sim::SolveStats solve;
  size_t kept_triples = 0;
};
sparqlsim::sim::PruneReport TracedPrune(
    const sparqlsim::sim::SimEngine& engine,
    const sparqlsim::sparql::Query& query, Tracer& tracer, uint64_t request,
    SplitCounters* counters, bool* cache_answered);

/// Folds the layer split's spans and counters into per-layer values:
/// medians per call for sparql.parse/unf, sim.soi_build/solve/extract, and
/// per-solve means for the SolveStats counters.
void AddSplitLayers(const std::map<std::string, LayerTotals>& spans,
                    const SplitCounters& counters, LayerValues* layers);

/// Median duration of the spans named `name` (0 when there are none).
double MedianSpan(const std::map<std::string, LayerTotals>& spans,
                  const std::string& name);

}  // namespace perfbench
