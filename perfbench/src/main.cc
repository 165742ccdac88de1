// perfbench: the repository benchmark. Runs one workload on LUBM(20) and
// prints, as its last stdout line, one JSON object with `correct`,
// `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
// per-layer metrics with --trace 1). Usage:
//
//   perfbench --workload cold-prune|serve-mix|update-churn --seed N
//             --seconds S --trace 0|1 [--serve-rate R] [--out-dir DIR]
//
// --serve-rate (requests/s) is required for serve-mix.
//
// See perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "host.h"
#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold-prune|serve-mix|update-churn "
               "--seed N --seconds S --trace 0|1 [--serve-rate R] "
               "[--out-dir DIR]\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

void PrintMetric(const Metric& m) {
  if (m.samples > 0) {
    std::printf("  %-28s %.6g %s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  } else {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i > 0 ? ", \"" : "\"") + JsonEscape(m.name) +
           "\": {\"value\": " + FormatNumber(m.value) + ", \"unit\": \"" +
           JsonEscape(m.unit) + "\", \"samples\": " +
           std::to_string(m.samples) + "}";
  }
  return out + "}";
}

int Run(int argc, char** argv) {
  BenchOptions options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    double number = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      options.out_dir = value;
    } else if (!ParseNumber(value, &number) || number < 0) {
      std::fprintf(stderr, "invalid value '%s' for %s\n", value, flag);
      return Usage();
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (number > 9007199254740992.0) {  // 2^53: exact in a double
        std::fprintf(stderr, "--seed %s is too large\n", value);
        return Usage();
      }
      options.seed = static_cast<uint64_t>(number);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = number;
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = number != 0;
      have_trace = true;
    } else if (std::strcmp(flag, "--serve-rate") == 0) {
      options.serve_rate = number;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return Usage();
    }
  }
  if (!have_trace || options.seconds <= 0 ||
      (options.workload == "serve-mix" && options.serve_rate <= 0)) {
    return Usage();
  }

  WorkloadOutput (*run)(const BenchOptions&, Tracer&) = nullptr;
  if (options.workload == "cold-prune") run = RunColdPrune;
  if (options.workload == "serve-mix") run = RunServeMix;
  if (options.workload == "update-churn") run = RunUpdateChurn;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return Usage();
  }

  HostRecord host = BeginHostRecord();
  Tracer tracer(options.trace);
  WorkloadOutput output = run(options, tracer);
  host.end = SampleHost();
  RunResult& result = output.result;

  if (!options.trace) {
    // Layer values an untraced run reads from public stats (no spans).
    for (const MetricSpec& spec : kPerLayerMetrics) {
      auto it = output.layers.find(spec.name);
      if (it != output.layers.end()) {
        result.Add(&result.detail, spec.name, it->second, spec.unit);
      }
    }
    for (const MetricSpec& spec : kEndToEndMetrics) {
      auto it = output.end_to_end.find(spec.name);
      if (it == output.end_to_end.end()) {
        result.correct = false;
        result.notes.push_back(std::string("no value for ") + spec.name);
        continue;
      }
      result.Add(&result.metrics, spec.name, it->second, spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kPerLayerMetrics) {
      auto it = output.layers.find(spec.name);
      result.Add(&result.metrics, spec.name,
                 it == output.layers.end() ? 0.0 : it->second, spec.unit);
    }
    // Trace dump and summary: self time per span name, and the overhead.
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    auto status = tracer.WriteJson(path);
    if (!status.ok()) result.notes.push_back(status.message());
    const std::vector<SpanRecord> spans = tracer.Spans();
    const double span_cost = Tracer::CalibrateSpanSeconds();
    std::printf("trace: %zu spans (%zu dropped) written to %s\n", spans.size(),
                tracer.dropped(), path.c_str());
    std::printf("  %-22s %9s %12s %12s %12s\n", "span", "count", "total_s",
                "self_s", "median_s");
    for (const auto& [name, totals] : SummarizeSpans(spans)) {
      std::printf("  %-22s %9zu %12.6f %12.6f %12.9f\n", name.c_str(),
                  totals.count, totals.total_s, totals.self_s,
                  Median(totals.durations_s));
    }
    result.Add(&result.detail, "trace.span_cost_s", span_cost, "s");
    result.Add(&result.detail, "trace.overhead_s",
               span_cost * static_cast<double>(spans.size()), "s",
               spans.size());
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: %s\n", host.ToJson().c_str());
  for (const Metric& m : result.detail) PrintMetric(m);
  for (const std::string& note : result.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  std::string notes = "[";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    notes += (i > 0 ? ", \"" : "\"") + JsonEscape(result.notes[i]) + "\"";
  }
  notes += "]";
  std::printf("detail: {\"workload\": \"%s\", \"seed\": %llu, \"host\": %s, "
              "\"metrics\": %s, \"notes\": %s}\n",
              JsonEscape(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              host.ToJson().c_str(), MetricsJson(result.detail).c_str(),
              notes.c_str());
  if (result.failed > 0) result.correct = false;
  std::printf("%s\n", FinalJson(result).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
