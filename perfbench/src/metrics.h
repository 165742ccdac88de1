#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// One named number with its unit. `samples` is the count the value was
/// computed from (0 when it is a single measurement or a counter).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// A percentile is reported only when the sample leaves at least this many
/// observations beyond it; below that it is the maximum in disguise.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Linear-interpolation percentile (q in [0, 1]) of `values`, or nullopt
/// when fewer than kMinSamplesBeyond samples lie beyond it.
std::optional<double> Percentile(std::vector<double> values, double q);

/// Median of a non-empty sample (no beyond-count rule: a median of n >= 20
/// always qualifies, and set-up medians are over a handful of repeats).
double Median(std::vector<double> values);

/// Completions per second over the whole `window_s` windows of
/// [0, duration_s), as the mean of the windows between the first and third
/// quartile; `done_s` are completion times since the phase began. Trimming
/// the outer windows keeps a short stall of the host (steal) from moving the
/// figure. With fewer than four whole windows it is count / duration.
double WindowedRate(const std::vector<double>& done_s, double duration_s,
                    double window_s);

/// The median over whole `window_s` windows of [0, duration_s) of each
/// window's q-percentile of `values`, where `at_s[i]` places values[i] in a
/// window. Windows whose samples leave fewer than kMinSamplesBeyond beyond
/// the percentile are skipped; nullopt when none qualifies. Like
/// WindowedRate, it keeps a stall covering a minority of the run from
/// moving the figure.
std::optional<double> WindowedPercentile(const std::vector<double>& at_s,
                                         const std::vector<double>& values,
                                         double duration_s, double window_s,
                                         double q);

/// Everything one run reports. `metrics` become the final JSON line (the
/// BENCHMARK.json contract); `detail` holds the workload's own names
/// (cold_query_s.p50, serve_qps, ...) with sample counts, printed above it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::string> notes;

  void Add(std::vector<Metric>* to, std::string name, double value,
           std::string unit, size_t samples = 0) {
    to->push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Records a percentile under `name` in `detail`, or a note saying why
  /// it is withheld. Returns the value when reported.
  std::optional<double> AddPercentile(const std::string& name,
                                      const std::vector<double>& values,
                                      double q, const std::string& unit);
};

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}` on
/// one line, values with all their digits.
std::string FinalJson(const RunResult& result);

/// JSON string escaping for names and notes.
std::string JsonEscape(const std::string& text);

/// Full-precision number formatting shared by every JSON writer here.
std::string FormatNumber(double value);

}  // namespace perfbench
