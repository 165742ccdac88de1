#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> values, double q) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  // The epsilon keeps 100 * (1 - 0.9) from flooring to 9.
  const double beyond = std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9);
  if (beyond < static_cast<double>(kMinSamplesBeyond)) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double WindowedRate(const std::vector<double>& done_s, double duration_s,
                    double window_s) {
  const size_t windows = static_cast<size_t>(duration_s / window_s);
  if (windows < 4) {
    return duration_s > 0 ? static_cast<double>(done_s.size()) / duration_s
                          : 0.0;
  }
  std::vector<double> counts(windows, 0.0);
  for (double t : done_s) {
    const size_t w = static_cast<size_t>(t / window_s);
    if (t >= 0 && w < windows) counts[w] += 1.0;
  }
  std::sort(counts.begin(), counts.end());
  double sum = 0;
  const size_t lo = windows / 4, hi = windows - windows / 4;
  for (size_t w = lo; w < hi; ++w) sum += counts[w];
  return sum / static_cast<double>(hi - lo) / window_s;
}

std::optional<double> WindowedPercentile(const std::vector<double>& at_s,
                                         const std::vector<double>& values,
                                         double duration_s, double window_s,
                                         double q) {
  const size_t windows = static_cast<size_t>(duration_s / window_s);
  std::vector<std::vector<double>> by_window(windows);
  for (size_t i = 0; i < values.size() && i < at_s.size(); ++i) {
    const size_t w = static_cast<size_t>(at_s[i] / window_s);
    if (at_s[i] >= 0 && w < windows) by_window[w].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& v : by_window) {
    if (auto p = Percentile(std::move(v), q)) per_window.push_back(*p);
  }
  if (per_window.empty()) return std::nullopt;
  return Median(std::move(per_window));
}

std::optional<double> RunResult::AddPercentile(
    const std::string& name, const std::vector<double>& values, double q,
    const std::string& unit) {
  std::optional<double> value = Percentile(values, q);
  if (value) {
    Add(&detail, name, *value, unit, values.size());
  } else {
    std::string note = name;
    note += " withheld: ";
    note += std::to_string(values.size());
    note += " samples leave fewer than ";
    note += std::to_string(kMinSamplesBeyond);
    note += " beyond it";
    notes.push_back(std::move(note));
  }
  return value;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FinalJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": ";
  out += std::to_string(result.attempted);
  out += ", \"failed\": ";
  out += std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
           FormatNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
