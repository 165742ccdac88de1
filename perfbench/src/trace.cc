#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "metrics.h"

namespace perfbench {

namespace {

// Open Scope ids of the calling thread, innermost last.
thread_local std::vector<uint64_t> open_scopes;

}  // namespace

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Record(const SpanRecord& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, uint64_t request)
    : tracer_(tracer.enabled() ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  record_.name = name;
  record_.id = tracer_->NewId();
  record_.parent = open_scopes.empty() ? 0 : open_scopes.back();
  record_.request = request;
  open_scopes.push_back(record_.id);
  record_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  record_.end_ns = NowNs();
  open_scopes.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  if (tracer_->spans_.size() >= tracer_->max_spans_) {
    ++tracer_->dropped_;
    return;
  }
  tracer_->spans_.push_back(record_);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

sparqlsim::util::Status Tracer::WriteJson(const std::string& path) const {
  std::vector<SpanRecord> spans = Spans();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return sparqlsim::util::Status::Error("cannot write " + path);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"name\": \"" << JsonEscape(s.name) << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.flush();
  if (!out) return sparqlsim::util::Status::Error("short write to " + path);
  return sparqlsim::util::Status::Ok();
}

double Tracer::CalibrateSpanSeconds() {
  constexpr int kSpans = 20000;
  Tracer probe(true, kSpans);
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Scope scope(probe, "calibrate");
  }
  return static_cast<double>(NowNs() - start) * 1e-9 / kSpans;
}

std::map<std::string, LayerTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTotals> out;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const SpanRecord& s : spans) {
    const int64_t duration = s.end_ns - s.start_ns;
    // Union of the child intervals clipped to this span: children on other
    // threads may overlap each other.
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      intervals.clear();
      for (const SpanRecord* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      int64_t run_lo = 0, run_hi = 0;
      bool open = false;
      for (const auto& [lo, hi] : intervals) {
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) covered += run_hi - run_lo;
    }
    LayerTotals& totals = out[s.name];
    ++totals.count;
    totals.total_s += static_cast<double>(duration) * 1e-9;
    totals.self_s += static_cast<double>(duration - covered) * 1e-9;
    totals.durations_s.push_back(static_cast<double>(duration) * 1e-9);
  }
  return out;
}

}  // namespace perfbench
