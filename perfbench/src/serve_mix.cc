// serve-mix: a warmed QueryService with 4 workers serving the seeded LUBM
// query mix, every query distinct so neither coalescing nor the solution
// cache answers any of them. A closed-loop phase (4 clients, each
// Submit(q).get()) measures capacity; an open-loop phase at one fixed
// arrival rate measures latency from each request's due time.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "gate.h"
#include "host.h"
#include "query_mix.h"
#include "sim/query_service.h"
#include "sparql/parser.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace perfbench {

namespace graph = sparqlsim::graph;
namespace sim = sparqlsim::sim;
namespace sparql = sparqlsim::sparql;
using sparqlsim::util::Stopwatch;

namespace {

constexpr size_t kWarmupQueries = 200;
/// Pre-generated closed-loop queries per second of the phase: a ceiling on
/// measurable capacity (the phase ends early if the service outruns it).
constexpr size_t kClosedQueriesPerSecond = 1500;
constexpr size_t kOpenCompletionThreads = kLoadThreads - 1;
constexpr double kRateWindowSeconds = 0.5;
/// Open-loop latency windows: 1 s holds 120 requests at the benchmark's
/// rate, 12 of them beyond the window's p90.
constexpr double kLatencyWindowSeconds = 1.0;

struct Served {
  bool done = false;
  ReportDigest digest;
};

/// Closed loop: `clients` threads each Submit(q).get() over queries[first..]
/// until `seconds` elapse or the list runs out. Returns the number served.
size_t ClosedLoop(sim::QueryService& service, const std::vector<MixQuery>& mix,
                  size_t first, size_t count, size_t clients, double seconds,
                  Tracer& tracer, std::vector<double>* latencies,
                  std::vector<double>* done_at, std::vector<Served>* served) {
  std::atomic<size_t> next{0};
  std::mutex mutex;
  Stopwatch watch;
  auto client = [&] {
    std::vector<double> local, local_done;
    while (watch.ElapsedSeconds() < seconds) {
      const size_t i = next++;
      if (i >= count) break;
      const uint64_t request = tracer.enabled() ? tracer.NewId() : 0;
      Tracer::Scope span(tracer, "serve.request", request);
      Stopwatch op;
      std::future<sim::PruneReport> future;
      {
        Tracer::Scope submit(tracer, "service.submit", request);
        future = service.Submit(mix[first + i].query);
      }
      sim::PruneReport report;
      {
        Tracer::Scope wait(tracer, "service.wait", request);
        report = future.get();
      }
      local.push_back(op.ElapsedSeconds());
      local_done.push_back(watch.ElapsedSeconds());
      if (served != nullptr) (*served)[first + i] = {true, Digest(report)};
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (latencies != nullptr) {
      latencies->insert(latencies->end(), local.begin(), local.end());
      done_at->insert(done_at->end(), local_done.begin(), local_done.end());
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) threads.emplace_back(client);
  client();
  for (std::thread& t : threads) t.join();
  return std::min(next.load(), count);
}

struct OpenSample {
  double due = 0;      // since the phase began
  double latency = 0;  // due -> ready
  double lag = 0;      // due -> Submit called
  double admit = 0;    // inside Submit
  double queue = 0;    // Submit returned -> ready, minus the report's own time
};

/// Open loop: one sender submits mix[first + i] at start + i / rate without
/// waiting for answers; kOpenCompletionThreads threads wait for the futures
/// in submission order and stamp their completion.
std::vector<OpenSample> OpenLoop(sim::QueryService& service,
                                 const std::vector<MixQuery>& mix,
                                 size_t first, size_t count, double rate,
                                 Tracer& tracer, std::vector<Served>* served) {
  struct Pending {
    size_t i;
    int64_t due_ns, send_ns, admitted_ns;
    uint64_t request;
    std::future<sim::PruneReport> future;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Pending> pending;  // guarded by mutex
  bool sender_done = false;     // guarded by mutex
  std::vector<OpenSample> samples(count);

  auto completer = [&] {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return !pending.empty() || sender_done; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      sim::PruneReport report = p.future.get();
      const int64_t done_ns = Tracer::NowNs();
      OpenSample& s = samples[p.i];
      s.due = static_cast<double>(p.i) / rate;
      s.latency = static_cast<double>(done_ns - p.due_ns) * 1e-9;
      s.lag = static_cast<double>(p.send_ns - p.due_ns) * 1e-9;
      s.admit = static_cast<double>(p.admitted_ns - p.send_ns) * 1e-9;
      s.queue = static_cast<double>(done_ns - p.admitted_ns) * 1e-9 -
                report.total_seconds;
      (*served)[first + p.i] = {true, Digest(report)};
      if (tracer.enabled()) {
        tracer.Record({"serve.request", p.request, 0, p.request, p.due_ns,
                       done_ns});
        tracer.Record({"loadgen.lag", tracer.NewId(), p.request, p.request,
                       p.due_ns, p.send_ns});
        tracer.Record({"service.submit", tracer.NewId(), p.request, p.request,
                       p.send_ns, p.admitted_ns});
        tracer.Record({"service.wait", tracer.NewId(), p.request, p.request,
                       p.admitted_ns, done_ns});
      }
    }
  };
  std::vector<std::thread> completers;
  for (size_t t = 0; t < kOpenCompletionThreads; ++t) {
    completers.emplace_back(completer);
  }

  const int64_t start_ns = Tracer::NowNs();
  for (size_t i = 0; i < count; ++i) {
    const int64_t due_ns =
        start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due_ns)));
    Pending p;
    p.i = i;
    p.due_ns = due_ns;
    p.request = tracer.enabled() ? tracer.NewId() : 0;
    p.send_ns = Tracer::NowNs();
    p.future = service.Submit(mix[first + i].query);
    p.admitted_ns = Tracer::NowNs();
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back(std::move(p));
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    sender_done = true;
  }
  ready.notify_all();
  for (std::thread& t : completers) t.join();
  return samples;
}

template <typename Fn>
std::vector<double> Collect(const std::vector<OpenSample>& samples, Fn field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const OpenSample& s : samples) out.push_back(field(s));
  return out;
}

}  // namespace

WorkloadOutput RunServeMix(const BenchOptions& options, Tracer& tracer) {
  WorkloadOutput out;
  RunResult& result = out.result;
  const double closed_seconds = options.seconds / 2;
  const double open_seconds = options.seconds - closed_seconds;
  const size_t closed_count =
      static_cast<size_t>(kClosedQueriesPerSecond * closed_seconds) + 1;
  const size_t open_count =
      static_cast<size_t>(options.serve_rate * open_seconds) + 1;

  // ---- Inputs: the seeded mix, distinct across warm-up and both phases.
  QueryMix generator(options.seed);
  auto generated = generator.Take(kWarmupQueries + closed_count + open_count);
  if (!generated.ok()) {
    std::fprintf(stderr, "serve-mix: %s\n", generated.error_message().c_str());
    result.correct = false;
    return out;
  }
  const std::vector<MixQuery>& mix = generated.value();
  if (auto status = CheckMix(mix); !status.ok()) {
    std::fprintf(stderr, "serve-mix: %s\n", status.message().c_str());
    result.correct = false;
    return out;
  }

  // ---- Set-up: data, service, untimed warm-up pass.
  std::vector<double> setup_seconds;
  std::unique_ptr<sim::QueryService> service;
  std::optional<graph::GraphDatabase> db;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    db.reset();
    Stopwatch watch;
    db.emplace(MakeLubm20());
    service = MakeService(*db);
    Tracer untraced(false);
    ClosedLoop(*service, mix, 0, kWarmupQueries, kLoadThreads, 1e9, untraced,
               nullptr, nullptr, nullptr);
    setup_seconds.push_back(watch.ElapsedSeconds());
  }
  out.end_to_end["setup_s"] = Median(setup_seconds);
  const sim::QueryService::Stats before = service->stats();

  // ---- Timed phases.
  std::vector<Served> served(mix.size());
  std::vector<double> closed_latencies, closed_done;
  Stopwatch closed_watch;
  const size_t closed_served =
      ClosedLoop(*service, mix, kWarmupQueries, closed_count, kLoadThreads,
                 closed_seconds, tracer, &closed_latencies, &closed_done, &served);
  const double closed_elapsed = closed_watch.ElapsedSeconds();
  const size_t open_first = kWarmupQueries + closed_count;
  std::vector<OpenSample> open = OpenLoop(*service, mix, open_first, open_count,
                                          options.serve_rate, tracer, &served);
  service->Drain();
  const sim::QueryService::Stats after = service->stats();
  out.end_to_end["peak_rss_mb"] = PeakRssMib();
  if (closed_served == closed_count) {
    result.notes.push_back("closed loop ran out of pre-generated queries");
  }

  // ---- Gate (untimed): every served report against a sequential
  // cache-free prune on the same snapshot.
  std::vector<size_t> checked;
  for (size_t i = kWarmupQueries; i < mix.size(); ++i) {
    if (served[i].done) checked.push_back(i);
  }
  std::vector<char> pass(checked.size(), 0);
  const auto snapshot = service->CurrentSnapshot();
  ParallelFor(checked.size(), kLoadThreads, [&](size_t k) {
    const size_t i = checked[k];
    pass[k] = Passes(served[i].digest,
                     Digest(ReferencePrune(*snapshot, mix[i].query)));
  });
  result.attempted = checked.size();
  for (char ok : pass) result.failed += ok ? 0 : 1;
  if (after.submitted != after.executed || after.cache.solution_hits != 0) {
    result.correct = false;
    result.notes.push_back(
        "coalescing or the solution cache answered a query: submitted " +
        std::to_string(after.submitted) + ", executed " +
        std::to_string(after.executed) + ", solution hits " +
        std::to_string(after.cache.solution_hits));
  }

  // ---- Metrics.
  const double serve_qps =
      WindowedRate(closed_done, closed_elapsed, kRateWindowSeconds);
  out.end_to_end["throughput_qps"] = serve_qps;
  result.Add(&result.detail, "serve_qps", serve_qps, "1/s",
             closed_latencies.size());
  result.Add(&result.detail, "serve_rate", options.serve_rate, "1/s",
             open.size());
  const auto latencies = Collect(open, [](const OpenSample& s) { return s.latency; });
  const auto due = Collect(open, [](const OpenSample& s) { return s.due; });
  result.AddPercentile("serve_latency_s.p50", latencies, 0.5, "s");
  result.AddPercentile("serve_latency_s.p90", latencies, 0.9, "s");
  if (auto v = WindowedPercentile(due, latencies, open_seconds,
                                  kLatencyWindowSeconds, 0.5)) {
    out.end_to_end["latency_s.p50"] = *v;
  }
  if (auto v = WindowedPercentile(due, latencies, open_seconds,
                                  kLatencyWindowSeconds, 0.9)) {
    out.end_to_end["latency_s.tail"] = *v;
  }
  result.AddPercentile("serve_latency_s.p99", latencies, 0.99, "s");
  const auto lags = Collect(open, [](const OpenSample& s) { return s.lag; });
  if (auto v = result.AddPercentile("loadgen.lag_s.p99", lags, 0.99, "s")) {
    out.layers["loadgen.lag_s.p99"] = *v;
  }

  out.layers["service.admit_wait_s"] =
      Median(Collect(open, [](const OpenSample& s) { return s.admit; }));
  out.layers["service.queue_wait_s"] =
      Median(Collect(open, [](const OpenSample& s) { return s.queue; }));
  out.layers["service.executed"] =
      static_cast<double>(after.executed - before.executed);
  out.layers["service.coalesced"] =
      static_cast<double>(after.coalesced - before.coalesced);
  out.layers["service.peak_in_flight"] =
      static_cast<double>(after.peak_in_flight);
  const double hits = static_cast<double>(after.cache.solution_hits -
                                          before.cache.solution_hits);
  const double lookups =
      hits + static_cast<double>(after.cache.solution_misses -
                                 before.cache.solution_misses);
  out.layers["sim.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  out.layers["sim.cache_evictions"] = static_cast<double>(
      after.cache.soi_evictions - before.cache.soi_evictions +
      after.cache.generation_evictions - before.cache.generation_evictions);
  const double reuses =
      static_cast<double>(after.scratch_reuses - before.scratch_reuses);
  const double allocs =
      static_cast<double>(after.scratch_allocs - before.scratch_allocs);
  out.layers["sim.scratch_reuse_ratio"] =
      reuses + allocs > 0 ? reuses / (reuses + allocs) : 0.0;

  // ---- Traced run only: the per-query layer split, replaying the served
  // mix sequentially on the service's snapshot.
  if (tracer.enabled()) {
    sim::SolverOptions solver;  // the service's per-query defaults
    solver.cache_capacity = 4;
    sim::SimEngine engine(snapshot.get(), solver);
    SplitCounters counters;
    size_t uncached = 0;
    Stopwatch replay;
    for (size_t k = 0; k < checked.size() && replay.ElapsedSeconds() < open_seconds;
         ++k) {
      const uint64_t request = tracer.NewId();
      Tracer::Scope span(tracer, "replay.query", request);
      auto parsed = [&] {
        Tracer::Scope parse(tracer, "sparql.parse", request);
        return sparql::Parser::Parse(mix[checked[k]].text);
      }();
      bool cache_answered = false;
      sim::PruneReport report = TracedPrune(engine, parsed.value(), tracer,
                                            request, &counters, &cache_answered);
      if (!cache_answered) ++uncached;
    }
    if (uncached > 0) {
      result.correct = false;
      result.notes.push_back("sim.extract ran uncached on " +
                             std::to_string(uncached) + " replayed queries");
    }
    AddSplitLayers(SummarizeSpans(tracer.Spans()), counters, &out.layers);
  }
  return out;
}

}  // namespace perfbench
