// update-churn: the serve-mix service with L0-L5 subscribed as standing
// queries. One publisher alternates DeleteTriples and the restoring
// IngestTriples of small seeded batches drawn from the predicates those
// queries read (advisor, takesCourse, worksFor) while three closed-loop
// readers resubmit a bounded, repeating query set. Exercises COW snapshot
// publishing, StandingQuery maintenance, and SoiCache hits and generation
// sweeps, none of which serve-mix touches.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "datagen/queries.h"
#include "gate.h"
#include "host.h"
#include "query_mix.h"
#include "sim/query_service.h"
#include "sparql/parser.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace perfbench {

namespace graph = sparqlsim::graph;
namespace sim = sparqlsim::sim;
namespace sparql = sparqlsim::sparql;
using sparqlsim::util::Stopwatch;

namespace {

/// The reader set, drawn from one fixed mix seed: a hot set of 3 queries
/// per shape, read 3 times in 4, and a cold list of 1024 queries read in
/// turn. Hot reads repeat within a generation, so the solution cache answers
/// all but each generation's first; cold reads miss. The split bounds the
/// hit ratio by construction: with a single repeating set it rose with read
/// throughput (more reads per generation, more hits, faster reads) and
/// doubled or halved the throughput from run to run. Fixed, because the
/// cost of a few dozen queries varies by a third from one mix seed to the
/// next. The workload seed drives the update batches and the readers'
/// draws.
constexpr size_t kHotQueriesPerShape = 3;
constexpr size_t kColdQueries = 1024;
constexpr double kHotReadShare = 0.75;
constexpr uint64_t kReaderMixSeed = 0;
constexpr size_t kReaders = kLoadThreads - 1;
constexpr size_t kBatchTriples = 16;
constexpr size_t kBatches = 1024;
constexpr double kRateWindowSeconds = 0.5;
/// Ledger value of the unmodified database; batch k's deletion is k.
constexpr int64_t kBase = -1;

using Batch = std::vector<graph::Triple>;

/// Seeded batches of distinct present triples of the churned predicates.
/// Batch 0 is the warm-up batch.
std::vector<Batch> MakeBatches(const graph::GraphDatabase& db, uint64_t seed) {
  std::vector<graph::Triple> pool;
  for (const char* name : {"advisor", "takesCourse", "worksFor"}) {
    const auto p = db.predicates().Lookup(name);
    if (!p) continue;
    db.ForEachTriple(*p, [&](uint32_t s, uint32_t o) {
      pool.push_back({s, *p, o});
    });
  }
  sparqlsim::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<Batch> batches(kBatches);
  for (Batch& batch : batches) {
    while (batch.size() < kBatchTriples) {
      batch.push_back(pool[rng.NextBounded(pool.size())]);
      std::sort(batch.begin(), batch.end());
      batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
    }
  }
  return batches;
}

struct Record {
  size_t query = 0;
  uint64_t generation = 0;
  ReportDigest digest;
};

struct ReadSample {
  Record record;
  double seconds = 0;
  double done_at = 0;  // since the timed phase began
  double admit = 0;
  double queue = 0;
};

struct PublishSample {
  double seconds = 0;
  double maintain_seconds = 0;
};

struct Setup {
  std::optional<graph::GraphDatabase> db;
  std::unique_ptr<sim::QueryService> service;
  std::vector<std::shared_ptr<sim::QueryService::Subscription>> subscriptions;
};

sim::StandingStats SumStats(
    const std::vector<std::shared_ptr<sim::QueryService::Subscription>>& subs) {
  sim::StandingStats total;
  for (const auto& sub : subs) {
    const sim::StandingStats s = sub->stats();
    total.maintained += s.maintained;
    total.recomputed += s.recomputed;
    total.armed_ineqs += s.armed_ineqs;
    total.total_ineqs += s.total_ineqs;
    total.maintain_seconds += s.maintain_seconds;
  }
  return total;
}

}  // namespace

WorkloadOutput RunUpdateChurn(const BenchOptions& options, Tracer& tracer) {
  WorkloadOutput out;
  RunResult& result = out.result;

  // ---- Inputs: the reader set and the standing L0-L5.
  QueryMix generator(kReaderMixSeed);
  auto hot = generator.TakePerShape(kHotQueriesPerShape);
  auto cold = generator.Take(kColdQueries);
  if (!hot.ok() || !cold.ok()) {
    std::fprintf(stderr, "update-churn: %s\n",
                 (hot.ok() ? cold : hot).error_message().c_str());
    result.correct = false;
    return out;
  }
  // reads[0, hot_count) is the hot set, the rest the cold list.
  std::vector<MixQuery> reads = std::move(hot).value();
  const size_t hot_count = reads.size();
  for (MixQuery& q : cold.value()) reads.push_back(std::move(q));
  std::vector<sparql::Query> standing;
  for (const auto& q : sparqlsim::datagen::LubmQueries()) {
    standing.push_back(sparql::Parser::Parse(q.text).value());
  }

  // ---- Set-up: data, service, subscriptions' cold solves, warm-up (every
  // hot query once, one delete/restore publish pair).
  std::vector<double> setup_seconds;
  Setup setup;
  std::vector<Batch> batches;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    setup.subscriptions.clear();
    setup.service.reset();
    setup.db.reset();
    Stopwatch watch;
    setup.db.emplace(MakeLubm20());
    setup.service = MakeService(*setup.db);
    for (const sparql::Query& q : standing) {
      setup.subscriptions.push_back(setup.service->Subscribe(q));
    }
    for (size_t q = 0; q < hot_count; ++q) {
      setup.service->Submit(reads[q].query).get();
    }
    if (batches.empty()) batches = MakeBatches(*setup.db, options.seed);
    setup.service->DeleteTriples(batches[0]);
    setup.service->IngestTriples(batches[0]);
    for (const auto& sub : setup.subscriptions) sub->TakeReports();
    setup_seconds.push_back(watch.ElapsedSeconds());
  }
  out.end_to_end["setup_s"] = Median(setup_seconds);
  sim::QueryService& service = *setup.service;
  const auto& subscriptions = setup.subscriptions;
  const auto base = service.CurrentSnapshot();
  std::map<uint64_t, int64_t> ledger = {{base->generation(), kBase}};
  const sim::QueryService::Stats before = service.stats();
  const sim::StandingStats standing_before = SumStats(subscriptions);

  // ---- Timed phase.
  std::atomic<bool> stop{false};
  std::vector<PublishSample> publishes;
  std::vector<Record> standing_records;
  size_t noop_publishes = 0;
  Stopwatch run;
  std::thread publisher([&] {
    uint64_t last_generation = base->generation();
    auto publish = [&](bool remove, size_t k) {
      const double maintained_before = SumStats(subscriptions).maintain_seconds;
      Stopwatch watch;
      uint64_t generation = 0;
      {
        Tracer::Scope span(tracer, "churn.publish", tracer.enabled() ? k : 0);
        generation = remove ? service.DeleteTriples(batches[k])
                            : service.IngestTriples(batches[k]);
      }
      const double seconds = watch.ElapsedSeconds();
      publishes.push_back(
          {seconds, SumStats(subscriptions).maintain_seconds - maintained_before});
      if (generation == last_generation) ++noop_publishes;
      last_generation = generation;
      ledger[generation] = remove ? static_cast<int64_t>(k) : kBase;
      for (size_t j = 0; j < subscriptions.size(); ++j) {
        for (const sim::PruneReport& report : subscriptions[j]->TakeReports()) {
          standing_records.push_back({j, report.snapshot_generation,
                                      Digest(report)});
        }
      }
    };
    for (size_t k = 1;
         k < batches.size() && run.ElapsedSeconds() < options.seconds; ++k) {
      publish(true, k);
      publish(false, k);
    }
    stop.store(true);
  });
  std::mutex reads_mutex;
  std::vector<ReadSample> read_samples;
  std::vector<std::thread> readers;
  std::atomic<size_t> next_cold{0};
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<ReadSample> local;
      // Each reader draws its own seeded sequence: readers walking one
      // shared order coalesce onto each other's in-flight queries and then
      // move in lockstep, serving as one.
      sparqlsim::util::Rng rng(options.seed * kReaders + r + 1);
      while (!stop.load()) {
        const size_t q =
            rng.NextBool(kHotReadShare)
                ? static_cast<size_t>(rng.NextBounded(hot_count))
                : hot_count + next_cold++ % kColdQueries;
        const uint64_t request = tracer.enabled() ? tracer.NewId() : 0;
        Tracer::Scope span(tracer, "churn.read", request);
        ReadSample sample;
        const int64_t start_ns = Tracer::NowNs();
        std::future<sim::PruneReport> future;
        {
          Tracer::Scope submit(tracer, "service.submit", request);
          future = service.Submit(reads[q].query);
        }
        const int64_t admitted_ns = Tracer::NowNs();
        sim::PruneReport report;
        {
          Tracer::Scope wait(tracer, "service.wait", request);
          report = future.get();
        }
        const int64_t done_ns = Tracer::NowNs();
        sample.seconds = static_cast<double>(done_ns - start_ns) * 1e-9;
        sample.done_at = run.ElapsedSeconds();
        sample.admit = static_cast<double>(admitted_ns - start_ns) * 1e-9;
        sample.queue = static_cast<double>(done_ns - admitted_ns) * 1e-9 -
                       report.total_seconds;
        sample.record = {q, report.snapshot_generation, Digest(report)};
        local.push_back(sample);
      }
      std::lock_guard<std::mutex> lock(reads_mutex);
      read_samples.insert(read_samples.end(), local.begin(), local.end());
    });
  }
  publisher.join();
  for (std::thread& t : readers) t.join();
  const double elapsed = run.ElapsedSeconds();
  service.Drain();
  const sim::QueryService::Stats after = service.stats();
  const sim::StandingStats standing_after = SumStats(subscriptions);
  out.end_to_end["peak_rss_mb"] = PeakRssMib();

  // ---- Gate (untimed): every read and standing report against a
  // sequential cache-free prune of the generation it pinned, rebuilt from
  // the base snapshot and the ledger.
  struct Needed {
    std::map<size_t, ReportDigest> reads, standing;
  };
  std::map<int64_t, Needed> needed;
  size_t unknown = 0;
  auto content_of = [&](uint64_t generation) -> std::optional<int64_t> {
    auto it = ledger.find(generation);
    if (it == ledger.end()) return std::nullopt;
    return it->second;
  };
  for (const ReadSample& s : read_samples) {
    if (auto c = content_of(s.record.generation)) {
      needed[*c].reads[s.record.query];
    } else {
      ++unknown;
    }
  }
  for (const Record& r : standing_records) {
    if (auto c = content_of(r.generation)) {
      needed[*c].standing[r.query];
    } else {
      ++unknown;
    }
  }
  std::vector<std::pair<const int64_t, Needed>*> contents;
  for (auto& entry : needed) contents.push_back(&entry);
  ParallelFor(contents.size(), kLoadThreads, [&](size_t i) {
    const int64_t content = contents[i]->first;
    std::shared_ptr<const graph::GraphDatabase> db = base;
    if (content != kBase) {
      db = std::make_shared<const graph::GraphDatabase>(
          base->WithTriplesRemoved(batches[static_cast<size_t>(content)]));
    }
    for (auto& [q, digest] : contents[i]->second.reads) {
      digest = Digest(ReferencePrune(*db, reads[q].query));
    }
    for (auto& [j, digest] : contents[i]->second.standing) {
      digest = Digest(ReferencePrune(*db, standing[j]));
    }
  });
  result.attempted = read_samples.size() + standing_records.size() +
                     publishes.size();
  result.failed = unknown + noop_publishes;
  std::vector<double> read_latencies, read_done;
  for (const ReadSample& s : read_samples) {
    auto c = content_of(s.record.generation);
    if (!c) continue;
    if (!Passes(s.record.digest, needed[*c].reads[s.record.query])) {
      ++result.failed;
      continue;
    }
    read_latencies.push_back(s.seconds);
    read_done.push_back(s.done_at);
  }
  for (const Record& r : standing_records) {
    auto c = content_of(r.generation);
    if (c && !Passes(r.digest, needed[*c].standing[r.query])) ++result.failed;
  }
  if (noop_publishes > 0) {
    result.notes.push_back(std::to_string(noop_publishes) +
                           " publishes kept the generation");
  }

  // ---- Metrics.
  const double read_qps = WindowedRate(read_done, elapsed, kRateWindowSeconds);
  out.end_to_end["throughput_qps"] = read_qps;
  result.Add(&result.detail, "churn_read_qps", read_qps, "1/s",
             read_latencies.size());
  std::vector<double> publish_seconds, maintain_seconds, own_seconds;
  for (const PublishSample& p : publishes) {
    publish_seconds.push_back(p.seconds);
    maintain_seconds.push_back(p.maintain_seconds);
    own_seconds.push_back(p.seconds - p.maintain_seconds);
  }
  // The latency a writer sees is the workload's latency: read latency is
  // bimodal (cache hits and misses), and its sub-millisecond hit median
  // spread by 29% between runs where the publish median spread by 4%.
  if (auto v = result.AddPercentile("churn_publish_s.p50", publish_seconds,
                                    0.5, "s")) {
    out.end_to_end["latency_s.p50"] = *v;
  }
  if (auto v = result.AddPercentile("churn_publish_s.p90", publish_seconds,
                                    0.9, "s")) {
    out.end_to_end["latency_s.tail"] = *v;
  }
  result.AddPercentile("churn_read_latency_s.p50", read_latencies, 0.5, "s");
  result.AddPercentile("churn_read_latency_s.p90", read_latencies, 0.9, "s");
  result.AddPercentile("churn_read_latency_s.p99", read_latencies, 0.99, "s");

  out.layers["graph.publish_s"] = Median(own_seconds);
  out.layers["standing.maintain_s"] = Median(maintain_seconds);
  out.layers["standing.maintained"] =
      static_cast<double>(standing_after.maintained - standing_before.maintained);
  out.layers["standing.recomputed"] =
      static_cast<double>(standing_after.recomputed - standing_before.recomputed);
  const double armed = static_cast<double>(standing_after.armed_ineqs -
                                           standing_before.armed_ineqs);
  const double total = static_cast<double>(standing_after.total_ineqs -
                                           standing_before.total_ineqs);
  out.layers["standing.armed_fraction"] = total > 0 ? armed / total : 0.0;
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
  out.layers["service.executed"] =
      static_cast<double>(after.executed - before.executed);
  out.layers["service.coalesced"] =
      static_cast<double>(after.coalesced - before.coalesced);
  out.layers["service.peak_in_flight"] =
      static_cast<double>(after.peak_in_flight);
  // Medians: a coalesced waiter's report carries the solve time of the
  // submission it joined, so its queue wait reads negative.
  std::vector<double> admits, queues;
  for (const ReadSample& s : read_samples) {
    admits.push_back(s.admit);
    queues.push_back(s.queue);
  }
  out.layers["service.admit_wait_s"] = Median(admits);
  out.layers["service.queue_wait_s"] = Median(queues);

  // ---- Traced run only: the per-query layer split of the reader set and
  // the standing queries on the base snapshot.
  if (tracer.enabled()) {
    sim::SolverOptions solver;
    solver.cache_capacity = 4;
    sim::SimEngine engine(base.get(), solver);
    SplitCounters counters;
    size_t uncached = 0;
    auto replay = [&](const sparql::Query& query, const std::string& text) {
      const uint64_t request = tracer.NewId();
      Tracer::Scope span(tracer, "replay.query", request);
      auto parsed = [&] {
        Tracer::Scope parse(tracer, "sparql.parse", request);
        return sparql::Parser::Parse(text);
      }();
      bool cache_answered = false;
      TracedPrune(engine, parsed.ok() ? parsed.value() : query, tracer, request,
                  &counters, &cache_answered);
      if (!cache_answered) ++uncached;
    };
    for (size_t q = 0; q < hot_count; ++q) replay(reads[q].query, reads[q].text);
    const auto lubm = sparqlsim::datagen::LubmQueries();
    for (size_t j = 0; j < standing.size(); ++j) replay(standing[j], lubm[j].text);
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
