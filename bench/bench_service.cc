// Throughput bench for the QueryService front end, two axes:
//
//  * worker sweep — a fixed mix of benchmark queries (with duplicates, so
//    dedup and the solution cache get real work) submitted concurrently at
//    1/2/4/... service workers;
//  * snapshot churn — readers racing a publisher that alternates triple
//    ingest and restriction, exercising MVCC snapshot pinning.
//
// Every report is checked bit-identical against a sequential, cache-free
// SimEngine::Prune of the same query — on the snapshot the query pinned,
// in the churn phase — the service must never trade correctness for
// throughput. Set SPARQLSIM_BENCH_JSON=<path> to archive numbers as JSON
// (tools/run_benches.sh does).
//
// Knobs: SPARQLSIM_SERVICE_QUERIES (mix size, default 48),
//        SPARQLSIM_SERVICE_QUEUE_DEPTH (default 16),
//        SPARQLSIM_SERVICE_CACHE_CAPACITY (default 32, 0 = unbounded),
//        SPARQLSIM_SERVICE_PUBLISHES (churn publications, default 8),
//        --db <file.gdb> / SPARQLSIM_DB for a real ingested database.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "sim/query_service.h"
#include "sim/sim_engine.h"
#include "sparql/normalize.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace sparqlsim {
namespace {

/// The submission mix: every parseable benchmark query, cycled until
/// `count` entries. Cycling guarantees duplicates once count exceeds the
/// distinct pool — the service's dedup/cache workload.
std::vector<sparql::Query> MakeMix(size_t count) {
  std::vector<sparql::Query> pool;
  for (const auto& [id, text] : datagen::BenchmarkQueries()) {
    sparql::Query q = bench::ParseOrDie(text);
    if (q.where->NumTriples() > 0) pool.push_back(std::move(q));
  }
  for (const auto& [id, text] : datagen::DbpediaQueries()) {
    sparql::Query q = bench::ParseOrDie(text);
    if (q.where->NumTriples() > 0) pool.push_back(std::move(q));
  }
  std::vector<sparql::Query> mix;
  mix.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    mix.push_back(pool[i % pool.size()].Clone());
  }
  return mix;
}

struct Sample {
  size_t workers = 0;
  double seconds = 0;
  double qps = 0;
  size_t executed = 0;
  size_t coalesced = 0;
  size_t solution_hits = 0;
  size_t lru_evictions = 0;
};

/// The snapshot-churn axis: readers hammer the mix while one publisher
/// alternates triple ingest and restriction. Reports are gated
/// bit-identical against a sequential solve on the exact snapshot each
/// query pinned.
struct ChurnSample {
  double seconds = 0;
  double qps = 0;
  size_t queries = 0;
  size_t publishes = 0;
  size_t generations_served = 0;
  size_t peak_snapshots_live = 0;
  size_t generation_evictions = 0;
};

std::vector<graph::Triple> RandomTriples(const graph::GraphDatabase& db,
                                         util::Rng& rng, size_t count) {
  std::vector<graph::Triple> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back({static_cast<uint32_t>(rng.NextBounded(db.NumNodes())),
                   static_cast<uint32_t>(rng.NextBounded(db.NumPredicates())),
                   static_cast<uint32_t>(rng.NextBounded(db.NumNodes()))});
  }
  return out;
}

ChurnSample RunChurnPhase(const graph::GraphDatabase& db,
                          const std::vector<sparql::Query>& mix,
                          size_t queue_depth, size_t cache_capacity) {
  sim::QueryServiceOptions options;
  options.num_workers = 4;
  options.queue_depth = queue_depth;
  options.cache_capacity = cache_capacity;
  sim::QueryService service(&db, options);

  // Version ledger: with a single publisher, CurrentSnapshot() right after
  // each publish is exactly the published version, so every generation a
  // reader can pin has a retained snapshot for the post-hoc gate.
  std::mutex ledger_mutex;
  std::unordered_map<uint64_t, std::shared_ptr<const graph::GraphDatabase>>
      ledger;
  ledger.emplace(service.CurrentGeneration(), service.CurrentSnapshot());

  const size_t publishes = bench::EnvSize("SPARQLSIM_SERVICE_PUBLISHES", 8);
  util::Stopwatch watch;
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    util::Rng rng(97);
    for (size_t round = 0; round < publishes; ++round) {
      if (round % 2 == 0) {
        service.IngestTriples(RandomTriples(db, rng, 20));
      } else {
        // Drop every 13th triple of the newest version.
        std::vector<graph::Triple> all =
            service.CurrentSnapshot()->AllTriples();
        std::vector<graph::Triple> kept;
        kept.reserve(all.size());
        for (size_t i = 0; i < all.size(); ++i) {
          if (i % 13 != 0) kept.push_back(all[i]);
        }
        service.ApplyRestrict(kept);
      }
      std::lock_guard<std::mutex> lock(ledger_mutex);
      ledger.emplace(service.CurrentGeneration(), service.CurrentSnapshot());
    }
    stop.store(true);
  });

  std::mutex results_mutex;
  std::vector<std::pair<size_t, sim::PruneReport>> results;
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      do {
        const size_t which = i % mix.size();
        sim::PruneReport report = service.Submit(mix[which]).get();
        std::lock_guard<std::mutex> lock(results_mutex);
        results.emplace_back(which, std::move(report));
        ++i;
      } while (!stop.load());
    });
  }
  publisher.join();
  for (std::thread& t : readers) t.join();
  service.Drain();
  const double seconds = watch.ElapsedSeconds();

  // Bit-identical gate, per pinned generation: one sequential cache-free
  // reference solve per (generation, pattern) actually served.
  sim::SolverOptions plain;
  plain.num_threads = 1;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  std::map<std::pair<uint64_t, std::string>, sim::PruneReport> reference;
  std::vector<uint64_t> generations_served;
  for (const auto& [which, report] : results) {
    auto snapshot = ledger.find(report.snapshot_generation);
    if (snapshot == ledger.end()) {
      std::fprintf(stderr, "FATAL: report pinned unknown generation %llu\n",
                   static_cast<unsigned long long>(report.snapshot_generation));
      std::abort();
    }
    generations_served.push_back(report.snapshot_generation);
    const std::string key = sparql::CanonicalPatternKey(*mix[which].where);
    auto ref = reference.find({report.snapshot_generation, key});
    if (ref == reference.end()) {
      sim::SimEngine engine(snapshot->second.get(), plain);
      ref = reference
                .emplace(std::make_pair(report.snapshot_generation, key),
                         engine.Prune(mix[which]))
                .first;
    }
    if (report.kept_triples != ref->second.kept_triples ||
        report.var_candidates != ref->second.var_candidates) {
      std::fprintf(stderr,
                   "FATAL: churn query %zu differs from sequential solve on "
                   "its pinned generation %llu\n",
                   which,
                   static_cast<unsigned long long>(report.snapshot_generation));
      std::abort();
    }
  }
  std::sort(generations_served.begin(), generations_served.end());
  generations_served.erase(
      std::unique(generations_served.begin(), generations_served.end()),
      generations_served.end());

  sim::QueryService::Stats stats = service.stats();
  ChurnSample churn;
  churn.seconds = seconds;
  churn.queries = results.size();
  churn.qps =
      seconds > 0 ? static_cast<double>(results.size()) / seconds : 0.0;
  churn.publishes = stats.snapshots_published;
  churn.generations_served = generations_served.size();
  churn.peak_snapshots_live = stats.peak_snapshots_live;
  churn.generation_evictions = stats.cache.generation_evictions;
  return churn;
}

int Run(int argc, char** argv) {
  std::printf("QueryService throughput (bounded admission + LRU cache)\n");
  std::optional<graph::GraphDatabase> override_db =
      bench::LoadDbOverride(argc, argv);
  graph::GraphDatabase db =
      override_db ? std::move(*override_db) : bench::MakeBenchDbpedia();

  const size_t count = bench::EnvSize("SPARQLSIM_SERVICE_QUERIES", 48);
  const size_t queue_depth =
      bench::EnvSize("SPARQLSIM_SERVICE_QUEUE_DEPTH", 16);
  const size_t cache_capacity =
      bench::EnvSize("SPARQLSIM_SERVICE_CACHE_CAPACITY", 32);
  std::vector<sparql::Query> mix = MakeMix(count);

  // Sequential ground truth, keyed by canonical pattern (the mix repeats
  // queries; one reference solve per distinct pattern).
  sim::SolverOptions plain;
  plain.num_threads = 1;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  sim::SimEngine reference_engine(&db, plain);
  std::map<std::string, sim::PruneReport> reference;
  for (const sparql::Query& q : mix) {
    std::string key = sparql::CanonicalPatternKey(*q.where);
    if (!reference.count(key)) {
      reference.emplace(key, reference_engine.Prune(q));
    }
  }

  std::vector<size_t> worker_counts = {1, 2, 4};
  size_t hw = util::ThreadPool::ResolveThreadCount(0);
  if (hw > 4) worker_counts.push_back(hw);

  std::printf("  mix: %zu submissions, %zu distinct patterns, queue depth "
              "%zu, cache capacity %zu\n",
              mix.size(), reference.size(), queue_depth, cache_capacity);
  std::printf("  %-8s %10s %10s %9s %10s %10s %9s\n", "workers",
              "time(s)", "q/s", "executed", "coalesced", "sol.hits",
              "lru.evict");

  auto run_sample = [&](size_t workers) {
    sim::QueryServiceOptions options;
    options.num_workers = workers;
    options.queue_depth = queue_depth;
    options.cache_capacity = cache_capacity;
    sim::QueryService service(&db, options);

    util::Stopwatch watch;
    std::vector<std::future<sim::PruneReport>> futures;
    futures.reserve(mix.size());
    for (const sparql::Query& q : mix) futures.push_back(service.Submit(q));
    std::vector<sim::PruneReport> reports;
    reports.reserve(mix.size());
    for (auto& f : futures) reports.push_back(f.get());
    double seconds = watch.ElapsedSeconds();

    // Correctness gate: concurrent == sequential, bit for bit — for any
    // worker count.
    for (size_t i = 0; i < mix.size(); ++i) {
      const sim::PruneReport& want =
          reference.at(sparql::CanonicalPatternKey(*mix[i].where));
      if (reports[i].kept_triples != want.kept_triples ||
          reports[i].var_candidates != want.var_candidates) {
        std::fprintf(stderr,
                     "FATAL: query %zu differs from sequential at %zu "
                     "workers\n",
                     i, workers);
        std::abort();
      }
    }

    sim::QueryService::Stats stats = service.stats();
    Sample s;
    s.workers = workers;
    s.seconds = seconds;
    s.qps = seconds > 0 ? static_cast<double>(mix.size()) / seconds : 0.0;
    s.executed = stats.executed;
    s.coalesced = stats.coalesced;
    s.solution_hits = stats.cache.solution_hits;
    s.lru_evictions =
        stats.cache.soi_evictions + stats.cache.solution_evictions;
    std::printf("  %-8zu %10.5f %10.1f %9zu %10zu %10zu %9zu\n", workers,
                seconds, s.qps, s.executed, s.coalesced, s.solution_hits,
                s.lru_evictions);
    return s;
  };

  std::vector<Sample> samples;
  for (size_t workers : worker_counts) samples.push_back(run_sample(workers));

  std::printf("  churn: queries racing ingest + restrict publications\n");
  ChurnSample churn = RunChurnPhase(db, mix, queue_depth, cache_capacity);
  std::printf("  %zu queries in %.5fs (%.1f q/s) across %zu publications, "
              "%zu generations served, peak %zu snapshots live, %zu cache "
              "generation evictions\n",
              churn.queries, churn.seconds, churn.qps, churn.publishes,
              churn.generations_served, churn.peak_snapshots_live,
              churn.generation_evictions);

  FILE* out = stdout;
  const char* json_path = std::getenv("SPARQLSIM_BENCH_JSON");
  if (json_path != nullptr) {
    out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  }
  std::fprintf(out, "{\n  \"bench\": \"service\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"mix\": {\"submissions\": %zu, \"distinct\": %zu, "
               "\"queue_depth\": %zu, \"cache_capacity\": %zu},\n",
               mix.size(), reference.size(), queue_depth, cache_capacity);
  std::fprintf(out, "  \"samples\": [");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "%s\n    {\"workers\": %zu, \"seconds\": %.6f, "
                 "\"qps\": %.2f, \"executed\": %zu, \"coalesced\": %zu, "
                 "\"solution_hits\": %zu, \"lru_evictions\": %zu}",
                 i == 0 ? "" : ",", s.workers, s.seconds, s.qps,
                 s.executed, s.coalesced, s.solution_hits, s.lru_evictions);
  }
  std::fprintf(out, "\n  ],\n");
  std::fprintf(out,
               "  \"churn\": {\"queries\": %zu, \"seconds\": %.6f, "
               "\"qps\": %.2f, \"publishes\": %zu, "
               "\"generations_served\": %zu, \"peak_snapshots_live\": %zu, "
               "\"generation_evictions\": %zu}\n}\n",
               churn.queries, churn.seconds, churn.qps, churn.publishes,
               churn.generations_served, churn.peak_snapshots_live,
               churn.generation_evictions);
  if (out != stdout) {
    std::fclose(out);
    std::fprintf(stderr, "[bench] JSON written to %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
