// cold-prune: one closed-loop client runs what
//   sparqlsim_cli --db lubm20.gdb prune q.rq out
// does, once per query, cycling through L0-L5: BinaryIo::LoadFile of the
// SQSIMDB2 file written at set-up, parse, SimEngine::Prune with the CLI's
// default options, GraphDatabase::Restrict, NTriples::Write to a sink that
// discards the bytes. The service layer is bypassed.
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <streambuf>

#include "datagen/queries.h"
#include "gate.h"
#include "graph/binary_io.h"
#include "graph/ntriples.h"
#include "host.h"
#include "sparql/parser.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace perfbench {

namespace graph = sparqlsim::graph;
namespace sim = sparqlsim::sim;
namespace sparql = sparqlsim::sparql;
using sparqlsim::util::Stopwatch;

namespace {

/// An output sink that counts and discards.
class CountingBuf : public std::streambuf {
 public:
  size_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<size_t>(n);
    return n;
  }

 private:
  size_t bytes_ = 0;
};

size_t WrittenBytes(const graph::GraphDatabase& db) {
  CountingBuf sink;
  std::ostream out(&sink);
  graph::NTriples::Write(db, out);
  return sink.bytes();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Predicate ids a query reads (constant predicates of every triple
/// pattern), for the traced materialization step.
void CollectPredicates(const sparql::Pattern& p, const graph::GraphDatabase& db,
                       std::set<uint32_t>* out) {
  if (p.IsBgp()) {
    for (const auto& t : p.triples()) {
      if (auto id = db.predicates().Lookup(t.predicate.text())) out->insert(*id);
    }
    return;
  }
  CollectPredicates(p.left(), db, out);
  CollectPredicates(p.right(), db, out);
}

struct ColdOp {
  size_t query = 0;
  double seconds = 0.0;
  bool ok = false;
  ReportDigest digest;
  size_t bytes = 0;
};

struct ColdTraceCounters {
  SplitCounters split;
  size_t materializations = 0;
  size_t uncached_extracts = 0;
};

ColdOp RunColdQuery(const std::string& gdb_path, const std::string& query_path,
                    size_t query_index, Tracer& tracer,
                    ColdTraceCounters* counters) {
  ColdOp op;
  op.query = query_index;
  const uint64_t request = tracer.enabled() ? tracer.NewId() : 0;
  Stopwatch watch;
  sim::PruneReport report;  // outlives the timed block, digested after it
  {
    Tracer::Scope root(tracer, "cold.query", request);
    std::optional<graph::GraphDatabase> db;
    {
      Tracer::Scope span(tracer, "graph.open", request);
      auto loaded = graph::BinaryIo::LoadFile(gdb_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "cold-prune: %s\n", loaded.error_message().c_str());
        return op;
      }
      db.emplace(std::move(loaded).value());
    }
    auto parsed = [&] {
      std::string text = ReadFile(query_path);
      Tracer::Scope span(tracer, "sparql.parse", request);
      return sparql::Parser::Parse(text);
    }();
    if (!parsed.ok()) {
      std::fprintf(stderr, "cold-prune: %s\n", parsed.error_message().c_str());
      return op;
    }
    const sparql::Query& query = parsed.value();

    sim::SolverOptions options;
    options.num_threads = 0;  // sparqlsim_cli's default: all hardware threads
    std::optional<sim::SimEngine> engine;
    engine.emplace(&*db, options);
    std::optional<graph::ResidencyPin> pin;
    if (tracer.enabled()) {
      pin.emplace(db->PinResidency());
      {
        Tracer::Scope span(tracer, "graph.materialize", request);
        std::set<uint32_t> predicates;
        CollectPredicates(*query.where, *db, &predicates);
        for (uint32_t p : predicates) {
          db->Forward(p);
          db->Backward(p);
        }
      }
      counters->materializations += db->backing_stats().materializations;
      bool cache_answered = false;
      report = TracedPrune(*engine, query, tracer, request, &counters->split,
                           &cache_answered);
      if (!cache_answered) ++counters->uncached_extracts;
    } else {
      report = engine->Prune(query);
    }
    std::optional<graph::GraphDatabase> pruned;
    {
      Tracer::Scope span(tracer, "graph.restrict", request);
      pruned.emplace(db->Restrict(report.kept_triples));
    }
    CountingBuf sink;
    {
      Tracer::Scope span(tracer, "graph.write", request);
      std::ostream out(&sink);
      graph::NTriples::Write(*pruned, out);
    }
    op.bytes = sink.bytes();
    // What the CLI pays on exit: the engine's pool joins, the pruned and
    // the opened databases are freed and unmapped.
    Tracer::Scope span(tracer, "graph.release", request);
    engine.reset();
    pin.reset();
    pruned.reset();
    db.reset();
  }
  op.seconds = watch.ElapsedSeconds();
  op.ok = true;
  op.digest = Digest(report);
  return op;
}

}  // namespace

WorkloadOutput RunColdPrune(const BenchOptions& options, Tracer& tracer) {
  WorkloadOutput out;
  RunResult& result = out.result;
  const std::string gdb_path = options.out_dir + "/lubm20.gdb";
  const std::vector<sparqlsim::datagen::NamedQuery> queries =
      sparqlsim::datagen::LubmQueries();

  // ---- Set-up: generate LUBM(20), write it as SQSIMDB2, write the queries.
  std::vector<double> setup_seconds;
  std::optional<graph::GraphDatabase> db;
  std::vector<std::string> query_paths;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    db.reset();
    query_paths.clear();
    Stopwatch watch;
    db.emplace(MakeLubm20());
    auto status = graph::BinaryIo::SaveV2File(*db, gdb_path, kLoadThreads);
    if (!status.ok()) {
      std::fprintf(stderr, "cold-prune: %s\n", status.message().c_str());
      result.correct = false;
      return out;
    }
    for (const auto& q : queries) {
      query_paths.push_back(options.out_dir + "/" + q.id + ".rq");
      std::ofstream(query_paths.back(), std::ios::trunc) << q.text << "\n";
    }
    setup_seconds.push_back(watch.ElapsedSeconds());
  }
  out.end_to_end["setup_s"] = Median(setup_seconds);

  // ---- Timed phase: L0, L1, ..., L5, L0, ... until the time is up.
  std::vector<ColdOp> ops;
  ColdTraceCounters counters;
  Stopwatch run;
  while (run.ElapsedSeconds() < options.seconds) {
    const size_t q = ops.size() % queries.size();
    ops.push_back(RunColdQuery(gdb_path, query_paths[q], q, tracer, &counters));
  }
  const double elapsed = run.ElapsedSeconds();
  out.end_to_end["peak_rss_mb"] = PeakRssMib();

  // ---- Gate (untimed): each report against a sequential cache-free prune
  // of the same query on the same data, and the written byte count
  // against the reference's restricted database.
  std::vector<ReportDigest> want(queries.size());
  std::vector<size_t> want_bytes(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto parsed = sparql::Parser::Parse(queries[q].text);
    sim::PruneReport ref = ReferencePrune(*db, parsed.value());
    want[q] = Digest(ref);
    want_bytes[q] = WrittenBytes(db->Restrict(ref.kept_triples));
  }
  std::vector<double> latencies;
  for (const ColdOp& op : ops) {
    ++result.attempted;
    if (!op.ok || !Passes(op.digest, want[op.query]) ||
        op.bytes != want_bytes[op.query]) {
      ++result.failed;
      continue;
    }
    latencies.push_back(op.seconds);
  }
  if (tracer.enabled() && counters.uncached_extracts > 0) {
    result.notes.push_back("sim.extract ran uncached on " +
                           std::to_string(counters.uncached_extracts) +
                           " queries");
    result.correct = false;
  }
  std::remove(gdb_path.c_str());

  const double completed = static_cast<double>(latencies.size());
  out.end_to_end["throughput_qps"] = elapsed > 0 ? completed / elapsed : 0.0;
  result.Add(&result.detail, "cold_queries", completed, "count");
  result.Add(&result.detail, "cold_qps", out.end_to_end["throughput_qps"], "1/s",
             latencies.size());
  if (auto p50 = result.AddPercentile("cold_query_s.p50", latencies, 0.5, "s")) {
    out.end_to_end["latency_s.p50"] = *p50;
  }
  // A run holds ~30 cold queries: 10 lie beyond p60, not beyond p90.
  if (auto tail = result.AddPercentile("cold_query_s.p60", latencies, 0.6, "s")) {
    out.end_to_end["latency_s.tail"] = *tail;
  }
  result.AddPercentile("cold_query_s.p90", latencies, 0.9, "s");
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<double> per_query;
    for (const ColdOp& op : ops) {
      if (op.query == q && op.ok) per_query.push_back(op.seconds);
    }
    if (!per_query.empty()) {
      result.Add(&result.detail, "cold_query_s." + queries[q].id + ".median",
                 Median(per_query), "s", per_query.size());
    }
  }

  if (tracer.enabled()) {
    const auto spans = SummarizeSpans(tracer.Spans());
    for (const char* name : {"graph.open", "graph.materialize", "graph.restrict",
                             "graph.write"}) {
      out.layers[std::string(name) + "_s"] = MedianSpan(spans, name);
    }
    const double n = static_cast<double>(ops.size());
    out.layers["graph.materializations"] =
        static_cast<double>(counters.materializations) / n;
    double bytes = 0;
    for (const ColdOp& op : ops) bytes += static_cast<double>(op.bytes);
    out.layers["graph.bytes_written"] = bytes / n;
    AddSplitLayers(spans, counters.split, &out.layers);
    // Each layer's share of a cold query: its self time over the root's.
    auto root = spans.find("cold.query");
    if (root != spans.end() && root->second.total_s > 0) {
      for (const auto& [name, totals] : spans) {
        result.Add(&result.detail, "share." + name,
                   totals.self_s / root->second.total_s, "ratio",
                   totals.count);
      }
    }
  }
  return out;
}

}  // namespace perfbench
