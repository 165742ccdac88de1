// Shared helpers for the table/figure reproduction benches: dataset
// construction scaled by environment variables, query parsing, and the
// BGP -> pattern-graph conversion the baseline algorithms consume.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "datagen/dbpedia.h"
#include "datagen/lubm.h"
#include "datagen/queries.h"
#include "graph/binary_io.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "sim/soi.h"
#include "sparql/ast.h"
#include "sparql/parser.h"
#include "tools/tool_common.h"
#include "util/stopwatch.h"

namespace sparqlsim::bench {

/// Environment knobs so every bench can be scaled without recompiling:
///   SPARQLSIM_LUBM_UNIVERSITIES (default 6)
///   SPARQLSIM_DBPEDIA_SCALE     (default 2)
///   SPARQLSIM_BENCH_REPS        (default 3)
/// A value is parsed as the tools parse numeric flags (tools::ParseSize:
/// plain decimal digits); a malformed one exits with status 2 after a
/// diagnostic instead of running with a garbage scale.
inline size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  size_t parsed = 0;
  if (!tools::ParseSize(value, name, &parsed)) std::exit(2);
  return parsed;
}

/// SPARQLSIM_BENCH_REPS (default 3). Zero would average over no samples
/// and print inf/nan, so it exits with status 2 as a malformed value does.
inline size_t BenchReps() {
  const size_t reps = EnvSize("SPARQLSIM_BENCH_REPS", 3);
  if (reps == 0) {
    std::fprintf(stderr, "SPARQLSIM_BENCH_REPS must be at least 1\n");
    std::exit(2);
  }
  return reps;
}

/// Database override for running the paper's tables on *real* ingested
/// data: `bench_* --db <file.gdb>` (or SPARQLSIM_DB=<file.gdb>) loads a
/// binary database written by `sparqlsim_ingest` and the bench uses it in
/// place of the synthetic generators. Returns nullopt when no override is
/// given; aborts with a diagnostic when the file cannot be loaded.
inline std::optional<graph::GraphDatabase> LoadDbOverride(int argc,
                                                          char** argv) {
  const char* path = std::getenv("SPARQLSIM_DB");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--db") == 0) {
      if (i + 1 >= argc) {
        // Falling back to synthetic data here would masquerade as a
        // real-database run; fail loudly instead.
        std::fprintf(stderr, "[bench] --db needs a value\n");
        std::abort();
      }
      path = argv[i + 1];
    } else if (std::strncmp(argv[i], "--db=", 5) == 0) {
      path = argv[i] + 5;
    }
  }
  if (path == nullptr) return std::nullopt;
  std::fprintf(stderr, "[bench] loading database %s ...\n", path);
  // SQSIMDB2/3 files open lazily; SPARQLSIM_RESIDENT_MB bounds their
  // resident matrix bytes (0/unset = unbounded), parsed as the tools do.
  size_t resident_mb = tools::kResidentMbFromEnv;
  if (!tools::ResolveResidentMb(&resident_mb)) std::exit(2);
  graph::BinaryIo::LoadOptions load_options;
  load_options.resident_budget_bytes = resident_mb << 20;
  auto loaded = graph::BinaryIo::LoadFile(path, load_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "[bench] cannot load %s: %s\n", path,
                 loaded.error_message().c_str());
    std::abort();
  }
  graph::GraphDatabase db = std::move(loaded).value();
  std::fprintf(stderr, "[bench] db: %zu triples, %zu nodes, %zu preds\n",
               db.NumTriples(), db.NumNodes(), db.NumPredicates());
  return db;
}

inline graph::GraphDatabase MakeBenchLubm() {
  datagen::LubmConfig config;
  config.num_universities = EnvSize("SPARQLSIM_LUBM_UNIVERSITIES", 6);
  config.seed = 42;
  std::fprintf(stderr, "[bench] generating LUBM(%zu)...\n",
               config.num_universities);
  graph::GraphDatabase db = datagen::MakeLubmDatabase(config);
  std::fprintf(stderr, "[bench] LUBM: %zu triples, %zu nodes, %zu preds\n",
               db.NumTriples(), db.NumNodes(), db.NumPredicates());
  return db;
}

inline graph::GraphDatabase MakeBenchDbpedia() {
  datagen::DbpediaConfig config;
  config.scale = EnvSize("SPARQLSIM_DBPEDIA_SCALE", 2);
  config.seed = 7;
  std::fprintf(stderr, "[bench] generating DBpedia-like(scale=%zu)...\n",
               config.scale);
  graph::GraphDatabase db = datagen::MakeDbpediaDatabase(config);
  std::fprintf(stderr, "[bench] DBpedia: %zu triples, %zu nodes, %zu preds\n",
               db.NumTriples(), db.NumNodes(), db.NumPredicates());
  return db;
}

inline sparql::Query ParseOrDie(const std::string& text) {
  auto r = sparql::Parser::Parse(text);
  if (!r.ok()) {
    std::fprintf(stderr, "query parse error: %s\n%s\n",
                 r.error_message().c_str(), text.c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// Converts a BGP to the pure pattern-graph form consumed by the baseline
/// algorithms: labels are database predicate ids (kEmptyPredicate when the
/// predicate is absent) and constant terms become pinned nodes.
struct PatternWithConstants {
  graph::Graph pattern;
  std::vector<std::optional<uint32_t>> constants;
  /// False iff some constant term is absent from the database, in which
  /// case the largest dual simulation is empty without running anything.
  bool satisfiable = true;
};

inline PatternWithConstants BgpToDataPattern(
    const std::vector<sparql::TriplePattern>& bgp,
    const graph::GraphDatabase& db) {
  std::vector<sparql::Term> node_terms;
  std::vector<std::string> label_names;
  graph::Graph raw = sparql::BgpToGraph(bgp, &node_terms, &label_names);

  PatternWithConstants out;
  out.pattern = graph::Graph(raw.NumNodes());
  std::vector<uint32_t> label_map(label_names.size());
  for (size_t i = 0; i < label_names.size(); ++i) {
    auto id = db.predicates().Lookup(label_names[i]);
    label_map[i] = id ? *id : sim::kEmptyPredicate;
  }
  for (const graph::LabeledEdge& e : raw.edges()) {
    out.pattern.AddEdge(e.from, label_map[e.label], e.to);
  }
  out.constants.resize(raw.NumNodes());
  for (size_t v = 0; v < node_terms.size(); ++v) {
    if (node_terms[v].IsVariable()) continue;
    auto id = db.nodes().Lookup(node_terms[v].text());
    if (id) {
      out.constants[v] = *id;
    } else {
      out.satisfiable = false;  // unknown constant: no match possible
    }
  }
  return out;
}

/// Runs fn `reps` times and returns the average seconds.
inline double TimeAverage(const std::function<void()>& fn, size_t reps = 0) {
  if (reps == 0) reps = BenchReps();
  util::Stopwatch watch;
  for (size_t i = 0; i < reps; ++i) fn();
  return watch.ElapsedSeconds() / static_cast<double>(reps);
}

inline void PrintRule(size_t width) {
  for (size_t i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

}  // namespace sparqlsim::bench
