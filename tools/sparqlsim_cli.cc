// sparqlsim — command-line dual simulation processor for graph databases.
//
// Subcommands:
//   stats   <data.nt>                      database statistics
//   query   <data.nt> <query.rq|->        evaluate a SPARQL query exactly
//   prune   <data.nt> <query.rq|-> [out]  dual-simulation prune; optional
//                                          N-Triples dump of the kept set
//   sim     <data.nt> <query.rq|->        largest dual simulation per
//                                          variable (candidates only)
//   bench   <data.nt> <query.rq|->        compare SOI vs Ma et al. vs HHK
//   explain <data.nt> <query.rq|->        show both engines' query plans
//   convert <data.nt> <out.gdb>           convert to the binary format
//
// Options (anywhere on the command line):
//   --threads N   solver worker threads for sim/prune/bench; 0 = all
//                 hardware threads (the default). Results are bit-identical
//                 for every value.
//   --no-cache    disable the SimEngine SOI/solution caches (--cache
//                 re-enables; on by default).
//   --cache-capacity N  bound each cache layer to N entries (LRU
//                 eviction); 0 = unbounded (the default).
//   --deadline-ms N  per-query compute budget for sim/prune; an expired
//                 query stops at the next round boundary and reports a
//                 sound over-approximation (marked "truncated").
//   --priority P  admission class for sim/prune: high (default) or low
//                 (yields to waiting high-priority work).
//   --db FILE     read the database from a binary SQSIMDB file (as written
//                 by sparqlsim_ingest or `convert`) and drop the positional
//                 <data> argument: `sparqlsim --db lubm.gdb stats`.
//                 SQSIMDB2/3 files are mmap-ed and loaded lazily per
//                 predicate; an SQSIMDB3 dictionary is mapped, so only
//                 the query's constants are looked up.
//   --resident-mb M  resident-byte budget in MiB for lazily opened
//                 SQSIMDB2/3 databases (0 = unbounded, the default;
//                 SPARQLSIM_RESIDENT_MB sets the same knob from the
//                 environment, the flag wins).
//
// --deadline-ms/--priority route sim/prune through a sim::QueryService (the
// serving layer), whose admission and snapshot statistics print afterwards.
//
// Databases load from N-Triples (.nt) or the binary format (.gdb).
// Queries are read from a file or stdin ("-"). Example:
//   echo 'SELECT * WHERE { ?d <directed> ?m . }' | sparqlsim query movie.nt -

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine/evaluator.h"
#include "engine/explain.h"
#include "graph/binary_io.h"
#include "graph/graph_database.h"
#include "graph/ntriples.h"
#include "sim/hhk_baseline.h"
#include "sim/ma_baseline.h"
#include "sim/query_service.h"
#include "sim/sim_engine.h"
#include "sparql/ast.h"
#include "sparql/parser.h"
#include "sparql/printer.h"
#include "tool_common.h"
#include "util/stopwatch.h"

namespace sparqlsim {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sparqlsim [--threads N] [--cache|--no-cache] "
               "[--cache-capacity N] "
               "[--deadline-ms N] [--priority high|low] "
               "[--db file.gdb] [--resident-mb M] "
               "<stats|query|prune|sim|bench|explain|convert> "
               "[data.nt] [query.rq|-] [out.nt]\n"
               "       (the positional data argument is omitted when "
               "--db is given)\n");
  return 2;
}

using tools::LoadDatabase;

bool ReadQuery(const char* path, sparql::Query* query) {
  std::string text;
  if (std::strcmp(path, "-") == 0) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open query file %s\n", path);
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  auto parsed = sparql::Parser::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.error_message().c_str());
    return false;
  }
  *query = std::move(parsed).value();
  return true;
}

int CmdStats(const graph::GraphDatabase& db) {
  std::printf("nodes:      %zu\n", db.NumNodes());
  std::printf("predicates: %zu\n", db.NumPredicates());
  std::printf("triples:    %zu\n", db.NumTriples());
  std::printf("matrices:   %.2f MB CSR, %.2f MB gap-encoded\n",
              db.ApproxMatrixBytes() / 1e6, db.GapEncodedMatrixBytes() / 1e6);
  std::printf("\n%-40s %10s %10s %10s\n", "predicate", "triples", "subjects",
              "objects");
  for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
    const std::string_view name = db.predicates().Name(p);
    std::printf("%-40.*s %10zu %10zu %10zu\n", static_cast<int>(name.size()),
                name.data(), db.PredicateCardinality(p),
                db.DistinctSubjects(p), db.DistinctObjects(p));
  }
  return 0;
}

int CmdQuery(const graph::GraphDatabase& db, const sparql::Query& query) {
  engine::Evaluator evaluator(&db);
  engine::EvalStats stats;
  engine::SolutionSet rows = evaluator.Evaluate(query, &stats);
  std::printf("%s", rows.ToString(db, 50).c_str());
  std::fprintf(stderr, "%zu rows in %.4fs (%zu intermediate rows)\n",
               rows.NumRows(), stats.seconds, stats.intermediate_rows);
  return 0;
}

int PrintSim(const graph::GraphDatabase& db, const sim::PruneReport& report) {
  for (const auto& [var, candidates] : report.var_candidates) {
    std::printf("?%s: %zu candidates\n", var.c_str(), candidates.Count());
    size_t shown = 0;
    candidates.ForEachSetBit([&](uint32_t node) {
      if (shown++ < 10) {
        const std::string_view name = db.nodes().Name(node);
        std::printf("  %.*s\n", static_cast<int>(name.size()), name.data());
      }
    });
    if (shown > 10) std::printf("  ... (%zu more)\n", shown - 10);
  }
  std::fprintf(stderr, "solved in %.4fs (%zu rounds, %zu branches)%s\n",
               report.total_seconds, report.stats.rounds, report.num_branches,
               report.truncated ? " [truncated: deadline expired; candidate "
                                  "sets are a sound over-approximation]"
                                : "");
  return 0;
}

int PrintPrune(const graph::GraphDatabase& db, const sim::PruneReport& report,
               const char* out_path) {
  std::printf("kept %zu of %zu triples (%.3f%%) in %.4fs%s\n",
              report.kept_triples.size(), db.NumTriples(),
              100.0 * static_cast<double>(report.kept_triples.size()) /
                  static_cast<double>(std::max<size_t>(1, db.NumTriples())),
              report.total_seconds,
              report.truncated ? " [truncated: superset of the exact prune]"
                               : "");
  if (out_path != nullptr) {
    graph::GraphDatabase pruned = db.Restrict(report.kept_triples);
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    graph::NTriples::Write(pruned, out);
    std::fprintf(stderr, "pruned database written to %s\n", out_path);
  }
  return 0;
}

void PrintServiceStats(const sim::QueryService::Stats& stats) {
  auto mean_wait = [](const util::AdmissionGate::ClassStats& cls) {
    return cls.blocked == 0 ? 0.0 : cls.wait_seconds / cls.blocked;
  };
  std::fprintf(stderr,
               "service: admission high %zu admitted / %zu blocked "
               "(mean wait %.4fs), low %zu admitted / %zu blocked "
               "(mean wait %.4fs)\n",
               stats.gate.high.admitted, stats.gate.high.blocked,
               mean_wait(stats.gate.high), stats.gate.low.admitted,
               stats.gate.low.blocked, mean_wait(stats.gate.low));
  std::fprintf(stderr,
               "service: snapshots %zu live (peak %zu), %zu published, "
               "%zu deadline-truncated\n",
               stats.snapshots_live, stats.peak_snapshots_live,
               stats.snapshots_published, stats.deadline_truncated);
}

int CmdBench(const sim::SimEngine& engine, const sparql::Query& query) {
  const graph::GraphDatabase& db = engine.db();
  if (!query.where->IsBgp()) {
    std::fprintf(stderr, "bench requires a plain BGP query\n");
    return 1;
  }

  util::Stopwatch watch;
  sim::Solution soi = engine.SolvePattern(*query.where);
  double t_soi = watch.ElapsedSeconds();

  std::vector<sparql::Term> node_terms;
  std::vector<std::string> label_names;
  graph::Graph raw =
      sparql::BgpToGraph(query.where->triples(), &node_terms, &label_names);
  graph::Graph pattern(raw.NumNodes());
  for (const graph::LabeledEdge& e : raw.edges()) {
    auto id = db.predicates().Lookup(label_names[e.label]);
    pattern.AddEdge(e.from, id ? *id : sim::kEmptyPredicate, e.to);
  }
  std::vector<std::optional<uint32_t>> constants(raw.NumNodes());
  for (size_t v = 0; v < node_terms.size(); ++v) {
    if (node_terms[v].IsConstant()) {
      constants[v] = db.nodes().Lookup(node_terms[v].text()).value_or(0);
    }
  }

  watch.Restart();
  sim::Solution ma = sim::MaDualSimulation(pattern, db, constants);
  double t_ma = watch.ElapsedSeconds();
  watch.Restart();
  sim::Solution hhk = sim::HhkDualSimulation(pattern, db, constants);
  double t_hhk = watch.ElapsedSeconds();

  std::printf("SOI solver:  %10.5fs  (%zu rounds, relation %zu)\n", t_soi,
              soi.stats.rounds, soi.RelationSize());
  std::printf("Ma et al.:   %10.5fs  (%zu sweeps, relation %zu)\n", t_ma,
              ma.stats.rounds, ma.RelationSize());
  std::printf("HHK-style:   %10.5fs  (relation %zu)\n", t_hhk,
              hhk.RelationSize());
  return 0;
}

int Run(int argc, char** argv) {
  // Peel off --threads/--cache options (anywhere); the rest stays
  // positional: <command> <data> [query] [out].
  sim::SolverOptions options;
  options.num_threads = 0;  // CLI default: all hardware threads
  const char* db_path = nullptr;
  size_t resident_mb = tools::kResidentMbFromEnv;
  size_t deadline_ms = 0;  // 0 = no deadline
  auto priority = util::AdmissionGate::Priority::kHigh;
  bool use_service = false;  // --deadline-ms/--priority route via the service
  std::vector<const char*> args;
  auto parse_deadline = [&](const char* text) {
    if (!tools::ParseSize(text, "--deadline-ms", &deadline_ms)) return false;
    use_service = true;
    return true;
  };
  auto parse_priority = [&](const char* text) {
    if (std::strcmp(text, "high") == 0) {
      priority = util::AdmissionGate::Priority::kHigh;
    } else if (std::strcmp(text, "low") == 0) {
      priority = util::AdmissionGate::Priority::kLow;
    } else {
      std::fprintf(stderr,
                   "invalid --priority value '%s' (expected high|low)\n",
                   text);
      return false;
    }
    use_service = true;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc ||
          !tools::ParseSize(argv[++i], "--threads", &options.num_threads)) {
        return Usage();
      }
      continue;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      if (!tools::ParseSize(argv[i] + 10, "--threads", &options.num_threads)) {
        return Usage();
      }
      continue;
    }
    if (std::strcmp(argv[i], "--db") == 0) {
      if (i + 1 >= argc) return Usage();
      db_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--db=", 5) == 0) {
      db_path = argv[i] + 5;
      continue;
    }
    if (std::strcmp(argv[i], "--resident-mb") == 0) {
      if (i + 1 >= argc ||
          !tools::ParseSize(argv[++i], "--resident-mb", &resident_mb, 20)) {
        return Usage();
      }
      continue;
    }
    if (std::strncmp(argv[i], "--resident-mb=", 14) == 0) {
      if (!tools::ParseSize(argv[i] + 14, "--resident-mb", &resident_mb, 20)) {
        return Usage();
      }
      continue;
    }
    if (std::strcmp(argv[i], "--cache-capacity") == 0) {
      if (i + 1 >= argc || !tools::ParseSize(argv[++i], "--cache-capacity",
                                             &options.cache_capacity)) {
        return Usage();
      }
      continue;
    }
    if (std::strncmp(argv[i], "--cache-capacity=", 17) == 0) {
      if (!tools::ParseSize(argv[i] + 17, "--cache-capacity",
                            &options.cache_capacity)) {
        return Usage();
      }
      continue;
    }
    if (std::strcmp(argv[i], "--cache") == 0) {
      options.cache_sois = options.cache_solutions = true;
      continue;
    }
    if (std::strcmp(argv[i], "--no-cache") == 0) {
      options.cache_sois = options.cache_solutions = false;
      continue;
    }
    if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (i + 1 >= argc || !parse_deadline(argv[++i])) return Usage();
      continue;
    }
    if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      if (!parse_deadline(argv[i] + 14)) return Usage();
      continue;
    }
    if (std::strcmp(argv[i], "--priority") == 0) {
      if (i + 1 >= argc || !parse_priority(argv[++i])) return Usage();
      continue;
    }
    if (std::strncmp(argv[i], "--priority=", 11) == 0) {
      if (!parse_priority(argv[i] + 11)) return Usage();
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return Usage();
    }
    args.push_back(argv[i]);
  }

  if (args.empty()) return Usage();
  const char* command = args[0];

  // With --db the database comes from the flag and every positional after
  // the command shifts left by one.
  std::optional<graph::GraphDatabase> loaded;
  size_t next = 1;
  if (db_path != nullptr) {
    loaded = LoadDatabase(db_path, /*force_binary=*/true, resident_mb);
  } else {
    if (args.size() < 2) return Usage();
    loaded = LoadDatabase(args[1], /*force_binary=*/false, resident_mb);
    next = 2;
  }
  if (!loaded) return 1;
  const graph::GraphDatabase& db = *loaded;

  if (std::strcmp(command, "stats") == 0) return CmdStats(db);
  if (std::strcmp(command, "convert") == 0) {
    if (args.size() < next + 1) return Usage();
    util::Status status = graph::BinaryIo::SaveFile(db, args[next]);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return 1;
    }
    std::fprintf(stderr, "written %s\n", args[next]);
    return 0;
  }

  if (args.size() < next + 1) return Usage();
  sparql::Query query;
  if (!ReadQuery(args[next], &query)) return 1;

  if (std::strcmp(command, "query") == 0) return CmdQuery(db, query);

  const bool is_sim = std::strcmp(command, "sim") == 0;
  const bool is_prune = std::strcmp(command, "prune") == 0;
  if (is_sim || is_prune) {
    sim::PruneReport report;
    if (use_service) {
      // Serving-layer path: admission class and deadline are service
      // concepts, so the query goes through a (single-slot) QueryService.
      sim::QueryServiceOptions service_options;
      service_options.num_workers = 1;
      service_options.queue_depth = 1;
      service_options.solver = options;
      sim::QueryService service(&db, service_options);
      sim::SubmitOptions submit;
      submit.priority = priority;
      if (deadline_ms > 0) {
        submit.deadline = std::chrono::milliseconds(deadline_ms);
      }
      report = service.Submit(query, submit).get();
      service.Drain();
      PrintServiceStats(service.stats());
    } else {
      sim::SimEngine engine(&db, options);
      report = engine.Prune(query);
    }
    if (is_sim) return PrintSim(db, report);
    return PrintPrune(db, report,
                      args.size() > next + 1 ? args[next + 1] : nullptr);
  }

  sim::SimEngine engine(&db, options);
  if (std::strcmp(command, "bench") == 0) return CmdBench(engine, query);
  if (std::strcmp(command, "explain") == 0) {
    std::printf("%s",
                engine::ExplainQuery(
                    query, db, {engine::JoinOrderPolicy::kRdfoxLike})
                    .c_str());
    std::printf("---\n%s",
                engine::ExplainQuery(
                    query, db, {engine::JoinOrderPolicy::kVirtuosoLike})
                    .c_str());
    return 0;
  }
  return Usage();
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
