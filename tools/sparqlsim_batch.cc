// sparqlsim_batch — concurrent batch front end over sim::QueryService.
//
// Reads a query file (queries separated by blank lines; '#' starts a
// comment line), submits every query to a QueryService at once, and prints
// per-query timing plus the service's queue/dedup/cache statistics. This is
// the command-line face of the async serving layer: admission is bounded
// (--queue-depth), in-flight duplicates coalesce, and the SOI/solution
// cache is a capacity-bounded LRU (--cache-capacity).
//
// Usage:
//   sparqlsim_batch [options] <data.nt> <queries.rq>
//   sparqlsim_batch [options] --db file.gdb <queries.rq>
//
// Options:
//   --threads N         service worker threads (0 = all hardware, default)
//   --queue-depth N     max queries in flight before Submit blocks (def. 64)
//   --cache-capacity N  LRU entry bound per cache layer (0 = unbounded)
//   --cache|--no-cache  toggle the SOI/solution cache (on by default)
//   --deadline-ms N     per-query compute budget; expired queries return a
//                       sound over-approximation marked "truncated"
//   --priority high|low default admission class for untagged queries
//   --repeat K          submit the whole file K times (default 1); repeats
//                       exercise dedup + the solution cache
//   --db FILE           read the database from binary SQSIMDB1 format
//   --subscribe         register every query as a *standing query* instead
//                       of submitting it once: each publication re-converges
//                       the stored solution incrementally (sim::StandingQuery)
//                       and emits a report per subscription per generation
//   --deltas FILE       update stream for --subscribe: lines
//                         + <subject> <predicate> <object>
//                         - <subject> <predicate> <object>
//                       with whitespace-separated dictionary names ('#'
//                       comments); a blank line applies the accumulated
//                       batch (deletes first, then inserts). Names not in
//                       the database's dictionaries warn and are skipped
//                       (the node/predicate universe is pinned).
//
// A query block may be tagged with a line that is exactly `!high` or
// `!low`: that block admits under the tagged class, overriding --priority.
// Low-priority blocks yield admission slots to waiting high-priority ones
// (see util::AdmissionGate), which the per-class wait statistics printed
// after the batch make visible.
//
// Example:
//   printf 'SELECT * WHERE { ?d <directed> ?m . }\n' > q.rq
//   sparqlsim_batch --queue-depth 8 --cache-capacity 64 movie.nt q.rq

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_database.h"
#include "sim/query_service.h"
#include "sparql/parser.h"
#include "tool_common.h"
#include "util/admission_gate.h"
#include "util/stopwatch.h"

namespace sparqlsim {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: sparqlsim_batch [--threads N] [--queue-depth N]\n"
      "                       [--cache-capacity N] [--cache|--no-cache]\n"
      "                       [--deadline-ms N] [--priority high|low]\n"
      "                       [--repeat K] [--db file.gdb] "
      "[--resident-mb M]\n"
      "                       [--subscribe [--deltas updates.txt]] [data.nt] "
      "<queries.rq>\n"
      "       query file: one query per blank-line-separated block, "
      "'#' comments,\n"
      "       '!high'/'!low' lines tag the block's admission class\n");
  return 2;
}

using tools::LoadDatabase;

/// Splits the query file into blank-line-separated blocks, dropping '#'
/// comment lines, and parses each block. A line that is exactly `!high` or
/// `!low` (modulo surrounding whitespace) tags the enclosing block's
/// admission class; untagged blocks get `default_priority`.
bool LoadQueries(const char* path,
                 util::AdmissionGate::Priority default_priority,
                 std::vector<sparql::Query>* queries,
                 std::vector<util::AdmissionGate::Priority>* priorities) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open query file %s\n", path);
    return false;
  }
  std::vector<std::string> blocks(1);
  std::vector<util::AdmissionGate::Priority> tags(1, default_priority);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) {
      if (!blocks.back().empty()) {
        blocks.emplace_back();
        tags.push_back(default_priority);
      }
      continue;
    }
    const size_t last = line.find_last_not_of(" \t\r");
    const std::string token = line.substr(first, last - first + 1);
    if (token == "!high") {
      tags.back() = util::AdmissionGate::Priority::kHigh;
      continue;
    }
    if (token == "!low") {
      tags.back() = util::AdmissionGate::Priority::kLow;
      continue;
    }
    blocks.back() += line;
    blocks.back() += '\n';
  }
  if (blocks.back().empty()) {
    blocks.pop_back();
    tags.pop_back();
  }
  if (blocks.empty()) {
    std::fprintf(stderr, "no queries in %s\n", path);
    return false;
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    auto parsed = sparql::Parser::Parse(blocks[i]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "query %zu: %s\n", i,
                   parsed.error_message().c_str());
      return false;
    }
    queries->push_back(std::move(parsed).value());
    priorities->push_back(tags[i]);
  }
  return true;
}

/// The --subscribe flow: every query becomes a standing query; the delta
/// stream (if any) drives publications; each batch prints one report line
/// per subscription. Returns the process exit code.
int RunSubscribe(sim::QueryService& service,
                 const std::vector<sparql::Query>& queries,
                 const char* deltas_path) {
  std::vector<std::shared_ptr<sim::QueryService::Subscription>> subs;
  subs.reserve(queries.size());
  for (const sparql::Query& q : queries) subs.push_back(service.Subscribe(q));

  auto print_reports = [&](const char* tag) {
    for (size_t s = 0; s < subs.size(); ++s) {
      for (const sim::PruneReport& r : subs[s]->TakeReports()) {
        const sim::StandingStats st = subs[s]->stats();
        std::printf("%s q%03zu gen=%llu kept=%zu vars=%zu "
                    "(maintained %zu, recomputed %zu)%s\n",
                    tag, s,
                    static_cast<unsigned long long>(r.snapshot_generation),
                    r.kept_triples.size(), r.var_candidates.size(),
                    st.maintained, st.recomputed,
                    r.kept_triples.empty() ? "  [empty]" : "");
      }
    }
  };
  print_reports("cold ");

  if (deltas_path != nullptr) {
    std::ifstream in(deltas_path);
    if (!in) {
      std::fprintf(stderr, "cannot open delta file %s\n", deltas_path);
      return 1;
    }
    // Pin the registration snapshot for its dictionaries (shared,
    // unchanged across versions — the universe is pinned).
    const std::shared_ptr<const graph::GraphDatabase> dict_snapshot =
        service.CurrentSnapshot();
    const graph::GraphDatabase& dict_db = *dict_snapshot;
    std::vector<graph::Triple> inserts, deletes;
    size_t batch = 0, line_no = 0, skipped = 0;
    auto apply = [&] {
      if (inserts.empty() && deletes.empty()) return;
      // Deletes first: a batch that moves a triple is a replace, not a
      // transient duplicate.
      if (!deletes.empty()) service.DeleteTriples(deletes);
      if (!inserts.empty()) service.IngestTriples(inserts);
      std::printf("batch %zu: -%zu/+%zu -> gen %llu\n", batch,
                  deletes.size(), inserts.size(),
                  static_cast<unsigned long long>(
                      service.CurrentGeneration()));
      print_reports("  ");
      deletes.clear();
      inserts.clear();
      ++batch;
    };
    std::string line;
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line[0] == '#') continue;
      std::istringstream tokens(line);
      std::string op, s, p, o;
      if (!(tokens >> op)) {
        apply();  // blank line: apply the accumulated batch
        continue;
      }
      if ((op != "+" && op != "-") || !(tokens >> s >> p >> o)) {
        std::fprintf(stderr, "%s:%zu: expected '+|- subj pred obj'\n",
                     deltas_path, line_no);
        return 1;
      }
      // Dictionaries intern IRIs without the angle brackets; accept both
      // spellings so delta files can mirror query syntax.
      auto strip = [](std::string name) {
        if (name.size() >= 2 && name.front() == '<' && name.back() == '>') {
          return name.substr(1, name.size() - 2);
        }
        return name;
      };
      auto subject = dict_db.nodes().Lookup(strip(s));
      auto predicate = dict_db.predicates().Lookup(strip(p));
      auto object = dict_db.nodes().Lookup(strip(o));
      if (!subject || !predicate || !object) {
        std::fprintf(stderr,
                     "%s:%zu: unknown name (universe is pinned), skipping\n",
                     deltas_path, line_no);
        ++skipped;
        continue;
      }
      graph::Triple t{*subject, *predicate, *object};
      (op == "+" ? inserts : deletes).push_back(t);
    }
    apply();  // trailing batch without a final blank line
    if (skipped > 0) {
      std::fprintf(stderr, "skipped %zu delta lines with unknown names\n",
                   skipped);
    }
  }

  const sim::QueryService::Stats stats = service.stats();
  std::printf("\nsubscriptions: %zu live, %zu reports delivered, "
              "%zu publications\n",
              stats.subscriptions, stats.subscription_reports,
              stats.snapshots_published);
  for (size_t s = 0; s < subs.size(); ++s) {
    const sim::StandingStats st = subs[s]->stats();
    std::printf("q%03zu: %zu applies (%zu no-op), %zu maintained / %zu "
                "recomputed / %zu untouched branches, %zu/%zu ineqs armed, "
                "%.4fs maintaining\n",
                s, st.applies, st.noop_applies, st.maintained, st.recomputed,
                st.untouched_branches, st.armed_ineqs, st.total_ineqs,
                st.maintain_seconds);
  }
  return 0;
}

int Run(int argc, char** argv) {
  sim::QueryServiceOptions options;
  options.num_workers = 0;  // all hardware threads
  size_t repeat = 1;
  size_t deadline_ms = 0;  // 0 = no deadline
  auto default_priority = util::AdmissionGate::Priority::kHigh;
  const char* db_path = nullptr;
  size_t resident_mb = tools::kResidentMbFromEnv;
  bool subscribe = false;
  const char* deltas_path = nullptr;
  std::vector<const char*> args;

  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (tools::FlagValue(argc, argv, &i, "--threads", &value)) {
      if (value == nullptr ||
          !tools::ParseSize(value, "--threads", &options.num_workers)) {
        return Usage();
      }
      continue;
    }
    if (tools::FlagValue(argc, argv, &i, "--queue-depth", &value)) {
      if (value == nullptr ||
          !tools::ParseSize(value, "--queue-depth", &options.queue_depth)) {
        return Usage();
      }
      continue;
    }
    if (tools::FlagValue(argc, argv, &i, "--cache-capacity", &value)) {
      if (value == nullptr || !tools::ParseSize(value, "--cache-capacity",
                                                &options.cache_capacity)) {
        return Usage();
      }
      continue;
    }
    if (tools::FlagValue(argc, argv, &i, "--repeat", &value)) {
      if (value == nullptr || !tools::ParseSize(value, "--repeat", &repeat) ||
          repeat == 0) {
        return Usage();
      }
      continue;
    }
    if (tools::FlagValue(argc, argv, &i, "--deadline-ms", &value)) {
      if (value == nullptr ||
          !tools::ParseSize(value, "--deadline-ms", &deadline_ms)) {
        return Usage();
      }
      continue;
    }
    if (tools::FlagValue(argc, argv, &i, "--priority", &value)) {
      if (value == nullptr) return Usage();
      if (std::strcmp(value, "high") == 0) {
        default_priority = util::AdmissionGate::Priority::kHigh;
      } else if (std::strcmp(value, "low") == 0) {
        default_priority = util::AdmissionGate::Priority::kLow;
      } else {
        return Usage();
      }
      continue;
    }
    if (tools::FlagValue(argc, argv, &i, "--db", &value)) {
      if (value == nullptr) return Usage();
      db_path = value;
      continue;
    }
    if (tools::FlagValue(argc, argv, &i, "--resident-mb", &value)) {
      if (value == nullptr ||
          !tools::ParseSize(value, "--resident-mb", &resident_mb, 20)) {
        return Usage();
      }
      continue;
    }
    if (tools::FlagValue(argc, argv, &i, "--deltas", &value)) {
      if (value == nullptr) return Usage();
      deltas_path = value;
      continue;
    }
    if (std::strcmp(argv[i], "--subscribe") == 0) {
      subscribe = true;
      continue;
    }
    if (std::strcmp(argv[i], "--cache") == 0) {
      options.solver.cache_sois = options.solver.cache_solutions = true;
      continue;
    }
    if (std::strcmp(argv[i], "--no-cache") == 0) {
      options.solver.cache_sois = options.solver.cache_solutions = false;
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) return Usage();
    args.push_back(argv[i]);
  }
  if (!tools::ResolveResidentMb(&resident_mb)) return Usage();

  const char* query_path = nullptr;
  std::optional<graph::GraphDatabase> db;
  if (db_path != nullptr) {
    if (args.size() != 1) return Usage();
    query_path = args[0];
    db = LoadDatabase(db_path, /*force_binary=*/true, resident_mb);
  } else {
    if (args.size() != 2) return Usage();
    query_path = args[1];
    db = LoadDatabase(args[0], /*force_binary=*/false, resident_mb);
  }
  if (!db) return 1;

  std::vector<sparql::Query> queries;
  std::vector<util::AdmissionGate::Priority> priorities;
  if (!LoadQueries(query_path, default_priority, &queries, &priorities)) {
    return 1;
  }

  if (deltas_path != nullptr && !subscribe) {
    std::fprintf(stderr, "--deltas requires --subscribe\n");
    return Usage();
  }

  sim::QueryService service(&*db, std::move(options));
  if (subscribe) return RunSubscribe(service, queries, deltas_path);
  const size_t total = queries.size() * repeat;
  std::fprintf(stderr, "submitting %zu queries (%zu x %zu) ...\n", total,
               queries.size(), repeat);

  util::Stopwatch watch;
  std::vector<std::future<sim::PruneReport>> futures;
  futures.reserve(total);
  for (size_t r = 0; r < repeat; ++r) {
    for (size_t q = 0; q < queries.size(); ++q) {
      sim::SubmitOptions submit;
      submit.priority = priorities[q];
      if (deadline_ms > 0) {
        submit.deadline = std::chrono::milliseconds(deadline_ms);
      }
      futures.push_back(service.Submit(queries[q], submit));
    }
  }
  std::vector<sim::PruneReport> reports;
  reports.reserve(total);
  for (auto& f : futures) reports.push_back(f.get());
  double wall = watch.ElapsedSeconds();

  std::printf("%-6s %10s %9s %8s %10s\n", "query", "solve(s)", "branches",
              "rounds", "kept");
  for (size_t i = 0; i < reports.size(); ++i) {
    const sim::PruneReport& r = reports[i];
    std::printf("q%03zu   %10.5f %9zu %8zu %10zu%s\n", i, r.total_seconds,
                r.num_branches, r.stats.rounds, r.kept_triples.size(),
                r.truncated ? "  [truncated]" : "");
  }

  const sim::QueryService::Stats stats = service.stats();
  const sim::QueryServiceOptions& opts = service.options();
  std::printf("\nbatch: %zu queries in %.4fs (%.1f q/s, %zu workers, "
              "queue depth %zu)\n",
              total, wall, wall > 0 ? static_cast<double>(total) / wall : 0.0,
              util::ThreadPool::ResolveThreadCount(opts.num_workers),
              opts.queue_depth);
  std::printf("service: submitted %zu, executed %zu, coalesced %zu, "
              "peak in-flight %zu\n",
              stats.submitted, stats.executed, stats.coalesced,
              stats.peak_in_flight);
  auto mean_wait = [](const util::AdmissionGate::ClassStats& cls) {
    return cls.blocked == 0 ? 0.0 : cls.wait_seconds / cls.blocked;
  };
  std::printf("admission: high %zu admitted / %zu blocked (mean wait "
              "%.4fs), low %zu admitted / %zu blocked (mean wait %.4fs)\n",
              stats.gate.high.admitted, stats.gate.high.blocked,
              mean_wait(stats.gate.high), stats.gate.low.admitted,
              stats.gate.low.blocked, mean_wait(stats.gate.low));
  std::printf("snapshots: %zu live (peak %zu), %zu published, "
              "%zu deadline-truncated\n",
              stats.snapshots_live, stats.peak_snapshots_live,
              stats.snapshots_published, stats.deadline_truncated);
  std::printf("cache: soi %zu hits / %zu misses, solution %zu hits / %zu "
              "misses\n",
              stats.cache.soi_hits, stats.cache.soi_misses,
              stats.cache.solution_hits, stats.cache.solution_misses);
  const std::string capacity =
      opts.cache_capacity == 0 ? "unbounded"
                               : std::to_string(opts.cache_capacity);
  std::printf("cache evictions: %zu lru (soi %zu, solution %zu), "
              "%zu generation-gc; resident %zu sois + %zu solutions"
              " (capacity %s)\n",
              stats.cache.soi_evictions + stats.cache.solution_evictions,
              stats.cache.soi_evictions, stats.cache.solution_evictions,
              stats.cache.generation_evictions, stats.cached_sois,
              stats.cached_solutions, capacity.c_str());
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
