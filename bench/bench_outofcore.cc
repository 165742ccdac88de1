// Out-of-core tier bench: cold-open and first-query latency of the lazy
// SQSIMDB3 load path.
//
// The source database (LUBM by default; `--db file.gdb` / SPARQLSIM_DB
// substitutes a real ingested one) is written as SQSIMDB3 to a file named
// per process in the system temp directory, then each variant measures
//   * open      — LoadFile wall-clock (a lazy open parses only the
//     directory and maps the dictionary),
//   * first query — a single-predicate solve straight after the open (only
//     the predicates the query touches materialize),
// and reports the backing counters afterwards. `v2-lazy-budget` caps
// resident matrix bytes at SPARQLSIM_RESIDENT_MB (default 1) to exercise
// the evict-and-refault path. Every variant must produce the relation size
// of the same solve on the in-memory source — the bench fails loudly on
// any mismatch.
//
// SPARQLSIM_BENCH_JSON=<path> archives the rows as JSON;
// tools/run_benches.sh folds that into the repo-root BENCH_summary.json.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/pruner.h"
#include "util/stopwatch.h"

namespace sparqlsim {
namespace {

struct VariantRow {
  std::string name;
  double open_seconds = 0;
  double first_query_seconds = 0;
  size_t relation_size = 0;
  graph::BackingStats backing;
};

size_t FileSizeBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<size_t>(size);
}

/// The densest predicate gives the first query real work while still
/// touching only one of the database's matrices — exactly the access
/// pattern the lazy tier is built for.
std::string DensestPredicate(const graph::GraphDatabase& db) {
  uint32_t best = 0;
  size_t best_nnz = 0;
  for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
    if (db.PredicateCardinality(p) > best_nnz) {
      best_nnz = db.PredicateCardinality(p);
      best = p;
    }
  }
  return std::string(db.predicates().Name(best));
}

VariantRow RunVariant(const char* name, const std::string& path,
                      const graph::BinaryIo::LoadOptions& options,
                      const sparql::Query& query, size_t reps) {
  VariantRow row;
  row.name = name;
  for (size_t rep = 0; rep < reps; ++rep) {
    util::Stopwatch open_watch;
    auto loaded = graph::BinaryIo::LoadFile(path, options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "[bench] cannot load %s: %s\n", path.c_str(),
                   loaded.error_message().c_str());
      std::abort();
    }
    graph::GraphDatabase db = std::move(loaded).value();
    row.open_seconds += open_watch.ElapsedSeconds();

    sim::SparqlSimProcessor processor(&db);
    util::Stopwatch query_watch;
    sim::Solution solution = processor.Solve(*query.where);
    row.first_query_seconds += query_watch.ElapsedSeconds();
    row.relation_size = solution.RelationSize();
    row.backing = db.backing_stats();
  }
  row.open_seconds /= static_cast<double>(reps);
  row.first_query_seconds /= static_cast<double>(reps);
  return row;
}

void WriteJson(const std::vector<VariantRow>& rows, size_t gdb_bytes,
               const std::string& predicate, FILE* out) {
  std::fprintf(out, "{\n  \"bench\": \"outofcore\",\n");
  std::fprintf(out, "  \"v2_bytes\": %zu,\n", gdb_bytes);
  std::fprintf(out, "  \"query_predicate\": \"%s\",\n", predicate.c_str());
  std::fprintf(out, "  \"variants\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const VariantRow& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"open_seconds\": %.6f, "
                 "\"first_query_seconds\": %.6f, \"relation_size\": %zu, "
                 "\"lazy_predicates\": %zu, \"resident\": %zu, "
                 "\"materializations\": %zu, \"evictions\": %zu, "
                 "\"resident_bytes\": %zu, \"budget_bytes\": %zu}%s\n",
                 r.name.c_str(), r.open_seconds, r.first_query_seconds,
                 r.relation_size, r.backing.predicates, r.backing.resident,
                 r.backing.materializations, r.backing.evictions,
                 r.backing.resident_bytes, r.backing.budget_bytes,
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
}

int Run(int argc, char** argv) {
  std::printf("Out-of-core tier: cold open + first query, SQSIMDB3\n");

  std::optional<graph::GraphDatabase> override_db =
      bench::LoadDbOverride(argc, argv);
  graph::GraphDatabase source =
      override_db ? std::move(*override_db) : bench::MakeBenchLubm();

  const std::string gdb_path =
      (std::filesystem::temp_directory_path() /
       ("sparqlsim_bench_outofcore_" + std::to_string(::getpid()) + ".gdb"))
          .string();
  if (auto s = graph::BinaryIo::SaveV2File(source, gdb_path); !s.ok()) {
    std::fprintf(stderr, "[bench] cannot write %s: %s\n", gdb_path.c_str(),
                 s.message().c_str());
    return 1;
  }
  const size_t gdb_bytes = FileSizeBytes(gdb_path);
  std::printf("db: %zu triples, %zu predicates; SQSIMDB3 %zu bytes\n",
              source.NumTriples(), source.NumPredicates(), gdb_bytes);

  const std::string predicate = DensestPredicate(source);
  sparql::Query query = bench::ParseOrDie(
      "SELECT * WHERE { ?s <" + predicate + "> ?o . }");
  std::printf("first query: ?s <%s> ?o\n\n", predicate.c_str());
  const size_t want_relation =
      sim::SparqlSimProcessor(&source).Solve(*query.where).RelationSize();

  const size_t reps = bench::BenchReps();
  const size_t budget_mb = bench::EnvSize("SPARQLSIM_RESIDENT_MB", 1);

  graph::BinaryIo::LoadOptions lazy;
  graph::BinaryIo::LoadOptions lazy_budget;
  lazy_budget.resident_budget_bytes = budget_mb << 20;

  std::vector<VariantRow> rows;
  rows.push_back(RunVariant("v2-lazy", gdb_path, lazy, query, reps));
  rows.push_back(
      RunVariant("v2-lazy-budget", gdb_path, lazy_budget, query, reps));
  std::remove(gdb_path.c_str());

  std::printf("  %-16s %10s %12s %10s %9s %8s %9s\n", "variant", "open(s)",
              "1st-query(s)", "relation", "resident", "mat.", "evict");
  bench::PrintRule(80);
  for (const VariantRow& r : rows) {
    std::printf("  %-16s %10.5f %12.5f %10zu %5zu/%-3zu %8zu %9zu\n",
                r.name.c_str(), r.open_seconds, r.first_query_seconds,
                r.relation_size, r.backing.resident, r.backing.predicates,
                r.backing.materializations, r.backing.evictions);
  }

  // Determinism gate: the backing tier must never change answers.
  for (const VariantRow& r : rows) {
    if (r.relation_size != want_relation) {
      std::fprintf(stderr,
                   "[bench] relation-size mismatch: %s=%zu vs in-memory=%zu\n",
                   r.name.c_str(), r.relation_size, want_relation);
      return 1;
    }
  }
  // The lazy open must leave untouched predicates on disk: a one-predicate
  // query over a multi-predicate database may not materialize everything.
  const VariantRow& lazy_row = rows[0];
  if (source.NumPredicates() > 1 &&
      lazy_row.backing.materializations >= source.NumPredicates()) {
    std::fprintf(stderr,
                 "[bench] lazy open materialized all %zu predicates for a "
                 "single-predicate query\n",
                 source.NumPredicates());
    return 1;
  }

  const char* json_path = std::getenv("SPARQLSIM_BENCH_JSON");
  if (json_path != nullptr) {
    FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    WriteJson(rows, gdb_bytes, predicate, out);
    std::fclose(out);
    std::fprintf(stderr, "[bench] JSON written to %s\n", json_path);
  } else {
    WriteJson(rows, gdb_bytes, predicate, stdout);
  }
  return 0;
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
