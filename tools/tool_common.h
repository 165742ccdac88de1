// Small helpers shared by the command-line tools.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <utility>

#include "graph/binary_io.h"
#include "graph/graph_database.h"
#include "graph/ntriples.h"
#include "util/stopwatch.h"

namespace sparqlsim::tools {

/// Parses a numeric flag value: plain decimal digits only (no sign, no
/// whitespace, no suffix), and the value shifted left by `shift` bits must
/// fit in size_t (the MiB flags pass 20). On failure prints a diagnostic
/// naming `flag` and returns false, leaving `*out` untouched.
inline bool ParseSize(const char* text, const char* flag, size_t* out,
                      unsigned shift = 0) {
  bool ok = text[0] >= '0' && text[0] <= '9';
  unsigned long long value = 0;
  if (ok) {
    char* end = nullptr;
    errno = 0;
    value = std::strtoull(text, &end, 10);
    ok = *end == '\0' && errno != ERANGE && value <= (SIZE_MAX >> shift);
  }
  if (!ok) {
    std::fprintf(stderr, "invalid %s value '%s'\n", flag, text);
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

/// Matches the value-taking flag `flag` (e.g. "--threads") at argv[*i], in
/// either form `--flag V` or `--flag=V`. Returns false, leaving *i alone,
/// when argv[*i] is some other argument. Otherwise returns true and sets
/// *value to the flag's value, advancing *i past a separate one; *value is
/// null when `--flag` is the last argument.
inline bool FlagValue(int argc, char** argv, int* i, std::string_view flag,
                      const char** value) {
  const std::string_view arg = argv[*i];
  if (!arg.starts_with(flag)) return false;
  if (arg.size() == flag.size()) {
    *value = *i + 1 < argc ? argv[++*i] : nullptr;
    return true;
  }
  if (arg[flag.size()] != '=') return false;
  *value = argv[*i] + flag.size() + 1;
  return true;
}

/// Value of a resident-budget variable before flags are parsed: it stands
/// for "no --resident-mb given" until ResolveResidentMb replaces it.
inline constexpr size_t kResidentMbFromEnv = static_cast<size_t>(-1);

/// Resolves the resident-budget knob in MiB: an explicit --resident-mb
/// value wins, otherwise SPARQLSIM_RESIDENT_MB, parsed under the flag's
/// rules, otherwise 0 (unbounded). The budget only affects lazily opened
/// SQSIMDB2/3 files. Returns false, after a diagnostic, when the variable
/// is malformed; the tools treat that as a usage error.
inline bool ResolveResidentMb(size_t* resident_mb) {
  if (*resident_mb != kResidentMbFromEnv) return true;
  *resident_mb = 0;
  const char* env = std::getenv("SPARQLSIM_RESIDENT_MB");
  return env == nullptr ||
         ParseSize(env, "SPARQLSIM_RESIDENT_MB", resident_mb, 20);
}

/// True when `path` ends with `suffix` — the tools' format-dispatch
/// primitive (".gdb" → binary, ".gz" → gzip pipe, anything else →
/// N-Triples text).
inline bool HasSuffix(std::string_view path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.substr(path.size() - suffix.size()) == suffix;
}

/// Loads N-Triples or binary by suffix; `force_binary` (the --db flag's
/// behavior) always reads the SQSIMDB binary formats regardless of
/// suffix. SQSIMDB2 files open mmap-ed and lazy, with a budget of
/// `resident_mb` MiB (0 = unbounded; see ResolveResidentMb). Reports load
/// time on stderr; returns nullopt (with a diagnostic) on failure. Shared
/// by sparqlsim_cli and sparqlsim_batch.
inline std::optional<graph::GraphDatabase> LoadDatabase(const char* path,
                                                        bool force_binary,
                                                        size_t resident_mb) {
  util::Stopwatch watch;
  std::optional<graph::GraphDatabase> db;
  if (force_binary || HasSuffix(path, ".gdb")) {
    graph::BinaryIo::LoadOptions load_options;
    load_options.resident_budget_bytes = resident_mb << 20;
    auto loaded = graph::BinaryIo::LoadFile(path, load_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", path,
                   loaded.error_message().c_str());
      return std::nullopt;
    }
    db = std::move(loaded).value();
  } else {
    graph::GraphDatabaseBuilder builder;
    util::Status status = graph::NTriples::LoadFile(path, &builder);
    if (!status.ok()) {
      std::fprintf(stderr, "error loading %s: %s\n", path,
                   status.message().c_str());
      return std::nullopt;
    }
    db = std::move(builder).Build();
  }
  std::fprintf(stderr,
               "loaded %zu triples (%zu nodes, %zu predicates) in %.2fs\n",
               db->NumTriples(), db->NumNodes(), db->NumPredicates(),
               watch.ElapsedSeconds());
  if (db->HasBacking()) {
    graph::BackingStats backing = db->backing_stats();
    std::fprintf(stderr,
                 "out-of-core: %zu/%zu predicate matrices resident, "
                 "budget %zu MiB%s\n",
                 backing.resident, backing.predicates,
                 backing.budget_bytes >> 20,
                 backing.budget_bytes == 0 ? " (unbounded)" : "");
  }
  return db;
}

}  // namespace sparqlsim::tools
