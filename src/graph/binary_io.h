#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "graph/graph_database.h"
#include "util/status.h"

namespace sparqlsim::graph {

/// Compact binary serialization of a graph database — the at-rest format
/// in the spirit of the BitMat storage the paper connects to (Sect. 3.3).
///
/// The version byte after the shared "SQSIMDB" magic dispatches; every
/// version is specified byte-for-byte in docs/DATASETS.md. SQSIMDB3 is the
/// only version written; 1 and 2 are read so that older files keep loading
/// (`sparqlsim_cli convert` upgrades them):
///
///  * SQSIMDB1 — dictionaries plus, per predicate, the forward adjacency
///    rows with delta-varint-encoded column indices. Parsed whole at open.
///  * SQSIMDB2 — footer-indexed: the v1 dictionary block, then one
///    independently addressable, checksummed block per predicate holding
///    the forward AND backward matrices as GAP/RLE-compressed rows
///    (util::GapCodec), with a per-predicate directory of offsets/lengths/
///    row counts/checksums.
///  * SQSIMDB3 — SQSIMDB2 with the dictionary block replaced by the flat
///    Dictionary arrays verbatim (name blob, id→offset array, bucket
///    table) plus a literal bitmap, checksummed. The dictionaries are views
///    into the file's bytes, validated but never interned.
///
/// Every load reads one byte span: LoadFile maps the file, Load buffers the
/// stream, and one reader checks the magic and version byte and parses.
/// A version-2/3 database keeps that span: a predicate's BitMatrix slabs
/// materialize on first touch (GraphDatabase's backing seam), evictable
/// under a resident-byte budget.
///
/// Loading any version reproduces identical node/predicate ids, which is
/// what lets `sparqlsim_ingest` pre-convert real dumps once and every bench
/// load them via `--db`.
class BinaryIo {
 public:
  /// How a version-2/3 database is served (ignored for version 1).
  struct LoadOptions {
    /// Resident-byte budget for the lazily materialized predicates;
    /// 0 = unbounded.
    size_t resident_budget_bytes = 0;
  };

  /// Writes `db` to `out` as SQSIMDB3 (the name predates the version). The
  /// encoding is a pure function of the database content, so equal
  /// databases serialize byte-identically.
  static void SaveV2(const GraphDatabase& db, std::ostream& out);
  /// Writes `db` to `path` as SaveV2 does, compressing per-predicate blocks
  /// on `threads` workers (0 = hardware concurrency) ahead of the
  /// sequential writes; the thread count never changes the bytes. Goes
  /// through a tmp file and an atomic rename, so `path` either holds the
  /// complete database or is untouched.
  static util::Status SaveV2File(const GraphDatabase& db,
                                 const std::string& path, size_t threads = 0);

  /// Reads a database of any version from a stream, buffering all of it.
  /// Rejects foreign files (bad magic), files written by a newer format
  /// version, and truncated/corrupt input with a descriptive error — it
  /// never relies on stream state or throws. A corrupt version-2/3
  /// predicate block is found when the predicate first materializes
  /// (GraphDatabase::MaterializeAll reports it as a Status).
  static util::Result<GraphDatabase> Load(std::istream& in);
  /// Reads a database of any version from `path`, mapping the file.
  static util::Result<GraphDatabase> LoadFile(const std::string& path,
                                              const LoadOptions& options);
  static util::Result<GraphDatabase> LoadFile(const std::string& path) {
    return LoadFile(path, LoadOptions());
  }

 private:
  /// The one reader behind Load and LoadFile (version dispatch, the v1
  /// parse, the v2/v3 footer/directory validation and lazy slot assembly);
  /// nested so it shares BinaryIo's friend access to GraphDatabase.
  class Reader;
};

}  // namespace sparqlsim::graph
