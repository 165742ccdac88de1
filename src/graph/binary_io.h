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
/// version is specified byte-for-byte in docs/DATASETS.md:
///
///  * SQSIMDB1 — dictionaries plus, per predicate, the forward adjacency
///    rows with delta-varint-encoded column indices. Always loaded eagerly.
///  * SQSIMDB2 — footer-indexed: the v1 dictionary block, then one
///    independently addressable, checksummed block per predicate holding
///    the forward AND backward matrices as GAP/RLE-compressed rows
///    (util::GapCodec), with a per-predicate directory of offsets/lengths/
///    row counts/checksums. Read-only: no writer produces it any more.
///  * SQSIMDB3 — SQSIMDB2 with the dictionary block replaced by the flat
///    Dictionary arrays verbatim (name blob, id→offset array, bucket
///    table) plus a literal bitmap, checksummed. LoadFile maps the file:
///    the dictionaries are views into the mapping, validated but never
///    interned, and a predicate's BitMatrix slabs materialize on first
///    touch (GraphDatabase's backing seam), evictable under a resident-byte
///    budget.
///
/// Loading any version reproduces identical node/predicate ids, which is
/// what lets `sparqlsim_ingest` pre-convert real dumps once and every bench
/// load them via `--db`.
class BinaryIo {
 public:
  /// How LoadFile opens a version-2/3 file (version-1 files are always
  /// eager; these options are ignored for them).
  struct LoadOptions {
    /// Materialize every predicate at open and drop the backing — the
    /// database then behaves exactly like a v1 load (no pins, no budget).
    bool eager = false;
    /// Resident-byte budget for lazy opens; 0 = unbounded.
    size_t resident_budget_bytes = 0;
  };

  /// Writes `db` to `out` in format version 1. The encoding is a pure
  /// function of the database content, so equal databases serialize
  /// byte-identically.
  static void Save(const GraphDatabase& db, std::ostream& out);
  /// Writes `db` to `path` in format version 1 (tmp file + atomic rename:
  /// the destination either holds the complete database or is untouched).
  static util::Status SaveFile(const GraphDatabase& db,
                               const std::string& path);

  /// Writes `db` to `out` in the lazily loadable format, version 3
  /// (SQSIMDB3; the name predates it). Also a pure function of the database
  /// content — the thread count of the overlapped file writer never changes
  /// the bytes.
  static void SaveV2(const GraphDatabase& db, std::ostream& out);
  /// Writes `db` to `path` as SaveV2 does, overlapping per-predicate block
  /// compression (on `threads` workers; 0 = hardware concurrency) with
  /// sequential file writes, tmp file + atomic rename as SaveFile.
  static util::Status SaveV2File(const GraphDatabase& db,
                                 const std::string& path, size_t threads = 0);

  /// Reads a database of any version from a stream (necessarily eager —
  /// there is no file to keep mapped; a version-3 dictionary views the
  /// buffered stream, which it keeps alive). Rejects foreign files (bad magic),
  /// files written by a newer format version, and truncated/corrupt
  /// streams with a descriptive error — it never relies on stream state or
  /// throws.
  static util::Result<GraphDatabase> Load(std::istream& in);
  /// Reads a database from `path`. Version-2/3 files are mmap-ed and loaded
  /// lazily per predicate unless `options.eager` is set; a version-3 file's
  /// dictionaries stay views into the mapping either way.
  static util::Result<GraphDatabase> LoadFile(const std::string& path,
                                              const LoadOptions& options);
  static util::Result<GraphDatabase> LoadFile(const std::string& path) {
    return LoadFile(path, LoadOptions());
  }

 private:
  /// SQSIMDB2/3 open path (footer/directory validation, dictionary map or
  /// intern, lazy slot assembly); nested so it shares BinaryIo's friend
  /// access to GraphDatabase.
  class MappedLoader;
};

}  // namespace sparqlsim::graph
