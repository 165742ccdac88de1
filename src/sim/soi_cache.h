#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/soi.h"
#include "sim/solver.h"

namespace sparqlsim::sim {

/// Cache of per-query-structure artifacts, keyed by
/// (database generation, sparql::CanonicalPatternKey of the union-free
/// branch). One entry carries two layers:
///
///  * SOI layer — the constructed system of inequalities. Reusable whenever
///    the same normalized branch is solved again against the same database
///    (SOIs embed database predicate/constant ids, so the generation is part
///    of the key).
///  * Solution layer — the solved fixpoint, attached to the entry of the
///    SOI instance it was solved on. The largest solution is unique
///    (Prop. 1), independent of every solver heuristic, so a cached
///    solution is valid for any SolverOptions as long as the run was not
///    truncated (SimEngine never stores max_rounds-limited runs) and the
///    database generation matches. A Restrict()ed or reloaded database gets
///    a fresh generation, which invalidates implicitly — stale entries are
///    unreachable, never wrong.
///
/// The two layers live in ONE entry on purpose: canonically-equal patterns
/// may number their SOI variables differently (construction follows triple
/// order, the key does not), so a solution is only meaningful against the
/// exact SOI instance it was solved on. Solution lookups and inserts
/// therefore carry that instance, and the cache answers a hit only when
/// the entry still holds the same instance — eviction can cost a recompute
/// but can never mis-pair a solution with a rebuilt SOI.
///
/// Lifecycle: entries form an LRU bounded by `Options::capacity`
/// (0 = unbounded, the historical behavior); inserting past the bound
/// evicts the least-recently-used entry, attached solution included. With
/// `Options::generation_gc` set, the first operation carrying a *newer*
/// database generation eagerly evicts every entry of an older generation —
/// the right policy when the cache serves a single evolving database
/// (sim::QueryService and private SimEngine caches turn it on). Leave it
/// off for a cache deliberately shared by engines bound to *different*
/// databases: generation-distinct entries then coexist, each reachable
/// only by its own database, and `EvictStaleGenerations` is available for
/// manual GC.
///
/// All methods are thread-safe; branch batches probe the cache
/// concurrently. Artifacts are shared_ptr<const ...> so a hit is a pointer
/// copy, not a deep copy (an evicted artifact stays alive while anyone
/// still holds the pointer).
class SoiCache {
 public:
  struct Options {
    /// Max entries (each holding an SOI and possibly its solution);
    /// 0 = unbounded.
    size_t capacity = 0;
    /// Eagerly drop entries of older generations whenever a newer one is
    /// seen (single-database caches only; see class comment).
    bool generation_gc = false;
  };

  struct Stats {
    size_t soi_hits = 0;
    size_t soi_misses = 0;
    size_t solution_hits = 0;
    size_t solution_misses = 0;
    /// Capacity (LRU) evictions: entries dropped, and how many of those
    /// carried an attached solution.
    size_t soi_evictions = 0;
    size_t solution_evictions = 0;
    /// Artifacts dropped by generation GC (SOIs + attached solutions,
    /// eager + manual).
    size_t generation_evictions = 0;
  };

  SoiCache() = default;
  explicit SoiCache(Options options) : options_(options) {}

  /// Returns the cached SOI for (generation, key), or null (counting a
  /// miss).
  std::shared_ptr<const Soi> FindSoi(uint64_t generation,
                                     const std::string& key);
  /// Stores `soi` and returns the (possibly pre-existing) cached value.
  std::shared_ptr<const Soi> InsertSoi(uint64_t generation,
                                       const std::string& key, Soi soi);

  /// Returns the cached full-fixpoint solution for (generation, key), but
  /// only if it was solved on exactly `solved_on` — the SOI instance the
  /// caller obtained from FindSoi/InsertSoi. Anything else (no entry, no
  /// solution yet, or an entry whose SOI was rebuilt since) is a miss.
  std::shared_ptr<const Solution> FindSolution(uint64_t generation,
                                               const std::string& key,
                                               const Soi* solved_on);
  /// A cached SOI with the solution solved on it.
  struct Solved {
    std::shared_ptr<const Soi> soi;
    std::shared_ptr<const Solution> solution;
  };
  /// All-or-nothing lookup under one lock: when every key of `keys` holds
  /// an attached solution at `generation`, returns the pairs in key order,
  /// counting a SOI hit and a solution hit per key and refreshing each
  /// entry's recency, as FindSoi + FindSolution would. Otherwise returns
  /// an empty vector and counts nothing.
  std::vector<Solved> FindAllSolved(uint64_t generation,
                                    std::span<const std::string> keys);
  /// Attaches `solution` (solved on `solved_on`) to its SOI's entry and
  /// returns the canonical cached value. If the entry is gone or now holds
  /// a different SOI instance, the solution is returned un-cached — never
  /// stored against a mismatched SOI.
  std::shared_ptr<const Solution> InsertSolution(uint64_t generation,
                                                 const std::string& key,
                                                 const Soi* solved_on,
                                                 Solution solution);

  /// Manual generation GC: drops every entry whose generation differs from
  /// `live_generation`; returns the number of artifacts dropped (SOIs +
  /// attached solutions). Counted in Stats::generation_evictions.
  size_t EvictStaleGenerations(uint64_t live_generation);

  /// MVCC-aware generation GC: drops every entry whose generation is not
  /// in `live_generations` — the set of generations still reachable
  /// through a pinned snapshot, as reported by the serving layer's
  /// snapshot refcounts. This is the correct sweep under concurrent
  /// serving: the newest generation alone is NOT the live set while
  /// in-flight queries still pin older snapshots (evicting their entries
  /// would thrash), and a generation no pin can reach again must be
  /// dropped even if some raw integer comparison would call it "new".
  /// Returns artifacts dropped; counted in Stats::generation_evictions.
  size_t EvictStaleGenerations(std::span<const uint64_t> live_generations);

  const Options& options() const { return options_; }
  Stats stats() const;
  /// Resident entries (each entry holds one SOI).
  size_t NumSois() const;
  /// Resident entries with an attached solution (<= NumSois()).
  size_t NumSolutions() const;
  void Clear();

 private:
  struct Entry {
    uint64_t generation = 0;
    std::shared_ptr<const Soi> soi;
    std::shared_ptr<const Solution> solution;  // null until attached
    std::list<std::string>::iterator lru_pos;
  };

  static std::string MakeKey(uint64_t generation, const std::string& key);
  /// The following assume mutex_ is held.
  void MaybeCollectGenerationsLocked(uint64_t generation);
  Entry* FindEntryLocked(const std::string& full_key);
  void EvictOverCapacityLocked();
  size_t EvictStaleLocked(std::span<const uint64_t> live_generations);

  mutable std::mutex mutex_;
  Options options_;
  uint64_t newest_generation_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  /// Recency list of full keys; front = most recently used.
  std::list<std::string> lru_;
  size_t num_solutions_ = 0;
  Stats stats_;
};

}  // namespace sparqlsim::sim
