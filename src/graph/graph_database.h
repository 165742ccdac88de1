#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "graph/dictionary.h"
#include "graph/triple.h"
#include "util/bitmatrix.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace sparqlsim::graph {

class GraphDatabase;
class OutOfCoreBacking;
class BinaryIo;

/// Counters of the out-of-core backing layer (see OutOfCoreBacking). All
/// zero for a fully in-memory database. `resident`/`resident_bytes` are
/// instantaneous; the totals are monotone over the backing's lifetime.
struct BackingStats {
  size_t predicates = 0;        ///< predicates with lazy at-rest backing
  size_t resident = 0;          ///< currently materialized lazy predicates
  size_t materializations = 0;  ///< total decode-on-fault events
  size_t evictions = 0;         ///< slabs dropped to honor the budget
  size_t resident_bytes = 0;    ///< approx bytes of materialized slabs
  size_t budget_bytes = 0;      ///< 0 = unbounded residency
};

/// RAII residency pin (see GraphDatabase::PinResidency): while at least one
/// pin is held on a database's backing, the resident-budget enforcement is
/// deferred, so matrix references obtained under the pin stay valid until
/// it is released. Pins on a database without backing are no-ops.
class ResidencyPin {
 public:
  ResidencyPin() = default;
  explicit ResidencyPin(std::shared_ptr<OutOfCoreBacking> backing);
  ~ResidencyPin();

  ResidencyPin(ResidencyPin&& other) noexcept
      : backing_(std::move(other.backing_)) {}
  ResidencyPin& operator=(ResidencyPin&& other) noexcept;
  ResidencyPin(const ResidencyPin&) = delete;
  ResidencyPin& operator=(const ResidencyPin&) = delete;

 private:
  std::shared_ptr<OutOfCoreBacking> backing_;
};

/// Accumulates triples and dictionary entries, then freezes them into an
/// immutable GraphDatabase.
///
/// Enforces Def. 1 of the paper: literals may appear only in object
/// position; a triple whose subject is a known literal is rejected.
class GraphDatabaseBuilder {
 public:
  GraphDatabaseBuilder();

  /// Interns an IRI-like node (an object in the paper's universe O).
  uint32_t InternNode(std::string_view name);
  /// Interns a literal node (universe L); literals never gain out-edges.
  uint32_t InternLiteral(std::string_view value);
  /// Interns a predicate (edge label in the alphabet Sigma).
  uint32_t InternPredicate(std::string_view name);

  /// Adds (s, p, o) where all three are IRI-like names.
  util::Status AddTriple(std::string_view s, std::string_view p,
                         std::string_view o);
  /// Adds (s, p, "literal").
  util::Status AddTripleLiteral(std::string_view s, std::string_view p,
                                std::string_view literal);
  /// Adds a triple over already-interned ids.
  util::Status AddTripleIds(uint32_t s, uint32_t p, uint32_t o);

  /// Triples accepted so far, duplicates included (Build() dedupes).
  size_t NumTriplesAdded() const { return triples_.size(); }

  /// Freezes into a database. The builder is consumed.
  GraphDatabase Build() &&;

 private:
  std::shared_ptr<Dictionary> nodes_;
  std::shared_ptr<Dictionary> predicates_;
  std::shared_ptr<std::vector<bool>> is_literal_;
  std::vector<Triple> triples_;
};

/// An immutable graph database DB = (O_DB, Sigma, E_DB): dictionary-encoded
/// nodes/predicates plus, per predicate a, the forward adjacency matrix F_a
/// and its transpose B_a in compressed sparse form. The summary vectors
/// f^a / b^a of Eq. (13) are the matrices' row-presence bitmaps
/// (BitMatrix::RowSummary), not separate copies.
///
/// The per-label matrix pair is exactly what Sect. 3.2 of the paper needs:
/// row-wise products read F_a (or B_a), and the column-wise evaluation
/// strategy reads the respective transpose's rows.
///
/// Storage is copy-on-write per predicate: all per-label state (the matrix
/// pair, which carries summaries and cardinalities) lives in one refcounted
/// immutable slab, and copying a GraphDatabase copies slot pointers, not
/// matrices. That makes Snapshot() O(predicates), and lets
/// Restrict()/WithTriplesAdded() produce the next version of an evolving
/// database while readers keep solving against the old one — the MVCC
/// substrate of sim::QueryService.
///
/// Out-of-core tier: a database opened from a SQSIMDB2 file (BinaryIo)
/// interposes an OutOfCoreBacking behind the slot pointers — a predicate's
/// slab then materializes on first touch (decode-on-fault) and can be
/// evicted again under a resident-byte budget. Snapshot(), generation(),
/// and ChangedPredicates() semantics are unchanged: slot identity, not
/// residency, is what versions share and compare.
class GraphDatabase {
 public:
  /// All per-predicate state, immutable once built and refcounted: the
  /// unit of copy-on-write sharing between database versions, and the unit
  /// of lazy materialization/eviction in the out-of-core tier.
  struct PredicateSlab {
    util::BitMatrix forward;
    util::BitMatrix backward;
  };

  /// One predicate's storage indirection. Eager slots (the in-memory
  /// default) carry their slab forever; lazy slots (backing != nullptr)
  /// decode it from the at-rest bytes on first touch and may drop it again
  /// under budget pressure. Slot pointer identity is the COW sharing unit:
  /// an untouched predicate shares its *slot* across database versions, so
  /// a never-touched predicate stays unmaterialized through the whole
  /// publish chain.
  struct PredicateSlot {
    std::shared_ptr<OutOfCoreBacking> backing;  ///< null = eager slot
    uint32_t predicate = 0;  ///< directory index within the backing
    size_t nnz = 0;          ///< triple count, known without materializing

    mutable std::mutex mu;  ///< serializes fault/evict transitions
    mutable std::shared_ptr<const PredicateSlab> slab;
    mutable std::atomic<const PredicateSlab*> resident{nullptr};

    /// The slab, decoding it on first touch. The fast path is one acquire
    /// load. If the block turns out corrupt at fault time (open validates
    /// the directory and structure, not the block payloads), the process
    /// aborts with a diagnostic; use TryFault() or
    /// GraphDatabase::MaterializeAll() for a Status instead.
    const PredicateSlab& Get() const {
      const PredicateSlab* s = resident.load(std::memory_order_acquire);
      if (s != nullptr) return *s;
      return Fault();
    }

    /// Materializes the slab, reporting decode failures as a Status.
    util::Status TryFault() const;

    bool IsResident() const {
      return resident.load(std::memory_order_acquire) != nullptr;
    }

   private:
    const PredicateSlab& Fault() const;
  };

  size_t NumNodes() const { return nodes_->size(); }
  size_t NumPredicates() const { return predicates_->size(); }
  size_t NumTriples() const { return num_triples_; }

  /// Process-unique generation stamp, assigned whenever a database's
  /// content changes — Build(), binary load, and any Restrict()/
  /// WithTriplesAdded() that rebuilt at least one predicate slab. Two
  /// GraphDatabase values share a generation only if their triple content
  /// is identical (copies, snapshots, and no-op restrictions), which makes
  /// the stamp a sound identity key for caches holding per-database
  /// artifacts (sim::SoiCache): different data can never alias a cached
  /// solution, while content-preserving versions keep their caches warm.
  uint64_t generation() const { return generation_; }

  /// An immutable refcounted view of this database: shares the
  /// dictionaries and every predicate slot (O(predicates) pointer copies,
  /// no matrix is touched) and keeps the generation. In-flight queries pin
  /// the snapshot they admitted under simply by holding the shared_ptr;
  /// publishing a successor via Restrict()/WithTriplesAdded() never
  /// invalidates or blocks a pinned snapshot.
  std::shared_ptr<const GraphDatabase> Snapshot() const {
    return std::make_shared<const GraphDatabase>(*this);
  }

  const Dictionary& nodes() const { return *nodes_; }
  const Dictionary& predicates() const { return *predicates_; }

  bool IsLiteral(uint32_t node) const { return (*is_literal_)[node]; }

  /// Forward adjacency matrix F_p (rows: subjects, cols: objects).
  const util::BitMatrix& Forward(uint32_t p) const {
    return slots_[p]->Get().forward;
  }
  /// Backward adjacency matrix B_p = transpose of F_p.
  const util::BitMatrix& Backward(uint32_t p) const {
    return slots_[p]->Get().backward;
  }

  /// f^p: bit v set iff v has an outgoing p-edge (Eq. 13); the row
  /// presence bitmap of F_p.
  const util::BitVector& ForwardSummary(uint32_t p) const {
    return slots_[p]->Get().forward.RowSummary();
  }
  /// b^p: bit v set iff v has an incoming p-edge (Eq. 13); the row
  /// presence bitmap of B_p.
  const util::BitVector& BackwardSummary(uint32_t p) const {
    return slots_[p]->Get().backward.RowSummary();
  }

  /// Number of triples with predicate p (basic statistic for join ordering
  /// and for the solver's sparsity heuristic). Slot metadata — never
  /// materializes a lazy predicate.
  size_t PredicateCardinality(uint32_t p) const { return slots_[p]->nnz; }
  size_t DistinctSubjects(uint32_t p) const {
    return slots_[p]->Get().forward.NumNonEmptyRows();
  }
  size_t DistinctObjects(uint32_t p) const {
    return slots_[p]->Get().backward.NumNonEmptyRows();
  }

  /// Number of all-zero columns of F_p / B_p in O(1): the columns of F_p
  /// are the rows of B_p and vice versa. The solver's order-by-sparsity
  /// heuristic (Sect. 3.3: inequalities whose matrix has many empty
  /// columns prune hardest) reads these instead of paying
  /// BitMatrix::CountEmptyColumns' O(nnz) ColSummary pass on every solve.
  size_t EmptyForwardColumns(uint32_t p) const {
    return NumNodes() - DistinctObjects(p);
  }
  size_t EmptyBackwardColumns(uint32_t p) const {
    return NumNodes() - DistinctSubjects(p);
  }

  /// Calls fn(subject, object) for every triple with predicate p, in
  /// ascending (subject, object) order. Walks F_p's row-presence bitmap:
  /// O(nodes/64 + nnz).
  template <typename Fn>
  void ForEachTriple(uint32_t p, Fn&& fn) const {
    slots_[p]->Get().forward.ForEachRow(
        [&](uint32_t s, std::span<const uint32_t> row) {
          for (uint32_t o : row) fn(s, o);
        });
  }

  /// Calls fn(Triple) for every triple, grouped by predicate.
  template <typename Fn>
  void ForEachTriple(Fn&& fn) const {
    for (uint32_t p = 0; p < NumPredicates(); ++p) {
      ForEachTriple(p, [&](uint32_t s, uint32_t o) { fn(Triple{s, p, o}); });
    }
  }

  /// Materializes all triples (grouped by predicate).
  std::vector<Triple> AllTriples() const;

  /// Builds a database over the *same* dictionaries and node universe that
  /// contains only the given triples. This is how the pruned database of
  /// Sect. 5 is constructed: ids remain comparable with the original.
  ///
  /// Copy-on-write: a predicate whose triple set is unchanged shares its
  /// slab with this database (pointer copy); only changed predicates
  /// rebuild matrices. If *no* slab changed the result keeps this
  /// database's generation — content identity is what caches key on.
  GraphDatabase Restrict(std::span<const Triple> kept) const;

  /// Copy-on-write delta ingest over the existing node and predicate
  /// universe: the result contains this database's triples plus `added`
  /// (ids must already be interned — growing the dictionaries would change
  /// matrix dimensions and defeat slab sharing; intern through a builder
  /// for that). Only predicates occurring in `added` rebuild; a predicate
  /// whose additions were all duplicates shares its slab, and if every
  /// addition was a duplicate the generation is kept too.
  GraphDatabase WithTriplesAdded(std::span<const Triple> added) const;

  /// Copy-on-write delta deletion, the retraction mirror of
  /// WithTriplesAdded: the result contains this database's triples minus
  /// `removed`. Only predicates occurring in `removed` rebuild; removing a
  /// triple that is not present is a no-op, and if nothing was actually
  /// removed the generation is kept.
  ///
  /// The node and predicate dictionaries are shared untouched — ids are
  /// *never* compacted, even when a node loses its last triple — so
  /// dictionary intern order, binary serialization bytes of an unchanged
  /// triple set, and generation-keyed cache keys all survive a
  /// delete/re-insert round trip.
  GraphDatabase WithTriplesRemoved(std::span<const Triple> removed) const;

  /// Predicates whose slab *may* differ from `other`'s, by COW slot
  /// identity: along a Restrict()/WithTriplesAdded()/WithTriplesRemoved()
  /// chain an unchanged predicate shares its slot pointer, so pointer
  /// equality proves content equality and the returned set is the exact
  /// per-predicate dirty set of the publish chain between the two
  /// versions. For databases built independently the set over-approximates
  /// (equal content, different slots) — safe for consumers that treat
  /// "dirty" as "must re-examine". Both databases must share the same
  /// predicate universe.
  std::vector<uint32_t> ChangedPredicates(const GraphDatabase& other) const;

  /// Total CSR footprint of all adjacency matrices (materializes every
  /// lazy predicate — a whole-database statistic by definition).
  size_t ApproxMatrixBytes() const;
  /// What the footprint would be with gap-length-encoded dense rows
  /// (storage-economics report, Sect. 3.3 / 5.1).
  size_t GapEncodedMatrixBytes() const;

  /// True iff this database serves some predicates lazily from an at-rest
  /// backing (an SQSIMDB2/3 load).
  bool HasBacking() const { return backing_ != nullptr; }

  /// Faults in every lazy predicate and returns the first decode failure
  /// (a block whose checksum or encoding is bad) as a Status, where Get()
  /// would abort. A whole-database pass over a loaded file (`convert`)
  /// calls it first. Budget enforcement may evict the slabs again.
  util::Status MaterializeAll() const;

  /// Backing-layer counters; all-zero for a fully in-memory database.
  BackingStats backing_stats() const;

  /// True iff predicate p's slab is materialized right now (always true
  /// for eager slots).
  bool PredicateResident(uint32_t p) const {
    return slots_[p]->IsResident();
  }

  /// Pins residency for the duration of a query: while any pin is held,
  /// budget-driven eviction is deferred, so matrix references obtained
  /// after pinning stay valid until the pin drops. Every solver/engine
  /// entry point takes one; no-op (and free) for in-memory databases.
  ResidencyPin PinResidency() const;

  /// Sets the resident-byte budget on the backing (0 = unbounded).
  /// Enforcement is FIFO over materialization order and runs at
  /// materialization time and when the last pin drops — a single query's
  /// working set may therefore transiently exceed the budget, and one slab
  /// larger than the whole budget stays resident while in use. No-op for
  /// in-memory databases.
  void SetResidentBudget(size_t bytes) const;

 private:
  friend class GraphDatabaseBuilder;
  friend class BinaryIo;
  friend class OutOfCoreBacking;

  GraphDatabase() = default;

  void BuildMatrices(std::vector<Triple>&& triples);

  /// Builds one predicate's slab from its (subject, object) pairs
  /// (consumed; deduplicated by BitMatrix::Build).
  static std::shared_ptr<const PredicateSlab> BuildSlab(
      size_t n, std::vector<std::pair<uint32_t, uint32_t>>&& entries);

  /// Wraps an already-built slab in an always-resident slot.
  static std::shared_ptr<const PredicateSlot> MakeEagerSlot(
      std::shared_ptr<const PredicateSlab> slab);

  /// True iff the slab stores exactly the sorted, deduplicated `entries`.
  static bool SlabMatches(
      const PredicateSlab& slab,
      const std::vector<std::pair<uint32_t, uint32_t>>& entries);

  /// The process-unique stamp source behind generation().
  static uint64_t NextGeneration();

  /// Shared COW tail of Restrict()/WithTriplesAdded(): assembles a sibling
  /// database from per-predicate entry lists, sharing every slot that
  /// already stores its list and keeping the generation when all do.
  /// When `touched` is non-null, predicates it marks false share their
  /// slot unconditionally (their entry list is ignored).
  GraphDatabase RebuildChanged(
      std::vector<std::vector<std::pair<uint32_t, uint32_t>>>&& per_predicate,
      const std::vector<bool>* touched) const;

  std::shared_ptr<const Dictionary> nodes_;
  std::shared_ptr<const Dictionary> predicates_;
  std::shared_ptr<const std::vector<bool>> is_literal_;
  size_t num_triples_ = 0;
  uint64_t generation_ = 0;
  std::vector<std::shared_ptr<const PredicateSlot>> slots_;
  std::shared_ptr<OutOfCoreBacking> backing_;
};

/// The at-rest side of the out-of-core tier: decodes one predicate's slab
/// on demand from a (typically mmap-ed) SQSIMDB2 file, tracks residency
/// counters, and enforces the resident-byte budget.
///
/// Lifecycle of a lazy slab (see docs/ARCHITECTURE.md, "Out-of-core
/// backing"): on-disk → Get() faults → DecodeSlab() → resident (counted in
/// resident_bytes) → budget pressure at materialization time or at
/// last-unpin → evicted (slab freed, slot back to on-disk). Pins
/// (GraphDatabase::PinResidency) defer eviction so in-flight queries keep
/// their references valid.
///
/// Concrete backings (the mmap reader lives in binary_io.cc) implement
/// DecodeSlab(); everything else — counters, FIFO eviction, pin
/// accounting — is shared here.
class OutOfCoreBacking {
 public:
  virtual ~OutOfCoreBacking() = default;

  BackingStats stats() const;

  void SetBudgetBytes(size_t bytes);

  /// Pin accounting used by ResidencyPin. While pins > 0, budget
  /// enforcement is deferred; the last Unpin() runs it.
  void Pin();
  void Unpin();

  /// Drops every resident slab it can (pins permitting); used by tests and
  /// the forced-eviction CI leg. Returns the number of slabs evicted.
  size_t EvictAll();

 protected:
  using Slab = GraphDatabase::PredicateSlab;

  /// Decodes predicate `p` from the at-rest bytes. Thread-safe, called
  /// without backing locks held.
  virtual util::Result<std::shared_ptr<const Slab>> DecodeSlab(
      uint32_t p) const = 0;

  /// Forwarder so concrete backings can assemble slabs through the one
  /// canonical builder.
  static std::shared_ptr<const Slab> BuildSlab(
      size_t n, std::vector<std::pair<uint32_t, uint32_t>>&& entries) {
    return GraphDatabase::BuildSlab(n, std::move(entries));
  }

  /// Registers the slot serving predicate `p` (held weakly; the databases
  /// own the slots). Called by the loader, once per predicate.
  void AttachSlot(uint32_t p,
                  std::weak_ptr<const GraphDatabase::PredicateSlot> slot);

 private:
  friend struct GraphDatabase::PredicateSlot;

  /// Approximate heap bytes of a materialized slab (budget accounting).
  static size_t SlabBytes(const Slab& slab);

  /// Called by PredicateSlot::Fault after a successful decode, outside the
  /// slot lock: updates counters, appends to the eviction FIFO, and — when
  /// over budget with no pins held — evicts oldest-first (never the slab
  /// just materialized).
  void NoteMaterialized(uint32_t p, size_t bytes);

  /// Must hold mu_. Evicts oldest-first until within budget; skips
  /// `keep_predicate` (pass UINT32_MAX to allow all).
  void EnforceBudgetLocked(uint32_t keep_predicate,
                           std::vector<std::shared_ptr<const Slab>>* freed);

  mutable std::mutex mu_;
  std::vector<std::weak_ptr<const GraphDatabase::PredicateSlot>> slots_;
  /// Materialization-order eviction queue: (predicate, approx bytes).
  std::vector<std::pair<uint32_t, size_t>> fifo_;
  size_t budget_bytes_ = 0;
  size_t resident_count_ = 0;
  size_t resident_bytes_ = 0;
  size_t materializations_ = 0;
  size_t evictions_ = 0;
  int64_t pins_ = 0;
  bool enforcement_deferred_ = false;
};

}  // namespace sparqlsim::graph
