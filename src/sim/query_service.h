#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph_database.h"
#include "sim/sim_engine.h"
#include "sim/soi_cache.h"
#include "sim/solver.h"
#include "sim/standing_query.h"
#include "sparql/ast.h"
#include "util/admission_gate.h"
#include "util/thread_pool.h"

namespace sparqlsim::sim {

struct QueryServiceOptions {
  /// Service worker threads executing whole queries (query-level
  /// parallelism); 0 = hardware concurrency. Intra-query parallelism is a
  /// separate knob: `solver.num_threads` (default 1 keeps each query on its
  /// worker, the right shape for a loaded server).
  size_t num_workers = 0;

  /// Max queries admitted but not yet completed. Submit blocks once the
  /// bound is reached — backpressure instead of unbounded queue growth.
  /// Coalesced duplicates ride along without consuming a slot. 0 is
  /// clamped to 1.
  size_t queue_depth = 64;

  /// Entry bound of the service's SoiCache (0 = unbounded); an entry is
  /// one SOI plus, once solved, its attached solution.
  size_t cache_capacity = 0;

  /// Per-query solver policy; `cache_sois`/`cache_solutions` toggle the
  /// service cache as for a plain SimEngine.
  SolverOptions solver;

  /// Test seam: invoked on the worker thread immediately before a query is
  /// solved. Lets tests pin a worker mid-flight to observe deterministic
  /// coalescing/backpressure. Null in production.
  std::function<void()> solve_hook;
};

/// Per-submission knobs; the default value is the historical behavior
/// (high priority, no deadline).
struct SubmitOptions {
  /// Admission class. kLow yields freed slots to every waiting kHigh
  /// producer — bulk traffic cannot starve interactive queries; see
  /// util::AdmissionGate.
  util::AdmissionGate::Priority priority =
      util::AdmissionGate::Priority::kHigh;

  /// Compute budget, measured from Submit() (queueing counts against it).
  /// On expiry the fixpoint stops at the next round boundary and the
  /// report comes back with `truncated` set — a sound over-approximation,
  /// never cached and never shared: a deadlined submission bypasses
  /// in-flight coalescing entirely, so it can neither serve another
  /// waiter a truncated answer nor be slowed down by a shared solve.
  std::optional<std::chrono::milliseconds> deadline;
};

/// The async front end above SimEngine: accepts queries from any thread,
/// runs them on an owned util::ThreadPool behind a bounded two-class
/// admission queue, and deduplicates in-flight identical queries.
///
///   Submit(query)  ->  std::future<PruneReport>
///
/// Identity for deduplication is (database generation,
/// sparql::CanonicalPatternKey of the WHERE pattern): two submissions whose
/// patterns are canonically equal, admitted against the same snapshot,
/// share one solve while the first is in flight, and every waiter receives
/// the full PruneReport. After the in-flight entry completes, the next
/// identical submission finds its solution in the SoiCache. A submission
/// whose every union-free branch has a cached solution skips the admission
/// queue and the pool: Submit extracts its triples on the calling thread
/// and returns a ready future (so SubmitBatch runs such hits one after
/// another). Everything else is admitted and solved on a worker.
///
/// MVCC serving: the service owns an evolving chain of immutable database
/// snapshots (graph::GraphDatabase::Snapshot(), copy-on-write per-predicate
/// slabs). A query pins the snapshot current at its admission and solves
/// against it for its whole lifetime; ApplyRestrict()/IngestTriples()
/// build the successor version from the newest snapshot and publish it
/// without blocking readers — in-flight queries keep their pinned version,
/// later admissions see the new one. Publication never invalidates the
/// whole cache: entries are keyed by generation, an unchanged predicate
/// slab is shared (so a no-op publish keeps even the generation), and the
/// cache is swept against the *live* generation set — everything some
/// pinned snapshot can still reach — rather than nuked on every write.
///
/// Determinism: every query solves through a SimEngine whose results are
/// bit-identical for any thread count, and concurrent queries share
/// only immutable snapshots and the mutex-guarded SoiCache (whose contents
/// never change a result, only whether it is recomputed). A concurrent
/// submission mix therefore yields reports bit-identical to a sequential
/// SimEngine::Prune of the same queries against the snapshots they pinned,
/// for any worker count, queue depth, or cache capacity —
/// tests/query_service_test.cc and tests/snapshot_mvcc_test.cc hold this
/// under TSan.
///
/// Thread-safety: all public methods may be called from any thread;
/// writers (ApplyRestrict/IngestTriples) serialize among themselves but
/// not against readers. The destructor drains in-flight queries; do not
/// race it against Submit.
class QueryService {
 public:
  struct Stats {
    /// Submissions accepted (Submit calls; SubmitBatch counts each query).
    size_t submitted = 0;
    /// Queries run by the service: solved on a worker, or answered from
    /// the solution cache on the submitting thread.
    size_t executed = 0;
    /// Submissions answered by attaching to an in-flight duplicate.
    /// submitted == executed + coalesced once drained.
    size_t coalesced = 0;
    /// High-water mark of admitted-but-unfinished queries (bounded by
    /// queue_depth).
    size_t peak_in_flight = 0;
    /// Service cache snapshot (zero-valued when caching is off).
    SoiCache::Stats cache;
    size_t cached_sois = 0;
    size_t cached_solutions = 0;
    /// Content-changing publications (ApplyRestrict/IngestTriples that
    /// produced a new generation; no-op writes don't count).
    size_t snapshots_published = 0;
    /// Snapshot versions currently reachable: the serving snapshot plus
    /// every retired one still pinned by an in-flight query.
    size_t snapshots_live = 0;
    size_t peak_snapshots_live = 0;
    /// Reports returned with `truncated` set (deadline expiry).
    size_t deadline_truncated = 0;
    /// Standing queries currently registered (live Subscription handles).
    size_t subscriptions = 0;
    /// Reports delivered to subscriptions: one per live subscription per
    /// publication, plus each subscription's initial cold report.
    size_t subscription_reports = 0;
    /// Per-priority-class admission counters (waits, blocks).
    util::AdmissionGate::Stats gate;
    /// Always 0: kept only for perfbench's `sim.scratch_reuse_ratio`.
    uint64_t scratch_reuses = 0;
    uint64_t scratch_allocs = 0;
  };

  /// A standing query registered with Subscribe(). The service drives it
  /// from the publish path: every ApplyRestrict/IngestTriples/
  /// DeleteTriples re-converges the standing solution onto the published
  /// snapshot (incremental maintenance; see sim::StandingQuery) and
  /// appends the resulting PruneReport, in publish order, for the
  /// subscriber to drain with TakeReports(). The first pending report is
  /// the registration-time cold solve. Dropping the shared_ptr handle
  /// unsubscribes (the service holds subscriptions weakly).
  ///
  /// Thread-safety: TakeReports/Current/stats may race the publish path
  /// freely; maintenance itself runs on the publisher's thread, so
  /// publish latency includes subscription upkeep — the price of reports
  /// that are exact per generation and never skip one.
  class Subscription {
   public:
    /// Reports not yet taken, in publish order; empties the queue.
    std::vector<PruneReport> TakeReports();
    /// Copy of the latest converged report.
    PruneReport Current() const;
    /// Maintenance counters (maintained vs recomputed branches, arming
    /// fractions, carried state).
    StandingStats stats() const;
    /// Generation the standing solution is currently converged against.
    uint64_t generation() const;

   private:
    friend class QueryService;
    Subscription(const sparql::Query& query,
                 std::shared_ptr<const graph::GraphDatabase> snapshot,
                 StandingQueryOptions options);
    /// Publish-path hook: re-converge onto `next` and queue the report.
    void OnPublish(std::shared_ptr<const graph::GraphDatabase> next);

    mutable std::mutex mutex_;
    StandingQuery standing_;
    std::vector<PruneReport> pending_;
  };

  /// Binds the service to a snapshot of `*db` taken at construction
  /// (copy-on-write: O(predicates) pointer copies). The pointee is not
  /// retained — later changes to `*db` are invisible; evolve the service's
  /// database through ApplyRestrict()/IngestTriples().
  explicit QueryService(const graph::GraphDatabase* db,
                        QueryServiceOptions options = {});
  /// Drains: blocks until every admitted query has completed.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one query. Blocks while queue_depth queries are in flight
  /// (unless the query coalesces onto an in-flight duplicate). The future
  /// never carries an exception.
  std::future<PruneReport> Submit(const sparql::Query& query,
                                  const SubmitOptions& submit = {});

  /// Submits all queries (concurrently, subject to the admission bound) and
  /// blocks for the results, returned in submission order.
  std::vector<PruneReport> SubmitBatch(
      const std::vector<sparql::Query>& queries);

  /// Publishes the restriction of the *newest* snapshot to `kept` as the
  /// next database version (see GraphDatabase::Restrict). Returns the
  /// published generation — unchanged if the restriction was a no-op.
  /// Does not block readers; in-flight queries finish on their pinned
  /// snapshots.
  uint64_t ApplyRestrict(std::span<const graph::Triple> kept);

  /// Publishes the newest snapshot plus `added` (ids must be interned; see
  /// GraphDatabase::WithTriplesAdded) as the next version. Returns the
  /// published generation. Does not block readers.
  uint64_t IngestTriples(std::span<const graph::Triple> added);

  /// Publishes the newest snapshot minus `removed` (absent triples are
  /// ignored; node ids are never compacted — see
  /// GraphDatabase::WithTriplesRemoved) as the next version. Returns the
  /// published generation — unchanged if nothing was removed. Does not
  /// block readers.
  uint64_t DeleteTriples(std::span<const graph::Triple> removed);

  /// Registers `query` as a standing query against the current snapshot
  /// (cold-solving it inline) and returns its handle; every later publish
  /// appends an incrementally maintained report. Dropping the handle
  /// unsubscribes.
  std::shared_ptr<Subscription> Subscribe(const sparql::Query& query);

  /// The snapshot new admissions currently pin. Holding the returned
  /// pointer keeps the version (and its cache generation) alive.
  std::shared_ptr<const graph::GraphDatabase> CurrentSnapshot() const;
  /// generation() of CurrentSnapshot().
  uint64_t CurrentGeneration() const;

  /// Blocks until no query is in flight.
  void Drain();

  Stats stats() const;
  const QueryServiceOptions& options() const { return options_; }
  /// The engine serving the current snapshot. Only meaningful while no
  /// publisher runs concurrently (the engine may be retired underneath a
  /// caller that races ApplyRestrict/IngestTriples) — a test/tool accessor.
  const SimEngine& engine() const;

 private:
  /// One published database version: the pinned snapshot and the engine
  /// lane solving against it. Queries hold the context shared_ptr for
  /// their whole run — destruction of a retired version happens exactly
  /// when its last query finishes (observable through `retired_`).
  struct SnapshotContext {
    std::shared_ptr<const graph::GraphDatabase> db;
    SimEngine engine;

    SnapshotContext(std::shared_ptr<const graph::GraphDatabase> snapshot,
                    const SolverOptions& solver,
                    std::shared_ptr<SoiCache> cache)
        : db(std::move(snapshot)),
          engine(db.get(), solver, std::move(cache)) {}
  };

  struct InFlight {
    std::vector<std::promise<PruneReport>> waiters;
  };

  /// Dedup key: queries pinned to different snapshot generations must not
  /// share a solve (their answers may differ).
  static std::string MakeKey(uint64_t generation, const std::string& key);

  std::shared_ptr<const SnapshotContext> CurrentContext() const;

  /// Installs `next` as the serving version; the previous context retires
  /// (tracked weakly until its pins drain). Caller holds publish_mutex_.
  uint64_t PublishLocked(graph::GraphDatabase&& next);

  /// Drops drained retired versions, refreshes the live-snapshot gauges,
  /// and sweeps the cache down to the live generation set. mutex_ held.
  void SweepSnapshotsLocked();

  /// Re-converges every live subscription onto the just-published snapshot
  /// (pruning dead weak_ptrs). Caller holds publish_mutex_, so reports are
  /// delivered in publish order and no generation is skipped; maintenance
  /// runs on the publisher's thread.
  void NotifySubscribersLocked();

  /// Worker-side: solve on the pinned snapshot, then settle every waiter
  /// of `full_key`.
  void RunQuery(const std::string& full_key,
                std::shared_ptr<const SnapshotContext> context,
                std::shared_ptr<const sparql::Query> query);

  /// Worker-side deadline path: solo solve (no dedup entry to settle).
  void RunDeadlineQuery(std::shared_ptr<const SnapshotContext> context,
                        std::shared_ptr<const sparql::Query> query,
                        std::chrono::steady_clock::time_point deadline,
                        std::promise<PruneReport> promise);

  QueryServiceOptions options_;
  std::shared_ptr<SoiCache> cache_;  // null when caching is off
  util::AdmissionGate gate_;

  /// Serializes writers: compute-next-version + publish is one critical
  /// section so concurrent ApplyRestrict/IngestTriples linearize. Readers
  /// never take it.
  std::mutex publish_mutex_;

  mutable std::mutex mutex_;
  std::shared_ptr<const SnapshotContext> current_;
  /// Retired versions, held weakly: alive exactly while some in-flight
  /// query still pins them.
  std::vector<std::weak_ptr<const SnapshotContext>> retired_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> in_flight_;
  size_t submitted_ = 0;
  size_t executed_ = 0;
  size_t coalesced_ = 0;
  size_t peak_in_flight_ = 0;
  size_t snapshots_published_ = 0;
  size_t snapshots_live_ = 1;
  size_t peak_snapshots_live_ = 1;
  size_t deadline_truncated_ = 0;
  /// Standing queries, held weakly: a dropped handle unsubscribes itself
  /// at the next publish. Guarded by mutex_; OnPublish runs outside it.
  std::vector<std::weak_ptr<Subscription>> subscriptions_;
  size_t subscription_reports_ = 0;

  /// Declared last: destroyed first, which joins the workers while every
  /// member they touch is still alive.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace sparqlsim::sim
