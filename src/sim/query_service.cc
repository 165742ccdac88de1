#include "sim/query_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "sparql/normalize.h"

namespace sparqlsim::sim {
namespace {

/// The service decides the cache lifecycle itself: entries are bounded by
/// the configured capacity, and stale generations are swept against the
/// *live snapshot set* (SweepSnapshotsLocked), not eagerly on the first
/// newer stamp — with MVCC several generations are legitimately alive at
/// once, so the cache's own eager generation GC must stay off.
std::shared_ptr<SoiCache> MakeServiceCache(const QueryServiceOptions& options) {
  if (!options.solver.cache_sois && !options.solver.cache_solutions) {
    return nullptr;
  }
  return std::make_shared<SoiCache>(
      SoiCache::Options{options.cache_capacity, /*generation_gc=*/false});
}

}  // namespace

QueryService::QueryService(const graph::GraphDatabase* db,
                           QueryServiceOptions options)
    : options_(std::move(options)),
      cache_(MakeServiceCache(options_)),
      gate_(options_.queue_depth),
      current_(std::make_shared<const SnapshotContext>(
          db->Snapshot(), options_.solver, cache_)),
      pool_(std::make_unique<util::ThreadPool>(options_.num_workers)) {}

QueryService::~QueryService() {
  // Joining the workers completes every admitted query (the pool drains its
  // queue on destruction), so all outstanding futures get settled.
  pool_.reset();
}

std::string QueryService::MakeKey(uint64_t generation,
                                  const std::string& key) {
  return std::to_string(generation) + '\n' + key;
}

std::shared_ptr<const QueryService::SnapshotContext>
QueryService::CurrentContext() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::shared_ptr<const graph::GraphDatabase> QueryService::CurrentSnapshot()
    const {
  return CurrentContext()->db;
}

uint64_t QueryService::CurrentGeneration() const {
  return CurrentContext()->db->generation();
}

const SimEngine& QueryService::engine() const { return CurrentContext()->engine; }

std::future<PruneReport> QueryService::Submit(const sparql::Query& query,
                                              const SubmitOptions& submit) {
  const std::string key = sparql::CanonicalPatternKey(*query.where);
  std::promise<PruneReport> promise;
  std::future<PruneReport> future = promise.get_future();

  if (submit.deadline.has_value()) {
    // Deadline path: the budget starts now (queueing counts against it),
    // and the solve is solo — a truncated report is only ever delivered to
    // the submission that asked for the deadline, and dedup waiters are
    // never slowed down by a budgeted run or served its truncation.
    const auto deadline = std::chrono::steady_clock::now() + *submit.deadline;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++submitted_;
    }
    gate_.Acquire(submit.priority);
    auto owned = std::make_shared<const sparql::Query>(query.Clone());
    std::shared_ptr<const SnapshotContext> context;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      context = current_;  // pin at admission
      peak_in_flight_ = std::max(peak_in_flight_, gate_.InUse());
    }
    auto shared_promise =
        std::make_shared<std::promise<PruneReport>>(std::move(promise));
    pool_->Submit([this, context, owned, deadline, shared_promise]() mutable {
      RunDeadlineQuery(std::move(context), std::move(owned), deadline,
                       std::move(*shared_promise));
    });
    return future;
  }

  std::shared_ptr<const SnapshotContext> context;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++submitted_;
    auto it = in_flight_.find(MakeKey(current_->db->generation(), key));
    if (it != in_flight_.end()) {
      ++coalesced_;
      it->second->waiters.push_back(std::move(promise));
      return future;
    }
    context = current_;
  }

  // A query whose solutions are all cached needs no solve, only triple
  // extraction, so the submitting thread answers it. On a worker it would
  // cost two thread wake-ups for well under a millisecond of work, and on a
  // loaded host those wake-ups, not the work, would set the rate of hits.
  if (std::optional<PruneReport> report = context->engine.PruneCached(query)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++executed_;
      context.reset();
      SweepSnapshotsLocked();
    }
    promise.set_value(std::move(*report));
    return future;
  }
  // Unpinned while waiting for a slot: a blocked producer must not keep a
  // retired snapshot (and its cache generation) alive.
  context.reset();

  // New work: take an admission slot. This is the backpressure point — it
  // blocks while queue_depth queries are in flight, and must happen outside
  // the map lock so coalescing submissions and finishing workers proceed.
  gate_.Acquire(submit.priority);

  auto owned = std::make_shared<const sparql::Query>(query.Clone());
  std::string full_key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Pin the snapshot current *now* — the database may have advanced while
    // we waited for the slot, and the query must solve against one
    // consistent version for its whole run.
    context = current_;
    full_key = MakeKey(context->db->generation(), key);
    // Someone may have admitted the same (generation, key) while we waited.
    auto [it, inserted] = in_flight_.try_emplace(full_key);
    if (!inserted) {
      ++coalesced_;
      it->second->waiters.push_back(std::move(promise));
      gate_.Release();
      return future;
    }
    it->second = std::make_shared<InFlight>();
    it->second->waiters.push_back(std::move(promise));
    peak_in_flight_ = std::max(peak_in_flight_, gate_.InUse());
  }
  // Move the pin into the task: RunQuery must drop the *last* in-flight
  // reference when it sweeps, or the retired snapshot outlives its sweep
  // inside the lambda capture.
  pool_->Submit([this, full_key, context = std::move(context),
                 owned]() mutable {
    RunQuery(full_key, std::move(context), owned);
  });
  return future;
}

void QueryService::RunQuery(const std::string& full_key,
                            std::shared_ptr<const SnapshotContext> context,
                            std::shared_ptr<const sparql::Query> query) {
  if (options_.solve_hook) options_.solve_hook();
  PruneReport report = context->engine.Prune(*query);

  std::vector<std::promise<PruneReport>> waiters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = in_flight_.find(full_key);
    waiters = std::move(it->second->waiters);
    in_flight_.erase(it);
    ++executed_;
    // Dropping the pin below may retire this query's snapshot for good;
    // sweep so its cache generation is collected promptly, not on the
    // next publish.
    context.reset();
    SweepSnapshotsLocked();
  }
  // Slot freed before settling the promises: a waiter that immediately
  // resubmits the same query must find the map entry gone (fresh solve),
  // and a producer blocked in Acquire should not wait on promise fan-out.
  gate_.Release();

  for (size_t i = 0; i + 1 < waiters.size(); ++i) {
    waiters[i].set_value(report);
  }
  waiters.back().set_value(std::move(report));
}

void QueryService::RunDeadlineQuery(
    std::shared_ptr<const SnapshotContext> context,
    std::shared_ptr<const sparql::Query> query,
    std::chrono::steady_clock::time_point deadline,
    std::promise<PruneReport> promise) {
  if (options_.solve_hook) options_.solve_hook();
  SolveControl control;
  control.deadline = deadline;
  PruneReport report = context->engine.Prune(*query, &control);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++executed_;
    if (report.truncated) ++deadline_truncated_;
    context.reset();
    SweepSnapshotsLocked();
  }
  gate_.Release();
  promise.set_value(std::move(report));
}

std::vector<PruneReport> QueryService::SubmitBatch(
    const std::vector<sparql::Query>& queries) {
  std::vector<std::future<PruneReport>> futures;
  futures.reserve(queries.size());
  for (const sparql::Query& query : queries) futures.push_back(Submit(query));
  std::vector<PruneReport> reports;
  reports.reserve(queries.size());
  for (std::future<PruneReport>& f : futures) reports.push_back(f.get());
  return reports;
}

uint64_t QueryService::PublishLocked(graph::GraphDatabase&& next) {
  auto next_context = std::make_shared<const SnapshotContext>(
      std::make_shared<const graph::GraphDatabase>(std::move(next)),
      options_.solver, cache_);
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t previous_generation = current_->db->generation();
  const uint64_t generation = next_context->db->generation();
  retired_.push_back(current_);
  current_ = std::move(next_context);
  if (generation != previous_generation) ++snapshots_published_;
  SweepSnapshotsLocked();
  return generation;
}

uint64_t QueryService::ApplyRestrict(std::span<const graph::Triple> kept) {
  // publish_mutex_ makes compute+publish atomic against other writers, so
  // each writer derives from the latest version; readers are untouched —
  // they keep solving on their pinned snapshots throughout.
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  graph::GraphDatabase next = CurrentContext()->db->Restrict(kept);
  const uint64_t generation = PublishLocked(std::move(next));
  NotifySubscribersLocked();
  return generation;
}

uint64_t QueryService::IngestTriples(std::span<const graph::Triple> added) {
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  graph::GraphDatabase next = CurrentContext()->db->WithTriplesAdded(added);
  const uint64_t generation = PublishLocked(std::move(next));
  NotifySubscribersLocked();
  return generation;
}

uint64_t QueryService::DeleteTriples(std::span<const graph::Triple> removed) {
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  graph::GraphDatabase next = CurrentContext()->db->WithTriplesRemoved(removed);
  const uint64_t generation = PublishLocked(std::move(next));
  NotifySubscribersLocked();
  return generation;
}

QueryService::Subscription::Subscription(
    const sparql::Query& query,
    std::shared_ptr<const graph::GraphDatabase> snapshot,
    StandingQueryOptions options)
    : standing_(query, std::move(snapshot), std::move(options)) {
  // The registration-time cold solve is the subscriber's first report.
  pending_.push_back(standing_.report());
}

void QueryService::Subscription::OnPublish(
    std::shared_ptr<const graph::GraphDatabase> next) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back(standing_.ApplySnapshot(std::move(next)));
}

std::vector<PruneReport> QueryService::Subscription::TakeReports() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PruneReport> out;
  out.swap(pending_);
  return out;
}

PruneReport QueryService::Subscription::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return standing_.report();
}

StandingStats QueryService::Subscription::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return standing_.stats();
}

uint64_t QueryService::Subscription::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return standing_.generation();
}

std::shared_ptr<QueryService::Subscription> QueryService::Subscribe(
    const sparql::Query& query) {
  // Under publish_mutex_ so the cold solve and the weak registration are
  // atomic against publishes: the subscription sees exactly one report per
  // generation from its pinned snapshot onward — none skipped, none
  // doubled.
  std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  StandingQueryOptions standing_options;
  standing_options.solver = options_.solver;
  auto subscription = std::shared_ptr<Subscription>(new Subscription(
      query, CurrentContext()->db, std::move(standing_options)));
  std::lock_guard<std::mutex> lock(mutex_);
  subscriptions_.push_back(subscription);
  ++subscription_reports_;  // the initial cold report
  return subscription;
}

void QueryService::NotifySubscribersLocked() {
  std::vector<std::shared_ptr<Subscription>> live;
  std::shared_ptr<const graph::GraphDatabase> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = current_->db;
    subscriptions_.erase(
        std::remove_if(subscriptions_.begin(), subscriptions_.end(),
                       [](const auto& weak) { return weak.expired(); }),
        subscriptions_.end());
    if (subscriptions_.empty()) return;
    live.reserve(subscriptions_.size());
    for (const auto& weak : subscriptions_) {
      if (auto pinned = weak.lock()) live.push_back(std::move(pinned));
    }
  }
  // Maintenance runs outside mutex_ (readers keep submitting) but under
  // publish_mutex_ (reports stay in publish order). Lock order:
  // publish_mutex_ -> Subscription::mutex_, and separately
  // publish_mutex_ -> mutex_; never mutex_ -> Subscription::mutex_.
  for (const auto& subscription : live) {
    subscription->OnPublish(snapshot);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  subscription_reports_ += live.size();
}

void QueryService::SweepSnapshotsLocked() {
  // A retired version is dead once its last pinning query finished; the
  // weak_ptr observes exactly that.
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const auto& weak) { return weak.expired(); }),
                 retired_.end());
  std::vector<uint64_t> live_generations;
  live_generations.reserve(retired_.size() + 1);
  live_generations.push_back(current_->db->generation());
  size_t live = 1;
  for (const auto& weak : retired_) {
    if (auto pinned = weak.lock()) {
      ++live;
      live_generations.push_back(pinned->db->generation());
    }
  }
  snapshots_live_ = live;
  peak_snapshots_live_ = std::max(peak_snapshots_live_, live);
  if (cache_ != nullptr) {
    // MVCC-exact cache GC: drop entries for every generation no pinned
    // snapshot can reach anymore, keep everything a live version may
    // still query. (The raw-integer newest-generation sweep would evict
    // entries still serving pinned readers.)
    std::sort(live_generations.begin(), live_generations.end());
    live_generations.erase(
        std::unique(live_generations.begin(), live_generations.end()),
        live_generations.end());
    cache_->EvictStaleGenerations(live_generations);
  }
}

void QueryService::Drain() { gate_.WaitIdle(); }

QueryService::Stats QueryService::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.submitted = submitted_;
    out.executed = executed_;
    out.coalesced = coalesced_;
    out.peak_in_flight = peak_in_flight_;
    out.snapshots_published = snapshots_published_;
    out.snapshots_live = snapshots_live_;
    out.peak_snapshots_live = peak_snapshots_live_;
    out.deadline_truncated = deadline_truncated_;
    out.subscription_reports = subscription_reports_;
    for (const auto& weak : subscriptions_) {
      if (!weak.expired()) ++out.subscriptions;
    }
  }
  out.gate = gate_.stats();
  if (cache_ != nullptr) {
    out.cache = cache_->stats();
    out.cached_sois = cache_->NumSois();
    out.cached_solutions = cache_->NumSolutions();
  }
  return out;
}

}  // namespace sparqlsim::sim
