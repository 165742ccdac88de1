#include "graph/graph_database.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "util/gap_codec.h"

namespace sparqlsim::graph {

GraphDatabaseBuilder::GraphDatabaseBuilder()
    : nodes_(std::make_shared<Dictionary>()),
      predicates_(std::make_shared<Dictionary>()),
      is_literal_(std::make_shared<std::vector<bool>>()) {}

uint32_t GraphDatabaseBuilder::InternNode(std::string_view name) {
  uint32_t id = nodes_->Intern(name);
  if (id >= is_literal_->size()) is_literal_->resize(id + 1, false);
  return id;
}

uint32_t GraphDatabaseBuilder::InternLiteral(std::string_view value) {
  uint32_t id = nodes_->Intern(value);
  if (id >= is_literal_->size()) {
    is_literal_->resize(id + 1, false);
    (*is_literal_)[id] = true;
  }
  return id;
}

uint32_t GraphDatabaseBuilder::InternPredicate(std::string_view name) {
  return predicates_->Intern(name);
}

util::Status GraphDatabaseBuilder::AddTriple(std::string_view s,
                                             std::string_view p,
                                             std::string_view o) {
  // Intern in subject-predicate-object order so id assignment does not
  // depend on the compiler's argument evaluation order.
  uint32_t s_id = InternNode(s);
  uint32_t p_id = InternPredicate(p);
  uint32_t o_id = InternNode(o);
  return AddTripleIds(s_id, p_id, o_id);
}

util::Status GraphDatabaseBuilder::AddTripleLiteral(std::string_view s,
                                                    std::string_view p,
                                                    std::string_view literal) {
  uint32_t s_id = InternNode(s);
  uint32_t p_id = InternPredicate(p);
  uint32_t o_id = InternLiteral(literal);
  return AddTripleIds(s_id, p_id, o_id);
}

util::Status GraphDatabaseBuilder::AddTripleIds(uint32_t s, uint32_t p,
                                                uint32_t o) {
  if (s >= is_literal_->size() || o >= is_literal_->size() ||
      p >= predicates_->size()) {
    return util::Status::Error("triple references unknown id");
  }
  if ((*is_literal_)[s]) {
    return util::Status::Error("literal '" + std::string(nodes_->Name(s)) +
                               "' used in subject position (Def. 1)");
  }
  triples_.push_back({s, p, o});
  return util::Status::Ok();
}

GraphDatabase GraphDatabaseBuilder::Build() && {
  GraphDatabase db;
  db.nodes_ = nodes_;
  db.predicates_ = predicates_;
  db.is_literal_ = is_literal_;
  db.BuildMatrices(std::move(triples_));
  return db;
}

// ---------------------------------------------------------------------------
// PredicateSlot: decode-on-fault behind the COW slot pointer
// ---------------------------------------------------------------------------

const GraphDatabase::PredicateSlab& GraphDatabase::PredicateSlot::Fault()
    const {
  util::Status status = TryFault();
  if (!status.ok()) {
    // Get() has no error channel (it hands out references on the solver's
    // hot path). Open validates everything but the block payloads, so a
    // decode failure here is a corrupt block or a file changed underneath
    // the mapping; MaterializeAll() is the Status-returning check.
    std::fprintf(stderr,
                 "sparqlsim: fatal: lazy materialization of predicate %u "
                 "failed: %s\n",
                 predicate, status.message().c_str());
    std::abort();
  }
  return *resident.load(std::memory_order_acquire);
}

util::Status GraphDatabase::PredicateSlot::TryFault() const {
  size_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (slab == nullptr) {
      auto decoded = backing->DecodeSlab(predicate);
      if (!decoded.ok()) return decoded.status();
      slab = std::move(decoded).value();
      bytes = OutOfCoreBacking::SlabBytes(*slab);
      resident.store(slab.get(), std::memory_order_release);
    }
  }
  // Counter/budget bookkeeping happens outside the slot lock (the backing
  // mutex is always taken without a slot lock held; eviction takes them in
  // the opposite order). A slab decoded but not yet noted is invisible to
  // the eviction FIFO, which is safe: it just cannot be evicted yet.
  if (bytes != 0) backing->NoteMaterialized(predicate, bytes);
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// OutOfCoreBacking: counters, FIFO eviction, pin accounting
// ---------------------------------------------------------------------------

ResidencyPin::ResidencyPin(std::shared_ptr<OutOfCoreBacking> backing)
    : backing_(std::move(backing)) {
  if (backing_) backing_->Pin();
}

ResidencyPin::~ResidencyPin() {
  if (backing_) backing_->Unpin();
}

ResidencyPin& ResidencyPin::operator=(ResidencyPin&& other) noexcept {
  if (this != &other) {
    if (backing_) backing_->Unpin();
    backing_ = std::move(other.backing_);
  }
  return *this;
}

size_t OutOfCoreBacking::SlabBytes(const Slab& slab) {
  return slab.forward.ApproxBytes() + slab.backward.ApproxBytes();
}

void OutOfCoreBacking::AttachSlot(
    uint32_t p, std::weak_ptr<const GraphDatabase::PredicateSlot> slot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slots_.size() <= p) slots_.resize(p + 1);
  slots_[p] = std::move(slot);
}

BackingStats OutOfCoreBacking::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BackingStats s;
  s.predicates = slots_.size();
  s.resident = resident_count_;
  s.materializations = materializations_;
  s.evictions = evictions_;
  s.resident_bytes = resident_bytes_;
  s.budget_bytes = budget_bytes_;
  return s;
}

void OutOfCoreBacking::SetBudgetBytes(size_t bytes) {
  std::vector<std::shared_ptr<const Slab>> freed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    budget_bytes_ = bytes;
    if (budget_bytes_ == 0) return;
    if (pins_ > 0) {
      enforcement_deferred_ = true;
    } else {
      EnforceBudgetLocked(UINT32_MAX, &freed);
    }
  }
}

void OutOfCoreBacking::Pin() {
  std::lock_guard<std::mutex> lock(mu_);
  ++pins_;
}

void OutOfCoreBacking::Unpin() {
  std::vector<std::shared_ptr<const Slab>> freed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --pins_;
    if (pins_ == 0 && enforcement_deferred_ && budget_bytes_ != 0) {
      enforcement_deferred_ = false;
      EnforceBudgetLocked(UINT32_MAX, &freed);
    }
  }
}

size_t OutOfCoreBacking::EvictAll() {
  std::vector<std::shared_ptr<const Slab>> freed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pins_ > 0) return 0;  // in-flight readers keep their slabs
    size_t saved_budget = budget_bytes_;
    budget_bytes_ = 1;  // evict down to (effectively) nothing
    EnforceBudgetLocked(UINT32_MAX, &freed);
    budget_bytes_ = saved_budget;
  }
  return freed.size();
}

void OutOfCoreBacking::NoteMaterialized(uint32_t p, size_t bytes) {
  std::vector<std::shared_ptr<const Slab>> freed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++materializations_;
    ++resident_count_;
    resident_bytes_ += bytes;
    fifo_.emplace_back(p, bytes);
    if (budget_bytes_ != 0 && resident_bytes_ > budget_bytes_) {
      if (pins_ > 0) {
        enforcement_deferred_ = true;
      } else {
        EnforceBudgetLocked(p, &freed);
      }
    }
  }
  // Freed slabs are released outside mu_ so their (possibly large)
  // destructors never run under the backing lock.
}

void OutOfCoreBacking::EnforceBudgetLocked(
    uint32_t keep_predicate, std::vector<std::shared_ptr<const Slab>>* freed) {
  size_t scan = 0;
  while (resident_bytes_ > budget_bytes_ && scan < fifo_.size()) {
    auto [p, bytes] = fifo_[scan];
    if (p == keep_predicate) {
      ++scan;  // never evict the slab that triggered enforcement
      continue;
    }
    fifo_.erase(fifo_.begin() + static_cast<ptrdiff_t>(scan));
    resident_bytes_ -= bytes < resident_bytes_ ? bytes : resident_bytes_;
    if (resident_count_ > 0) --resident_count_;
    std::shared_ptr<const GraphDatabase::PredicateSlot> slot =
        p < slots_.size() ? slots_[p].lock() : nullptr;
    if (slot != nullptr) {
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      slot->resident.store(nullptr, std::memory_order_release);
      if (slot->slab) freed->push_back(std::move(slot->slab));
      slot->slab.reset();
      ++evictions_;
    }
    // An expired slot means its databases died: the slab is already gone,
    // so only the accounting had to catch up.
  }
}

// ---------------------------------------------------------------------------
// GraphDatabase
// ---------------------------------------------------------------------------

uint64_t GraphDatabase::NextGeneration() {
  static std::atomic<uint64_t> next_generation{0};
  return next_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::shared_ptr<const GraphDatabase::PredicateSlab> GraphDatabase::BuildSlab(
    size_t n, std::vector<std::pair<uint32_t, uint32_t>>&& entries) {
  auto slab = std::make_shared<PredicateSlab>();
  slab->forward = util::BitMatrix::Build(n, n, std::move(entries));
  slab->backward = slab->forward.Transposed();
  return slab;
}

std::shared_ptr<const GraphDatabase::PredicateSlot>
GraphDatabase::MakeEagerSlot(std::shared_ptr<const PredicateSlab> slab) {
  auto slot = std::make_shared<PredicateSlot>();
  slot->nnz = slab->forward.Nnz();
  slot->slab = std::move(slab);
  slot->resident.store(slot->slab.get(), std::memory_order_release);
  return slot;
}

bool GraphDatabase::SlabMatches(
    const PredicateSlab& slab,
    const std::vector<std::pair<uint32_t, uint32_t>>& entries) {
  if (slab.forward.Nnz() != entries.size()) return false;
  // Each run of equal subjects in the sorted, deduplicated list must be
  // exactly that subject's row. With equal nnz, matching every run proves
  // the matrix holds nothing else.
  size_t pos = 0;
  while (pos < entries.size()) {
    const uint32_t s = entries[pos].first;
    for (uint32_t o : slab.forward.Row(s)) {
      if (pos == entries.size() || entries[pos] != std::pair{s, o}) {
        return false;
      }
      ++pos;
    }
    if (pos < entries.size() && entries[pos].first == s) return false;
  }
  return true;
}

void GraphDatabase::BuildMatrices(std::vector<Triple>&& triples) {
  generation_ = NextGeneration();

  size_t n = NumNodes();
  size_t num_predicates = NumPredicates();

  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> per_predicate(
      num_predicates);
  for (const Triple& t : triples) {
    per_predicate[t.predicate].emplace_back(t.subject, t.object);
  }
  triples.clear();
  triples.shrink_to_fit();

  slots_.clear();
  slots_.reserve(num_predicates);
  num_triples_ = 0;
  for (size_t p = 0; p < num_predicates; ++p) {
    slots_.push_back(MakeEagerSlot(BuildSlab(n, std::move(per_predicate[p]))));
    num_triples_ += slots_.back()->nnz;
  }
}

GraphDatabase GraphDatabase::RebuildChanged(
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>>&& per_predicate,
    const std::vector<bool>* touched) const {
  ResidencyPin pin = PinResidency();
  const size_t n = NumNodes();
  GraphDatabase db;
  db.nodes_ = nodes_;
  db.predicates_ = predicates_;
  db.is_literal_ = is_literal_;
  db.backing_ = backing_;  // shared lazy slots keep their fault path
  db.slots_.reserve(slots_.size());
  db.num_triples_ = 0;
  bool any_changed = false;
  for (size_t p = 0; p < slots_.size(); ++p) {
    if (touched != nullptr && !(*touched)[p]) {
      // COW: an untouched predicate shares its slot — and, in the
      // out-of-core tier, stays unmaterialized if it was.
      db.slots_.push_back(slots_[p]);
      db.num_triples_ += slots_[p]->nnz;
      continue;
    }
    auto& entries = per_predicate[p];
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
    // Slot metadata settles most predicates: a count mismatch is a change,
    // and an empty list matching an empty predicate is none. Only the rest
    // fault their slab in to compare.
    if (slots_[p]->nnz == entries.size() &&
        (entries.empty() || SlabMatches(slots_[p]->Get(), entries))) {
      db.slots_.push_back(slots_[p]);  // COW: share the unchanged slot
    } else {
      db.slots_.push_back(MakeEagerSlot(BuildSlab(n, std::move(entries))));
      any_changed = true;
    }
    db.num_triples_ += db.slots_.back()->nnz;
  }
  // A content-identical sibling keeps the generation: caches stay warm and
  // snapshot bookkeeping treats the two as one version.
  db.generation_ = any_changed ? NextGeneration() : generation_;
  return db;
}

util::Status GraphDatabase::MaterializeAll() const {
  for (const auto& slot : slots_) {
    if (slot->backing == nullptr) continue;
    util::Status status = slot->TryFault();
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

std::vector<Triple> GraphDatabase::AllTriples() const {
  ResidencyPin pin = PinResidency();
  std::vector<Triple> result;
  result.reserve(num_triples_);
  ForEachTriple([&](const Triple& t) { result.push_back(t); });
  return result;
}

GraphDatabase GraphDatabase::Restrict(std::span<const Triple> kept) const {
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> per_predicate(
      NumPredicates());
  for (const Triple& t : kept) {
    per_predicate[t.predicate].emplace_back(t.subject, t.object);
  }
  return RebuildChanged(std::move(per_predicate), /*touched=*/nullptr);
}

GraphDatabase GraphDatabase::WithTriplesAdded(
    std::span<const Triple> added) const {
  ResidencyPin pin = PinResidency();
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> per_predicate(
      NumPredicates());
  std::vector<bool> touched(NumPredicates(), false);
  for (const Triple& t : added) {
    per_predicate[t.predicate].emplace_back(t.subject, t.object);
    touched[t.predicate] = true;
  }
  // Only predicates with additions materialize their existing triples into
  // the entry list (RebuildChanged shares every untouched slab outright,
  // and recognizes duplicate-only additions by its lockstep compare).
  for (uint32_t p = 0; p < NumPredicates(); ++p) {
    if (!touched[p]) continue;
    per_predicate[p].reserve(per_predicate[p].size() + slots_[p]->nnz);
    ForEachTriple(p, [&](uint32_t s, uint32_t o) {
      per_predicate[p].emplace_back(s, o);
    });
  }
  return RebuildChanged(std::move(per_predicate), &touched);
}

GraphDatabase GraphDatabase::WithTriplesRemoved(
    std::span<const Triple> removed) const {
  ResidencyPin pin = PinResidency();
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> gone(
      NumPredicates());
  std::vector<bool> touched(NumPredicates(), false);
  for (const Triple& t : removed) {
    gone[t.predicate].emplace_back(t.subject, t.object);
    touched[t.predicate] = true;
  }
  // Touched predicates materialize their surviving entries (existing minus
  // the removal set); RebuildChanged shares every untouched slab outright
  // and recognizes absent-only removals by its lockstep compare, so
  // deleting triples that do not exist is a no-op down to the generation.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> per_predicate(
      NumPredicates());
  for (uint32_t p = 0; p < NumPredicates(); ++p) {
    if (!touched[p]) continue;
    auto& victims = gone[p];
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
    per_predicate[p].reserve(slots_[p]->nnz);
    ForEachTriple(p, [&](uint32_t s, uint32_t o) {
      const std::pair<uint32_t, uint32_t> entry{s, o};
      if (!std::binary_search(victims.begin(), victims.end(), entry)) {
        per_predicate[p].emplace_back(s, o);
      }
    });
  }
  return RebuildChanged(std::move(per_predicate), &touched);
}

std::vector<uint32_t> GraphDatabase::ChangedPredicates(
    const GraphDatabase& other) const {
  std::vector<uint32_t> changed;
  for (uint32_t p = 0; p < NumPredicates(); ++p) {
    if (slots_[p] != other.slots_[p]) changed.push_back(p);
  }
  return changed;
}

size_t GraphDatabase::ApproxMatrixBytes() const {
  ResidencyPin pin = PinResidency();
  size_t total = 0;
  for (const auto& slot : slots_) {
    const PredicateSlab& slab = slot->Get();
    total += slab.forward.ApproxBytes() + slab.backward.ApproxBytes();
  }
  return total;
}

size_t GraphDatabase::GapEncodedMatrixBytes() const {
  ResidencyPin pin = PinResidency();
  size_t total = 0;
  size_t n = NumNodes();
  for (const auto& slot : slots_) {
    slot->Get().forward.ForEachRow(
        [&](uint32_t, std::span<const uint32_t> row) {
          total += util::GapCodec::EncodedSizeFromIndices(row, n);
        });
  }
  return total;
}

BackingStats GraphDatabase::backing_stats() const {
  if (backing_ == nullptr) return BackingStats{};
  return backing_->stats();
}

ResidencyPin GraphDatabase::PinResidency() const {
  return ResidencyPin(backing_);
}

void GraphDatabase::SetResidentBudget(size_t bytes) const {
  if (backing_ != nullptr) backing_->SetBudgetBytes(bytes);
}

}  // namespace sparqlsim::graph
