#include "sim/soi_cache.h"

#include <algorithm>
#include <utility>

namespace sparqlsim::sim {

std::string SoiCache::MakeKey(uint64_t generation, const std::string& key) {
  return std::to_string(generation) + '\n' + key;
}

SoiCache::Entry* SoiCache::FindEntryLocked(const std::string& full_key) {
  auto it = entries_.find(full_key);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second;
}

void SoiCache::EvictOverCapacityLocked() {
  while (options_.capacity != 0 && entries_.size() > options_.capacity) {
    auto victim = entries_.find(lru_.back());
    ++stats_.soi_evictions;
    if (victim->second.solution != nullptr) {
      ++stats_.solution_evictions;
      --num_solutions_;
    }
    entries_.erase(victim);
    lru_.pop_back();
  }
}

size_t SoiCache::EvictStaleLocked(std::span<const uint64_t> live_generations) {
  size_t dropped = 0;
  auto live = [&](uint64_t g) {
    return std::find(live_generations.begin(), live_generations.end(), g) !=
           live_generations.end();
  };
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!live(it->second.generation)) {
      ++dropped;
      if (it->second.solution != nullptr) {
        ++dropped;
        --num_solutions_;
      }
      lru_.erase(it->second.lru_pos);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

void SoiCache::MaybeCollectGenerationsLocked(uint64_t generation) {
  if (generation <= newest_generation_) return;
  // Generations are process-unique and monotonically increasing, so a
  // newer stamp means every older entry belongs to a database build that
  // this cache's owner has moved past.
  if (options_.generation_gc && newest_generation_ != 0) {
    const uint64_t live[] = {generation};
    stats_.generation_evictions += EvictStaleLocked(live);
  }
  newest_generation_ = generation;
}

std::shared_ptr<const Soi> SoiCache::FindSoi(uint64_t generation,
                                             const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeCollectGenerationsLocked(generation);
  Entry* entry = FindEntryLocked(MakeKey(generation, key));
  if (entry == nullptr) {
    ++stats_.soi_misses;
    return nullptr;
  }
  ++stats_.soi_hits;
  return entry->soi;
}

std::shared_ptr<const Soi> SoiCache::InsertSoi(uint64_t generation,
                                               const std::string& key,
                                               Soi soi) {
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeCollectGenerationsLocked(generation);
  std::string full_key = MakeKey(generation, key);
  auto [it, inserted] = entries_.try_emplace(full_key);
  if (!inserted) {
    // First insert wins (concurrent builders race to store the same
    // artifact); refresh recency and hand back the canonical instance.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.soi;
  }
  lru_.push_front(std::move(full_key));
  it->second.generation = generation;
  it->second.soi = std::make_shared<const Soi>(std::move(soi));
  it->second.lru_pos = lru_.begin();
  std::shared_ptr<const Soi> stored = it->second.soi;
  EvictOverCapacityLocked();
  return stored;
}

std::shared_ptr<const Solution> SoiCache::FindSolution(uint64_t generation,
                                                       const std::string& key,
                                                       const Soi* solved_on) {
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeCollectGenerationsLocked(generation);
  Entry* entry = FindEntryLocked(MakeKey(generation, key));
  // A solution only pairs with the exact SOI instance it was solved on:
  // if the entry was evicted and rebuilt since the caller fetched its SOI,
  // the variable numbering may differ — that is a miss, never a wrong hit.
  if (entry == nullptr || entry->solution == nullptr ||
      entry->soi.get() != solved_on) {
    ++stats_.solution_misses;
    return nullptr;
  }
  ++stats_.solution_hits;
  return entry->solution;
}

std::vector<SoiCache::Solved> SoiCache::FindAllSolved(
    uint64_t generation, std::span<const std::string> keys) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::unordered_map<std::string, Entry>::iterator> found;
  found.reserve(keys.size());
  for (const std::string& key : keys) {
    auto it = entries_.find(MakeKey(generation, key));
    if (it == entries_.end() || it->second.solution == nullptr) return {};
    found.push_back(it);
  }
  std::vector<Solved> solved;
  solved.reserve(found.size());
  for (auto it : found) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    solved.push_back({it->second.soi, it->second.solution});
  }
  stats_.soi_hits += solved.size();
  stats_.solution_hits += solved.size();
  return solved;
}

std::shared_ptr<const Solution> SoiCache::InsertSolution(
    uint64_t generation, const std::string& key, const Soi* solved_on,
    Solution solution) {
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeCollectGenerationsLocked(generation);
  Entry* entry = FindEntryLocked(MakeKey(generation, key));
  if (entry == nullptr || entry->soi.get() != solved_on) {
    // The SOI this solution was solved on is no longer the cached instance
    // (evicted, possibly rebuilt with different variable numbering): hand
    // the solution back un-cached.
    return std::make_shared<const Solution>(std::move(solution));
  }
  if (entry->solution == nullptr) {
    entry->solution = std::make_shared<const Solution>(std::move(solution));
    ++num_solutions_;
  }
  return entry->solution;
}

size_t SoiCache::EvictStaleGenerations(uint64_t live_generation) {
  const uint64_t live[] = {live_generation};
  return EvictStaleGenerations(std::span<const uint64_t>(live));
}

size_t SoiCache::EvictStaleGenerations(
    std::span<const uint64_t> live_generations) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t dropped = EvictStaleLocked(live_generations);
  stats_.generation_evictions += dropped;
  for (uint64_t g : live_generations) {
    if (g > newest_generation_) newest_generation_ = g;
  }
  return dropped;
}

SoiCache::Stats SoiCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t SoiCache::NumSois() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t SoiCache::NumSolutions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_solutions_;
}

void SoiCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  num_solutions_ = 0;
  stats_ = Stats{};
  newest_generation_ = 0;
}

}  // namespace sparqlsim::sim
