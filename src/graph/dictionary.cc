#include "graph/dictionary.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <utility>

#include "util/fnv1a.h"

namespace sparqlsim::graph {

Dictionary::Dictionary()
    : owned_offsets_{0}, owned_buckets_(BucketCount(0), kEmptyBucket) {
  SyncViews();
}

size_t Dictionary::BucketCount(size_t names) {
  return std::max<size_t>(8, std::bit_ceil(2 * names));
}

void Dictionary::SyncViews() {
  blob_ = owned_blob_;
  offsets_ = owned_offsets_;
  buckets_ = owned_buckets_;
}

size_t Dictionary::HomeBucket(std::string_view name) const {
  // The FNV-1a hash with its high half folded into the low bits the mask
  // keeps.
  const uint64_t hash = util::Fnv1a64(name);
  return static_cast<size_t>(hash ^ (hash >> 32)) & (buckets_.size() - 1);
}

size_t Dictionary::FindBucket(std::string_view name, size_t bucket) const {
  const size_t mask = buckets_.size() - 1;
  while (buckets_[bucket] != kEmptyBucket && Name(buckets_[bucket]) != name) {
    bucket = (bucket + 1) & mask;
  }
  return bucket;
}

std::optional<uint32_t> Dictionary::Lookup(std::string_view name) const {
  const uint32_t id = buckets_[FindBucket(name)];
  if (id == kEmptyBucket) return std::nullopt;
  return id;
}

uint32_t Dictionary::Intern(std::string_view name) {
  assert(owner_ == nullptr && "mapped dictionaries are immutable");
  size_t bucket = FindBucket(name);
  if (buckets_[bucket] != kEmptyBucket) return buckets_[bucket];
  const uint32_t id = static_cast<uint32_t>(size());
  owned_blob_.insert(owned_blob_.end(), name.begin(), name.end());
  owned_offsets_.push_back(owned_blob_.size());
  if (BucketCount(id + 1) > owned_buckets_.size()) {
    // Growing re-inserts every id in id order, so the table only depends
    // on the names and the bucket count, never on the growth history.
    Rehash(BucketCount(id + 1));
  } else {
    owned_buckets_[bucket] = id;
  }
  SyncViews();
  return id;
}

void Dictionary::Reserve(size_t names) {
  owned_offsets_.reserve(names + 1);
  SyncViews();
  if (BucketCount(names) > owned_buckets_.size()) Rehash(BucketCount(names));
}

void Dictionary::Rehash(size_t count) {
  owned_buckets_.assign(count, kEmptyBucket);
  SyncViews();
  const size_t n = owned_offsets_.size() - 1;
  for (uint32_t id = 0; id < n; ++id) {
    owned_buckets_[FindBucket(Name(id))] = id;
  }
}

util::Result<std::shared_ptr<const Dictionary>> Dictionary::Map(
    std::span<const char> blob, std::span<const uint64_t> offsets,
    std::span<const uint32_t> buckets, std::shared_ptr<const void> owner) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != blob.size()) {
    return util::Status::Error("dictionary offsets do not span the name blob");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return util::Status::Error("dictionary offsets decrease at id " +
                                 std::to_string(i - 1));
    }
  }
  const size_t n = offsets.size() - 1;
  if (n >= kEmptyBucket) {
    return util::Status::Error("dictionary exceeds the 32-bit id space");
  }
  if (!std::has_single_bit(buckets.size()) || buckets.size() < 8 ||
      buckets.size() / 2 < n) {
    return util::Status::Error(
        "dictionary bucket count is not a power of two at least twice the "
        "name count");
  }
  // Each id exactly once: with n ids in buckets.size() >= 2n buckets, at
  // least half the table is empty, so every probe sequence terminates.
  std::vector<uint64_t> seen((n + 63) / 64, 0);
  size_t placed = 0;
  for (uint32_t id : buckets) {
    if (id == kEmptyBucket) continue;
    if (id >= n) {
      return util::Status::Error("dictionary bucket holds id " +
                                 std::to_string(id) + " out of range");
    }
    const uint64_t bit = uint64_t{1} << (id % 64);
    if (seen[id / 64] & bit) {
      return util::Status::Error("dictionary id " + std::to_string(id) +
                                 " appears in two buckets");
    }
    seen[id / 64] |= bit;
    ++placed;
  }
  if (placed != n) {
    return util::Status::Error("dictionary bucket table misses " +
                               std::to_string(n - placed) + " ids");
  }

  std::shared_ptr<Dictionary> dict(new Dictionary());
  dict->owned_offsets_.clear();
  dict->owned_buckets_.clear();
  dict->blob_ = blob;
  dict->offsets_ = offsets;
  dict->buckets_ = buckets;
  dict->owner_ = std::move(owner);
  // Every id must be what a lookup of its own name finds. Names are hashed
  // a batch ahead and their home buckets prefetched: the table outgrows the
  // cache, and overlapping those misses is most of this pass's speed.
  constexpr uint32_t kBatch = 16;
  size_t home[kBatch];
  for (uint32_t base = 0; base < n; base += kBatch) {
    const uint32_t end = static_cast<uint32_t>(std::min<size_t>(n, base + kBatch));
    for (uint32_t id = base; id < end; ++id) {
      home[id - base] = dict->HomeBucket(dict->Name(id));
      __builtin_prefetch(&buckets[home[id - base]]);
    }
    for (uint32_t id = base; id < end; ++id) {
      const uint32_t found =
          buckets[dict->FindBucket(dict->Name(id), home[id - base])];
      if (found == kEmptyBucket) {
        return util::Status::Error("dictionary id " + std::to_string(id) +
                                   " is not reachable from its home bucket");
      }
      if (found != id) {
        return util::Status::Error("duplicate dictionary name (ids " +
                                   std::to_string(found) + " and " +
                                   std::to_string(id) + ")");
      }
    }
  }
  return std::shared_ptr<const Dictionary>(std::move(dict));
}

}  // namespace sparqlsim::graph
