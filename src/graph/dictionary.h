#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sparqlsim::graph {

/// Bidirectional string <-> dense-id mapping (dictionary encoding).
///
/// Graph databases in this repository never operate on strings internally:
/// nodes (IRIs and literals) and predicates are interned once and all
/// matrices, candidate vectors, and solution tables are indexed by the
/// resulting dense 32-bit ids.
///
/// The representation is flat, and it is the same in memory and at rest
/// (the dictionary block of an SQSIMDB3 file is these arrays verbatim, see
/// docs/DATASETS.md):
///
///  * blob    — every name's bytes, concatenated in id order;
///  * offsets — size() + 1 entries; name i is blob[offsets[i], offsets[i+1]);
///  * buckets — an open-addressing table of ids, a power of two at most half
///    full, keyed by util::Fnv1a64 of the name and probed linearly; unused
///    buckets hold kEmptyBucket.
///
/// A dictionary either owns the three arrays (the builder path: Intern
/// grows them) or views them inside a mapped file (Map), where a shared
/// owner keeps the mapping alive for as long as any database uses the
/// dictionary. Lookups hash one name and probe; nothing is decoded or
/// allocated up front, so opening a mapped dictionary costs a validation
/// pass, not one allocation per name.
class Dictionary {
 public:
  static constexpr uint32_t kEmptyBucket = UINT32_MAX;

  Dictionary();
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Returns the id of `name`, interning it if new. Ids are dense and
  /// assigned in first-seen order. Only for owned dictionaries.
  uint32_t Intern(std::string_view name);

  /// Sizes the tables for `names` entries up front, so interning that many
  /// never rehashes.
  void Reserve(size_t names);

  /// Returns the id of `name` if present.
  std::optional<uint32_t> Lookup(std::string_view name) const;

  /// Returns the name of an id, which must be valid. For an owned
  /// dictionary the view is invalidated by the next Intern.
  std::string_view Name(uint32_t id) const {
    return {blob_.data() + offsets_[id],
            static_cast<size_t>(offsets_[id + 1] - offsets_[id])};
  }

  /// Number of interned strings (== one past the largest assigned id).
  size_t size() const { return offsets_.size() - 1; }

  std::span<const char> blob() const { return blob_; }
  std::span<const uint64_t> offsets() const { return offsets_; }
  std::span<const uint32_t> buckets() const { return buckets_; }

  /// Bucket count that Intern keeps for `names` entries: the smallest
  /// power of two, at least 8, that is at least twice `names`.
  static size_t BucketCount(size_t names);

  /// Wraps the three arrays of a mapped dictionary without copying them,
  /// after validating them: offsets start at 0, never decrease and end at
  /// the blob's size; the bucket count is a power of two at least twice
  /// the name count; every bucket holds kEmptyBucket or an id below the
  /// name count, and each id appears exactly once; each name's probe
  /// sequence reaches its own id before any other id with an equal name.
  /// The last rule is what rejects duplicate names. `owner` is held for the
  /// dictionary's lifetime.
  static util::Result<std::shared_ptr<const Dictionary>> Map(
      std::span<const char> blob, std::span<const uint64_t> offsets,
      std::span<const uint32_t> buckets, std::shared_ptr<const void> owner);

 private:
  /// The bucket a name's probe sequence starts at.
  size_t HomeBucket(std::string_view name) const;

  /// The one probe loop: from `bucket` (the name's home bucket), the bucket
  /// holding `name`'s id, or the first empty bucket of its probe sequence.
  size_t FindBucket(std::string_view name, size_t bucket) const;
  size_t FindBucket(std::string_view name) const {
    return FindBucket(name, HomeBucket(name));
  }

  /// Rebuilds the owned bucket table with `count` buckets.
  void Rehash(size_t count);

  /// Points the views at the owned arrays after they changed.
  void SyncViews();

  std::vector<char> owned_blob_;
  std::vector<uint64_t> owned_offsets_;
  std::vector<uint32_t> owned_buckets_;

  std::span<const char> blob_;
  std::span<const uint64_t> offsets_;
  std::span<const uint32_t> buckets_;
  std::shared_ptr<const void> owner_;  ///< null for owned dictionaries
};

}  // namespace sparqlsim::graph
