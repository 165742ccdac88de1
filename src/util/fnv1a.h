#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace sparqlsim::util {

/// FNV-1a, 64-bit. It is part of the at-rest formats: the checksum of the
/// SQSIMDB2/3 predicate blocks and directory, and the bucket key of
/// graph::Dictionary. Changing it changes what files mean.
constexpr uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// Continues a hash from `hash` (pass kFnv1a64Basis to start one), so a
/// checksum can cover non-contiguous ranges.
inline uint64_t Fnv1a64(std::span<const uint8_t> bytes,
                        uint64_t hash = kFnv1a64Basis) {
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// FNV-1a with 64-bit words as the input unit (the SQSIMDB3 dictionary
/// checksum). Each step is a bijection of the running hash, so a change
/// confined to one word is always detected.
inline uint64_t Fnv1a64Words(std::span<const uint64_t> words,
                             uint64_t hash = kFnv1a64Basis) {
  for (uint64_t w : words) {
    hash ^= w;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline uint64_t Fnv1a64(std::string_view text) {
  return Fnv1a64({reinterpret_cast<const uint8_t*>(text.data()), text.size()});
}

}  // namespace sparqlsim::util
