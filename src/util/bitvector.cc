#include "util/bitvector.h"

#include <algorithm>
#include <cassert>

#include "util/simd_dispatch.h"

namespace sparqlsim::util {

namespace {
constexpr size_t WordsFor(size_t num_bits) {
  return (num_bits + BitVector::kWordBits - 1) / BitVector::kWordBits;
}
}  // namespace

BitVector::BitVector(size_t num_bits, bool initial)
    : num_bits_(num_bits),
      words_(WordsFor(num_bits), initial ? ~uint64_t{0} : uint64_t{0}) {
  MaskTail();
}

BitVector BitVector::FromIndices(size_t num_bits,
                                 const std::vector<uint32_t>& indices) {
  BitVector v(num_bits);
  for (uint32_t i : indices) v.Set(i);
  return v;
}

void BitVector::Resize(size_t num_bits) {
  num_bits_ = num_bits;
  words_.resize(WordsFor(num_bits), 0);
  MaskTail();
}

void BitVector::Set(size_t i) {
  assert(i < num_bits_);
  words_[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
}

void BitVector::Reset(size_t i) {
  assert(i < num_bits_);
  words_[i / kWordBits] &= ~(uint64_t{1} << (i % kWordBits));
}

void BitVector::Assign(size_t i, bool value) {
  if (value) {
    Set(i);
  } else {
    Reset(i);
  }
}

bool BitVector::Test(size_t i) const {
  assert(i < num_bits_);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
}

void BitVector::SetRange(size_t begin, size_t len) {
  if (len == 0) return;
  assert(begin + len <= num_bits_);
  const size_t end = begin + len;  // exclusive
  size_t w = begin / kWordBits;
  const size_t w_last = (end - 1) / kWordBits;
  const uint64_t first_mask = ~uint64_t{0} << (begin % kWordBits);
  const uint64_t last_mask =
      end % kWordBits == 0 ? ~uint64_t{0}
                           : (uint64_t{1} << (end % kWordBits)) - 1;
  if (w == w_last) {
    words_[w] |= first_mask & last_mask;
    return;
  }
  words_[w] |= first_mask;
  for (++w; w < w_last; ++w) words_[w] = ~uint64_t{0};
  words_[w_last] |= last_mask;
}

void BitVector::SetAll() {
  std::fill(words_.begin(), words_.end(), ~uint64_t{0});
  MaskTail();
}

void BitVector::ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

size_t BitVector::Count() const {
  return ActiveKernels().popcount_words(words_.data(), words_.size());
}

bool BitVector::Any() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

bool BitVector::AndWith(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  bool changed = false;
  ActiveKernels().and_words(words_.data(), other.words_.data(), words_.size(),
                            &changed);
  return changed;
}

bool BitVector::OrWith(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  bool changed = false;
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t updated = words_[i] | other.words_[i];
    changed |= (updated != words_[i]);
    words_[i] = updated;
  }
  return changed;
}

bool BitVector::AndNotWith(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  bool changed = false;
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t updated = words_[i] & ~other.words_[i];
    changed |= (updated != words_[i]);
    words_[i] = updated;
  }
  return changed;
}

bool BitVector::IntersectsWith(const BitVector& other) const {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool BitVector::IsSubsetOf(const BitVector& other) const {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

int64_t BitVector::FindFirst() const {
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return static_cast<int64_t>(w * kWordBits +
                                  static_cast<size_t>(__builtin_ctzll(words_[w])));
    }
  }
  return -1;
}

int64_t BitVector::FindNext(size_t i) const {
  size_t next = i + 1;
  if (next >= num_bits_) return -1;
  size_t w = next / kWordBits;
  uint64_t word = words_[w] >> (next % kWordBits);
  if (word != 0) {
    return static_cast<int64_t>(next + static_cast<size_t>(__builtin_ctzll(word)));
  }
  for (++w; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return static_cast<int64_t>(w * kWordBits +
                                  static_cast<size_t>(__builtin_ctzll(words_[w])));
    }
  }
  return -1;
}

std::vector<uint32_t> BitVector::ToIndexVector() const {
  std::vector<uint32_t> indices;
  indices.reserve(Count());
  ForEachSetBit([&](uint32_t i) { indices.push_back(i); });
  return indices;
}

std::string BitVector::ToString() const {
  std::string out(num_bits_, '0');
  ForEachSetBit([&](uint32_t i) { out[i] = '1'; });
  return out;
}

void BitVector::MaskTail() {
  size_t tail = num_bits_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

}  // namespace sparqlsim::util
