#include "util/counted_accumulator.h"

#include <cassert>

namespace sparqlsim::util {

void CountedAccumulator::WipeLive() {
  uint64_t* words = result_.mutable_words();
  const size_t word_count = result_.WordCount();
  for (size_t w = 0; w < word_count; ++w) {
    uint64_t word = words[w];
    if (word == 0) continue;
    if (wide_) {
      while (word != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
        counts32_[w * BitVector::kWordBits + bit] = 0;
        word &= word - 1;
      }
    } else {
      while (word != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
        counts16_[w * BitVector::kWordBits + bit] = 0;
        word &= word - 1;
      }
    }
    words[w] = 0;
  }
}

size_t CountedAccumulator::Retract(const BitMatrix& a,
                                   const BitVector& removed) {
  size_t cleared = 0;
  removed.ForEachSetBit([&](uint32_t r) {
    for (uint32_t c : a.Row(r)) {
      assert(count(c) > 0 && "retracting a row that was never selected");
      if (Decrement(c) == 0) {
        result_.Reset(c);
        ++cleared;
      }
    }
  });
  return cleared;
}

void CountedAccumulator::Widen() {
  assert(!wide_);
  counts32_.assign(counts16_.begin(), counts16_.end());
  wide_ = true;
}

}  // namespace sparqlsim::util
