#include "util/bitmatrix.h"

#include <algorithm>
#include <cassert>

#include "util/hierarchical_bitvector.h"

namespace sparqlsim::util {

BitMatrix BitMatrix::Build(size_t rows, size_t cols,
                           std::vector<std::pair<uint32_t, uint32_t>>&& entries) {
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

  BitMatrix m(rows, cols);
  for (const auto& [r, c] : entries) {
    assert(r < rows);
    assert(c < cols);
    m.row_presence_.Set(r);
  }
  uint32_t rank = 0;
  const uint64_t* presence = m.row_presence_.words();
  for (size_t w = 0; w < m.row_rank_.size(); ++w) {
    m.row_rank_[w] = rank;
    rank += static_cast<uint32_t>(__builtin_popcountll(presence[w]));
  }
  // `rank` is now the number of non-empty rows: reserve exactly, so no
  // push_back slack outlives the build.
  m.row_offsets_.reserve(rank + 1);
  m.cols_index_.reserve(entries.size());
  for (size_t pos = 0; pos < entries.size(); ++pos) {
    if (pos != 0 && entries[pos].first != entries[pos - 1].first) {
      m.row_offsets_.push_back(static_cast<uint32_t>(pos));
    }
    m.cols_index_.push_back(entries[pos].second);
  }
  if (!entries.empty()) {
    m.row_offsets_.push_back(static_cast<uint32_t>(entries.size()));
  }
  return m;
}

bool BitMatrix::Test(size_t r, size_t c) const {
  auto row = Row(r);
  return std::binary_search(row.begin(), row.end(), static_cast<uint32_t>(c));
}

void BitMatrix::Multiply(const BitVector& x, BitVector* out) const {
  assert(x.size() == rows_);
  assert(out->size() == cols_);
  MultiplyImpl(x, x.Count(), out);
}

void BitMatrix::Multiply(const HierarchicalBitVector& x, size_t x_count,
                         BitVector* out) const {
  assert(x.size() == rows_);
  assert(x_count == x.Count());
  assert(out->size() == cols_);
  MultiplyImpl(x, x_count, out);
}

bool BitMatrix::RowIntersects(size_t r, const BitVector& y) const {
  assert(y.size() == cols_);
  for (uint32_t c : Row(r)) {
    if (y.Test(c)) return true;
  }
  return false;
}

BitVector BitMatrix::ColSummary() const {
  BitVector summary(cols_);
  for (uint32_t c : cols_index_) summary.Set(c);
  return summary;
}

BitMatrix BitMatrix::Transposed() const {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  entries.reserve(Nnz());
  ForEachRow([&](uint32_t r, std::span<const uint32_t> row) {
    for (uint32_t c : row) entries.emplace_back(c, r);
  });
  return Build(cols_, rows_, std::move(entries));
}

size_t BitMatrix::ApproxBytes() const {
  return row_presence_.WordCount() * sizeof(uint64_t) +
         row_rank_.size() * sizeof(uint32_t) +
         row_offsets_.size() * sizeof(uint32_t) +
         cols_index_.size() * sizeof(uint32_t) + sizeof(*this);
}

}  // namespace sparqlsim::util
