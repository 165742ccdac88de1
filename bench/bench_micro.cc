// Micro-benchmarks (google-benchmark) of the bit kernel that carries the
// SOI solver: dense bit-vector ops, sparse boolean vector-matrix products
// in both evaluation strategies, gap-codec round trips, and an end-to-end
// solve of the paper's (X1) worked example.

#include <benchmark/benchmark.h>

#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "sim/dual_simulation.h"
#include "sim/soi.h"
#include "util/bitmatrix.h"
#include "util/bitvector.h"
#include "util/gap_codec.h"
#include "util/rng.h"

namespace sparqlsim {
namespace {

util::BitVector RandomVector(size_t n, double density, uint64_t seed) {
  util::Rng rng(seed);
  util::BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(density)) v.Set(i);
  }
  return v;
}

util::BitMatrix RandomMatrix(size_t n, size_t nnz, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  entries.reserve(nnz);
  for (size_t i = 0; i < nnz; ++i) {
    entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(n)),
                         static_cast<uint32_t>(rng.NextBounded(n)));
  }
  return util::BitMatrix::Build(n, n, std::move(entries));
}

void BM_BitVectorAnd(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  util::BitVector a = RandomVector(n, 0.5, 1);
  util::BitVector b = RandomVector(n, 0.5, 2);
  for (auto _ : state) {
    util::BitVector copy = a;
    benchmark::DoNotOptimize(copy.AndWith(b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n / 8);
}
BENCHMARK(BM_BitVectorAnd)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitVectorCount(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  util::BitVector a = RandomVector(n, 0.3, 3);
  for (auto _ : state) benchmark::DoNotOptimize(a.Count());
}
BENCHMARK(BM_BitVectorCount)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitVectorIntersects(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  // Worst case: disjoint vectors force a full scan.
  util::BitVector a(n), b(n);
  for (size_t i = 0; i < n; i += 2) a.Set(i);
  for (size_t i = 1; i < n; i += 2) b.Set(i);
  for (auto _ : state) benchmark::DoNotOptimize(a.IntersectsWith(b));
}
BENCHMARK(BM_BitVectorIntersects)->Arg(1 << 12)->Arg(1 << 20);

void BM_MatrixMultiplyRowWise(benchmark::State& state) {
  size_t n = 1 << 16;
  size_t nnz = static_cast<size_t>(state.range(0));
  util::BitMatrix m = RandomMatrix(n, nnz, 4);
  util::BitVector x = RandomVector(n, 0.1, 5);
  util::BitVector out(n);
  for (auto _ : state) {
    m.Multiply(x, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * nnz);
}
BENCHMARK(BM_MatrixMultiplyRowWise)->Arg(1 << 14)->Arg(1 << 18);

void BM_MatrixColumnIntersect(benchmark::State& state) {
  size_t n = 1 << 16;
  util::BitMatrix m = RandomMatrix(n, 1 << 18, 6);
  util::BitVector y = RandomVector(n, 0.05, 7);
  const std::vector<uint32_t> rows = m.RowSummary().ToIndexVector();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.RowIntersects(rows[i % rows.size()], y));
    ++i;
  }
}
BENCHMARK(BM_MatrixColumnIntersect);

void BM_GapCodecRoundTrip(benchmark::State& state) {
  size_t n = 1 << 16;
  util::BitVector v = RandomVector(n, 0.01, 8);
  for (auto _ : state) {
    auto encoded = util::GapCodec::Encode(v);
    benchmark::DoNotOptimize(util::GapCodec::Decode(encoded, n));
  }
}
BENCHMARK(BM_GapCodecRoundTrip);

void BM_SolveMovieX1(benchmark::State& state) {
  graph::GraphDatabase db = datagen::MakeMovieDatabase();
  graph::Graph x1(3);
  x1.AddEdge(0, *db.predicates().Lookup("directed"), 1);
  x1.AddEdge(0, *db.predicates().Lookup("worked_with"), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::LargestDualSimulation(x1, db));
  }
}
BENCHMARK(BM_SolveMovieX1);

void BM_SolveRandomPattern(benchmark::State& state) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 20000;
  config.num_edges = 100000;
  config.num_labels = 4;
  config.seed = 11;
  graph::GraphDatabase db = datagen::MakeRandomDatabase(config);
  graph::Graph pattern = datagen::MakeRandomPattern(5, 2, 4, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::LargestDualSimulation(pattern, db));
  }
}
BENCHMARK(BM_SolveRandomPattern);

}  // namespace
}  // namespace sparqlsim

BENCHMARK_MAIN();
