#include "sim/hhk_baseline.h"

#include <deque>

#include "util/stopwatch.h"

namespace sparqlsim::sim {

Solution HhkDualSimulation(
    const graph::Graph& pattern, const graph::GraphDatabase& db,
    const std::vector<std::optional<uint32_t>>& constants) {
  util::Stopwatch timer;
  graph::ResidencyPin residency_pin = db.PinResidency();
  const size_t n = db.NumNodes();
  const size_t k = pattern.NumNodes();
  const auto edges = pattern.edges();

  Solution solution;
  solution.candidates.assign(k, util::BitVector(n));
  std::vector<util::BitVector>& sim = solution.candidates;
  for (size_t v = 0; v < k; ++v) {
    if (v < constants.size() && constants[v]) {
      sim[v].Set(*constants[v]);
    } else {
      sim[v].SetAll();
    }
  }

  // Counter tables, one pair per pattern edge.
  std::vector<std::vector<uint32_t>> cnt_fwd(edges.size());
  std::vector<std::vector<uint32_t>> cnt_bwd(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    cnt_fwd[e].assign(n, 0);
    cnt_bwd[e].assign(n, 0);
    if (edges[e].label == kEmptyPredicate) continue;
    const util::BitMatrix& fwd = db.Forward(edges[e].label);
    const util::BitMatrix& bwd = db.Backward(edges[e].label);
    fwd.ForEachRow([&](uint32_t x, std::span<const uint32_t> row) {
      uint32_t count = 0;
      for (uint32_t y : row) count += sim[edges[e].to].Test(y) ? 1 : 0;
      cnt_fwd[e][x] = count;
    });
    bwd.ForEachRow([&](uint32_t y, std::span<const uint32_t> row) {
      uint32_t count = 0;
      for (uint32_t x : row) count += sim[edges[e].from].Test(x) ? 1 : 0;
      cnt_bwd[e][y] = count;
    });
  }

  // Pattern-edge adjacency: which edges read a given pattern node.
  std::vector<std::vector<uint32_t>> edges_from(k), edges_to(k);
  for (size_t e = 0; e < edges.size(); ++e) {
    edges_from[edges[e].from].push_back(static_cast<uint32_t>(e));
    edges_to[edges[e].to].push_back(static_cast<uint32_t>(e));
  }

  std::deque<std::pair<uint32_t, uint32_t>> queue;  // (pattern node, data node)
  auto disqualify = [&](uint32_t v, uint32_t x) {
    sim[v].Reset(x);
    queue.emplace_back(v, x);
  };

  // Initial pass: drop candidates whose counters start at zero.
  for (size_t e = 0; e < edges.size(); ++e) {
    uint32_t v = edges[e].from;
    uint32_t w = edges[e].to;
    sim[v].ForEachSetBit([&](uint32_t x) {
      if (cnt_fwd[e][x] == 0) disqualify(v, x);
    });
    sim[w].ForEachSetBit([&](uint32_t y) {
      if (cnt_bwd[e][y] == 0) disqualify(w, y);
    });
  }

  SolveStats& stats = solution.stats;
  while (!queue.empty()) {
    auto [u, y] = queue.front();
    queue.pop_front();
    ++stats.evaluations;

    // y left sim(u). For every pattern edge (v, a, u): data predecessors of
    // y lose one forward witness.
    for (uint32_t e : edges_to[u]) {
      if (edges[e].label == kEmptyPredicate) continue;
      uint32_t v = edges[e].from;
      const util::BitMatrix& bwd = db.Backward(edges[e].label);
      for (uint32_t x : bwd.Row(y)) {
        if (--cnt_fwd[e][x] == 0 && sim[v].Test(x)) {
          ++stats.updates;
          disqualify(v, x);
        }
      }
    }
    // For every pattern edge (u, a, w): data successors of y lose one
    // backward witness.
    for (uint32_t e : edges_from[u]) {
      if (edges[e].label == kEmptyPredicate) continue;
      uint32_t w = edges[e].to;
      const util::BitMatrix& fwd = db.Forward(edges[e].label);
      for (uint32_t z : fwd.Row(y)) {
        if (--cnt_bwd[e][z] == 0 && sim[w].Test(z)) {
          ++stats.updates;
          disqualify(w, z);
        }
      }
    }
  }

  stats.rounds = 1;
  stats.solve_seconds = timer.ElapsedSeconds();
  return solution;
}

}  // namespace sparqlsim::sim
