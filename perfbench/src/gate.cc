#include "gate.h"

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

namespace sim = sparqlsim::sim;

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t* h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (value >> (8 * i)) & 0xff;
    *h *= kFnvPrime;
  }
}

}  // namespace

ReportDigest Digest(const sim::PruneReport& report) {
  ReportDigest digest;
  digest.kept_count = report.kept_triples.size();
  digest.truncated = report.truncated;
  uint64_t h = kFnvOffset;
  for (const auto& t : report.kept_triples) {
    Mix(&h, (static_cast<uint64_t>(t.subject) << 32) | t.object);
    Mix(&h, t.predicate);
  }
  digest.kept_hash = h;
  h = kFnvOffset;
  for (const auto& [var, bits] : report.var_candidates) {
    for (char c : var) Mix(&h, static_cast<unsigned char>(c));
    Mix(&h, bits.size());
    for (size_t w = 0; w < bits.WordCount(); ++w) Mix(&h, bits.words()[w]);
  }
  digest.candidates_hash = h;
  return digest;
}

sim::PruneReport ReferencePrune(const sparqlsim::graph::GraphDatabase& db,
                                const sparqlsim::sparql::Query& query) {
  sim::SolverOptions plain;
  plain.num_threads = 1;
  plain.cache_sois = false;
  plain.cache_solutions = false;
  sim::SimEngine engine(&db, plain);
  return engine.Prune(query);
}

bool Passes(const ReportDigest& served, const ReportDigest& reference) {
  return !served.truncated && !reference.truncated && served == reference;
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

}  // namespace perfbench
