// Self-tests of the benchmark's own parts: the query-mix generator and its
// self-check, the correctness gate (shown to fire on a deliberately
// mismatched reference and on a truncated report), the percentile rule,
// and the span summary. Run: .bench_build/perfbench_test (or ctest in the
// build directory).
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "datagen/lubm.h"
#include "datagen/queries.h"
#include "gate.h"
#include "metrics.h"
#include "query_mix.h"
#include "sim/sim_engine.h"
#include "sparql/parser.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using namespace perfbench;
namespace sim = sparqlsim::sim;
namespace sparql = sparqlsim::sparql;

void TestMixIsDistinctSeededAndShaped() {
  auto a = QueryMix(7).Take(4000);
  CHECK(a.ok());
  if (!a.ok()) return;
  CHECK(CheckMix(a.value()).ok());
  auto b = QueryMix(7).Take(50);
  auto c = QueryMix(8).Take(50);
  CHECK(b.ok() && c.ok());
  size_t same_as_b = 0, same_as_c = 0;
  for (size_t i = 0; i < 50; ++i) {
    same_as_b += a.value()[i].text == b.value()[i].text;
    same_as_c += a.value()[i].text == c.value()[i].text;
  }
  CHECK(same_as_b == 50);  // same seed, same queries
  CHECK(same_as_c < 50);   // another seed, another mix
  std::map<std::string, size_t> shapes;
  for (const MixQuery& q : a.value()) ++shapes[q.shape];
  CHECK(shapes.size() == 4);
  const double cycle_share = static_cast<double>(shapes["cycle"]) / 4000.0;
  CHECK(cycle_share > 0.12 && cycle_share < 0.18);
  auto per_shape = QueryMix(7).TakePerShape(3);
  CHECK(per_shape.ok() && per_shape.value().size() == 12);
  if (per_shape.ok()) {
    std::map<std::string, size_t> counts;
    for (const MixQuery& q : per_shape.value()) ++counts[q.shape];
    CHECK(counts.size() == 4 && counts["star"] == 3 && counts["cycle"] == 3);
  }
}

void TestMixSelfCheckRejectsRepeatsAndParseErrors() {
  auto mix = QueryMix(3).Take(10);
  CHECK(mix.ok());
  if (!mix.ok()) return;
  std::vector<MixQuery> repeated;
  for (const MixQuery& q : mix.value()) {
    repeated.push_back({q.shape, q.text, q.query.Clone(), q.key});
  }
  repeated.push_back({repeated[4].shape, repeated[4].text,
                      repeated[4].query.Clone(), repeated[4].key});
  CHECK(!CheckMix(repeated).ok());
  repeated.pop_back();
  CHECK(CheckMix(repeated).ok());
  repeated[2].text = "SELECT * WHERE { ?x <p> }";
  CHECK(!CheckMix(repeated).ok());
}

void TestGateFiresOnMismatchAndTruncation() {
  sparqlsim::datagen::LubmConfig config;
  config.num_universities = 1;
  const auto db = sparqlsim::datagen::MakeLubmDatabase(config);
  std::map<std::string, sparql::Query> queries;
  for (const auto& q : sparqlsim::datagen::LubmQueries()) {
    queries.emplace(q.id, sparql::Parser::Parse(q.text).value());
  }
  sim::SimEngine engine(&db);  // cached, default options: a served report
  const ReportDigest served = Digest(engine.Prune(queries.at("L3")));
  CHECK(Passes(served, Digest(ReferencePrune(db, queries.at("L3")))));
  // A deliberately mismatched reference: the gate must fire.
  CHECK(!Passes(served, Digest(ReferencePrune(db, queries.at("L4")))));
  // A truncated report never passes, even against its own reference.
  sim::SolverOptions capped;
  capped.max_rounds = 1;
  sim::SimEngine capped_engine(&db, capped);
  const sim::PruneReport truncated = capped_engine.Prune(queries.at("L0"));
  CHECK(truncated.truncated);
  ReportDigest truncated_digest = Digest(truncated);
  CHECK(!Passes(truncated_digest, truncated_digest));
}

void TestPercentileNeedsTenBeyond() {
  std::vector<double> values;
  for (int i = 1; i <= 19; ++i) values.push_back(i);
  CHECK(!Percentile(values, 0.5));  // 9 beyond the median
  values.push_back(20);
  CHECK(Percentile(values, 0.5) && *Percentile(values, 0.5) == 10.5);
  CHECK(!Percentile(values, 0.9));
  values.clear();
  for (int i = 0; i < 100; ++i) values.push_back(i);
  CHECK(Percentile(values, 0.9).has_value());
  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
}

void TestSelfTimeSubtractsTheUnionOfChildren() {
  // Parent [0, 100] with overlapping children [10, 30] and [20, 50] (as from
  // two threads) and a grandchild inside the first: self = 100 - 40.
  std::vector<SpanRecord> spans = {
      {"root", 1, 0, 1, 0, 100},
      {"a", 2, 1, 1, 10, 30},
      {"b", 3, 1, 1, 20, 50},
      {"c", 4, 2, 1, 12, 18},
  };
  const auto totals = SummarizeSpans(spans);
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };
  CHECK(near(totals.at("root").self_s, 60e-9));
  CHECK(near(totals.at("a").self_s, 14e-9));
  CHECK(near(totals.at("b").self_s, 30e-9));
  CHECK(totals.at("c").count == 1);
}

void TestTracerNestsPerThreadAndCanBeOff() {
  Tracer off(false);
  { Tracer::Scope scope(off, "x"); }
  CHECK(off.Spans().empty());
  Tracer on(true);
  {
    Tracer::Scope outer(on, "outer", 7);
    Tracer::Scope inner(on, "inner", 7);
  }
  const auto spans = on.Spans();
  CHECK(spans.size() == 2);
  if (spans.size() == 2) {
    CHECK(std::string(spans[0].name) == "inner");
    CHECK(spans[0].parent == spans[1].id);
    CHECK(spans[1].parent == 0 && spans[1].request == 7);
  }
}

void TestFinalJsonShape() {
  RunResult result;
  result.attempted = 3;
  result.failed = 1;
  result.correct = false;
  result.Add(&result.metrics, "latency_s.p50", 0.25, "s");
  CHECK(FinalJson(result) ==
        "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": "
        "{\"latency_s.p50\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

}  // namespace

int main() {
  TestMixIsDistinctSeededAndShaped();
  TestMixSelfCheckRejectsRepeatsAndParseErrors();
  TestGateFiresOnMismatchAndTruncation();
  TestPercentileNeedsTenBeyond();
  TestSelfTimeSubtractsTheUnionOfChildren();
  TestTracerNestsPerThreadAndCanBeOff();
  TestFinalJsonShape();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
