#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "sparql/ast.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

/// Universities of the benchmark's LUBM(20) dataset; the mix draws its
/// constants from them.
inline constexpr size_t kUniversities = 20;

/// One generated query: its shape, SPARQL text, parsed form and
/// sparql::CanonicalPatternKey.
struct MixQuery {
  std::string shape;
  std::string text;
  sparqlsim::sparql::Query query;
  std::string key;
};

/// Seeded LUBM query-mix generator over the 18 LUBM predicates, with
/// constants drawn from <Ui> and <Ui/Dj> (universities 0..19, departments
/// 0..11 of each: every LUBM(20) university has at least 12).
///
/// Shapes and their stated shares of the mix:
///   star      30%  a professor or student with 3-5 arms, one arm bound to a
///                  university or department constant;
///   chain     25%  a 2-3 hop path ending in a department or university;
///   cycle     15%  L0- or L2-style cycles (advisor/takesCourse/teacherOf,
///                  worksFor/memberOf/advisor, co-authorship) anchored at
///                  one university or department, so fixpoints of several
///                  rounds are present;
///   anchored  30%  selective department-anchored lookups (L3-L5 style).
/// Every query carries at most one OPTIONAL arm and no UNION, so a query is
/// one union-free branch and distinct queries never share a cached branch
/// solution.
///
/// Queries are distinct by CanonicalPatternKey over everything one
/// generator emits; Next() fails when a shape's space runs dry.
class QueryMix {
 public:
  explicit QueryMix(uint64_t seed) : rng_(seed) {}

  sparqlsim::util::Result<MixQuery> Next();

  /// `count` more distinct queries, or the first generation error.
  sparqlsim::util::Result<std::vector<MixQuery>> Take(size_t count);

  /// `per_shape` more queries of every shape, in draw order: a small set
  /// with the mix's shapes in fixed proportion, whatever the seed.
  sparqlsim::util::Result<std::vector<MixQuery>> TakePerShape(
      size_t per_shape);

 private:
  std::string Star();
  std::string Chain();
  std::string Cycle();
  std::string Anchored();
  /// "?p a <Class> . " for a random professor class, or "" (no constraint).
  std::string ProfessorClass();

  std::string University();
  std::string Department();
  size_t Pick(size_t n) { return static_cast<size_t>(rng_.NextBounded(n)); }

  sparqlsim::util::Rng rng_;
  std::unordered_set<std::string> seen_;
};

/// The self-check: every text re-parses to its recorded key and no key
/// repeats. Returns an error naming the first offender.
sparqlsim::util::Status CheckMix(const std::vector<MixQuery>& mix);

}  // namespace perfbench
