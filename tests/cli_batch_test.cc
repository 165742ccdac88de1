// End-to-end tests of the sparqlsim_batch tool: a tiny inline N-Triples
// database plus a multi-query file driven through the async QueryService
// path, checking per-query output, dedup/cache statistics (including the
// eviction counters the bounded LRU must report), and flag handling.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "cli_test_common.h"
#include "temp_path.h"

namespace {

using sparqlsim_test::RunCommand;
using sparqlsim_test::TempPath;

class CliBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    {
      std::ofstream out(NtPath());
      out << "<alice> <knows> <bob> .\n"
             "<bob> <knows> <carol> .\n"
             "<carol> <knows> <alice> .\n"
             "<dave> <likes> <carol> .\n"
             "<erin> <likes> <alice> .\n";
      ASSERT_TRUE(out.good());
    }
    {
      // Three queries: blank-line separated, with comments; the third is a
      // triple-order permutation of the first, so their canonical keys
      // match and the cache (or dedup) must serve one from the other.
      std::ofstream out(QueriesPath());
      out << "# batch query file\n"
             "SELECT * WHERE { ?x <knows> ?y . ?y <knows> ?z . }\n"
             "\n"
             "SELECT * WHERE { ?a <likes> ?b . }\n"
             "\n"
             "# permutation of query 0\n"
             "SELECT * WHERE { ?y <knows> ?z . ?x <knows> ?y . }\n";
      ASSERT_TRUE(out.good());
    }
  }
  static std::string NtPath() { return TempPath("batch.nt"); }
  static std::string QueriesPath() { return TempPath("batch_queries.rq"); }
  static std::string Batch() { return std::string(SPARQLSIM_BATCH); }
};

TEST_F(CliBatchTest, RunsAllQueriesAndPrintsServiceStats) {
  int code = 0;
  std::string out = RunCommand(
      Batch() + " --threads 4 --queue-depth 2 " + NtPath() + " " +
          QueriesPath(),
      &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("q000"), std::string::npos) << out;
  EXPECT_NE(out.find("q001"), std::string::npos);
  EXPECT_NE(out.find("q002"), std::string::npos);
  EXPECT_NE(out.find("batch: 3 queries"), std::string::npos) << out;
  EXPECT_NE(out.find("submitted 3"), std::string::npos) << out;
  // The mandatory stats lines are always present.
  EXPECT_NE(out.find("cache:"), std::string::npos);
  EXPECT_NE(out.find("cache evictions:"), std::string::npos) << out;
}

TEST_F(CliBatchTest, RepeatsHitTheSolutionCacheOrCoalesce) {
  int code = 0;
  std::string out = RunCommand(
      Batch() + " --repeat 4 " + NtPath() + " " + QueriesPath(), &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("batch: 12 queries"), std::string::npos) << out;
  EXPECT_NE(out.find("submitted 12"), std::string::npos) << out;
  // 12 submissions of 2 distinct union-free patterns (q0 and q2 are
  // canonical-key-equal permutations). Dedup guarantees at most one
  // in-flight execution per pattern, so each pattern misses the solution
  // cache exactly once; every other submission either coalesced onto an
  // in-flight duplicate or executed into a solution-cache hit. These
  // counter identities hold for ANY scheduling:
  //   solution_misses == 2
  //   executed + coalesced == 12
  //   solution_hits == executed - 2
  size_t spos = out.find("solution ");
  ASSERT_NE(spos, std::string::npos) << out;
  int solution_hits = std::atoi(out.c_str() + spos + 9);
  size_t slash = out.find("/ ", spos);
  ASSERT_NE(slash, std::string::npos) << out;
  int solution_misses = std::atoi(out.c_str() + slash + 2);
  size_t epos = out.find("executed ");
  ASSERT_NE(epos, std::string::npos) << out;
  int executed = std::atoi(out.c_str() + epos + 9);
  size_t cpos = out.find("coalesced ", epos);
  ASSERT_NE(cpos, std::string::npos) << out;
  int coalesced = std::atoi(out.c_str() + cpos + 10);

  EXPECT_EQ(solution_misses, 2) << out;
  EXPECT_EQ(executed + coalesced, 12) << out;
  EXPECT_EQ(solution_hits, executed - 2) << out;
}

TEST_F(CliBatchTest, CacheCapacityBoundIsReportedAndRespected) {
  int code = 0;
  std::string out = RunCommand(
      Batch() + " --cache-capacity 1 --repeat 2 " + NtPath() + " " +
          QueriesPath(),
      &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("(capacity 1)"), std::string::npos) << out;
  // With 2 distinct patterns and capacity 1, residency never exceeds 1
  // per layer; the report prints "resident S sois + T solutions".
  size_t pos = out.find("resident ");
  ASSERT_NE(pos, std::string::npos) << out;
  int resident_sois = std::atoi(out.c_str() + pos + 9);
  EXPECT_LE(resident_sois, 1) << out;
}

TEST_F(CliBatchTest, NoCacheDisablesTheCacheEntirely) {
  int code = 0;
  std::string out = RunCommand(
      Batch() + " --no-cache --repeat 2 " + NtPath() + " " + QueriesPath(),
      &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("soi 0 hits / 0 misses"), std::string::npos) << out;
  EXPECT_NE(out.find("resident 0 sois + 0 solutions"), std::string::npos)
      << out;
}

TEST_F(CliBatchTest, BadQueryFileFailsLoudly) {
  std::string bad = TempPath("batch_bad.rq");
  {
    std::ofstream out(bad);
    out << "SELECT * WHERE { this is not sparql\n";
  }
  int code = 0;
  RunCommand(Batch() + " " + NtPath() + " " + bad, &code);
  EXPECT_NE(code, 0);
}

TEST_F(CliBatchTest, UnknownFlagIsUsageError) {
  int code = 0;
  RunCommand(Batch() + " --bogus " + NtPath() + " " + QueriesPath(), &code);
  EXPECT_EQ(code, 2);
}

TEST_F(CliBatchTest, RemovedIncrementalFlagsAreUsageErrors) {
  for (const char* flag : {"--incremental", "--no-incremental"}) {
    int code = 0;
    RunCommand(Batch() + " " + flag + " " + NtPath() + " " + QueriesPath(),
               &code);
    EXPECT_EQ(code, 2) << flag;
  }
}

TEST_F(CliBatchTest, MalformedSizeFlagsAreUsageErrors) {
  for (const char* flags :
       {"--threads abc", "--queue-depth=-1", "--resident-mb abc",
        "--resident-mb 17592186044416", "--repeat 2x", "--deadline-ms ''"}) {
    int code = 0;
    RunCommand(Batch() + " " + flags + " " + NtPath() + " " + QueriesPath(),
               &code);
    EXPECT_EQ(code, 2) << flags;
  }
}

TEST_F(CliBatchTest, MalformedResidentMbEnvIsAUsageError) {
  for (const char* value : {"abc", "17592186044416", "-1"}) {
    int code = 0;
    RunCommand(std::string("SPARQLSIM_RESIDENT_MB=") + value + " " + Batch() +
                   " " + NtPath() + " " + QueriesPath(),
               &code);
    EXPECT_EQ(code, 2) << value;
  }
  int code = 0;
  RunCommand("SPARQLSIM_RESIDENT_MB=1 " + Batch() + " " + NtPath() + " " +
                 QueriesPath(),
             &code);
  EXPECT_EQ(code, 0);
}

TEST_F(CliBatchTest, UnionExpansionBeyondTheLimitIsAParseError) {
  // 2^20 union-free branches: rejected while loading the query file.
  std::string path = TempPath("batch_unions.rq");
  {
    std::ofstream out(path);
    out << "SELECT * WHERE { ";
    for (int i = 0; i < 20; ++i) {
      out << "{ ?x <knows> ?y } UNION { ?x <likes> ?y } ";
    }
    out << "}\n";
  }
  int code = 0;
  RunCommand("timeout 20 " + Batch() + " " + NtPath() + " " + path, &code);
  EXPECT_EQ(code, 1);
}

}  // namespace
