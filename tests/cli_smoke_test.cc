// Minimal end-to-end smoke test of the sparqlsim CLI: write a tiny
// N-Triples database inline, pipe a one-pattern query through `query`,
// `sim`, and `prune`, and check the pipeline agrees with itself. Unlike
// cli_test.cc this does not depend on the datagen tool, so it isolates
// the CLI + parser + engine path.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "cli_test_common.h"
#include "temp_path.h"

namespace {

using sparqlsim_test::RunCommand;
using sparqlsim_test::TempPath;

class CliSmokeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::ofstream out(NtPath());
    out << "<alice> <knows> <bob> .\n"
           "<bob> <knows> <carol> .\n"
           "<carol> <knows> <alice> .\n"
           "<dave> <likes> <carol> .\n";
    ASSERT_TRUE(out.good());
  }
  static std::string NtPath() { return TempPath("cli_smoke.nt"); }
};

TEST_F(CliSmokeTest, QueryEvaluatesInlineDatabase) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?x <knows> ?y . }' | " +
          std::string(SPARQLSIM_CLI) + " query " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  // All three <knows> edges, and nothing from <likes>.
  EXPECT_NE(out.find("alice"), std::string::npos);
  EXPECT_NE(out.find("bob"), std::string::npos);
  EXPECT_NE(out.find("carol"), std::string::npos);
  EXPECT_EQ(out.find("dave"), std::string::npos);
}

TEST_F(CliSmokeTest, SimReportsCandidates) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?x <knows> ?y . ?y <knows> ?z . }' | " +
          std::string(SPARQLSIM_CLI) + " sim " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  // The <knows> cycle dual-simulates the chain: alice, bob, carol qualify
  // for every variable.
  EXPECT_NE(out.find("?x: 3 candidates"), std::string::npos);
  EXPECT_NE(out.find("?z: 3 candidates"), std::string::npos);
}

TEST_F(CliSmokeTest, PruneDropsUnmatchedTriples) {
  int code = 0;
  std::string pruned_path = TempPath("cli_smoke_pruned.nt");
  RunCommand("echo 'SELECT * WHERE { ?x <knows> ?y . }' | " +
                 std::string(SPARQLSIM_CLI) + " prune " + NtPath() + " - " +
                 pruned_path,
             &code);
  EXPECT_EQ(code, 0);
  std::ifstream in(pruned_path);
  std::string line;
  size_t knows_lines = 0, other_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("<knows>") != std::string::npos) {
      ++knows_lines;
    } else if (!line.empty()) {
      ++other_lines;
    }
  }
  // The prune keeps exactly the three <knows> triples; <dave> <likes>
  // <carol> cannot participate in any match.
  EXPECT_EQ(knows_lines, 3u);
  EXPECT_EQ(other_lines, 0u);
}

}  // namespace
