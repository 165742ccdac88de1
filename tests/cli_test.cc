// End-to-end tests of the command-line tools: generate a dataset, convert
// formats, and run every subcommand. The binary paths are injected by
// CMake (SPARQLSIM_CLI / SPARQLSIM_DATAGEN point at the built tools).

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "cli_test_common.h"

namespace {

using sparqlsim_test::RunCommand;

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    int code = 0;
    RunCommand(std::string(SPARQLSIM_DATAGEN) + " movies > " + NtPath(), &code);
    ASSERT_EQ(code, 0);
  }
  static std::string NtPath() { return "/tmp/sparqlsim_cli_test_movies.nt"; }
  static std::string GdbPath() {
    return "/tmp/sparqlsim_cli_test_movies.gdb";
  }
};

TEST_F(CliTest, DatagenWritesTriples) {
  std::ifstream in(NtPath());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 20u);  // Fig. 1(a) has 20 triples
}

TEST_F(CliTest, StatsCommand) {
  int code = 0;
  std::string out =
      RunCommand(std::string(SPARQLSIM_CLI) + " stats " + NtPath(), &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("triples:    20"), std::string::npos);
  EXPECT_NE(out.find("directed"), std::string::npos);
}

TEST_F(CliTest, QueryCommand) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?d <directed> ?m . }' | " +
          std::string(SPARQLSIM_CLI) + " query " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("B. De Palma"), std::string::npos);
  EXPECT_NE(out.find("Mortdecai"), std::string::npos);
}

TEST_F(CliTest, SimCommand) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }' "
      "| " +
          std::string(SPARQLSIM_CLI) + " sim " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("?d: 2 candidates"), std::string::npos);
}

TEST_F(CliTest, PruneCommandWritesOutput) {
  int code = 0;
  std::string pruned_path = "/tmp/sparqlsim_cli_test_pruned.nt";
  RunCommand("echo 'SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }' "
      "| " +
          std::string(SPARQLSIM_CLI) + " prune " + NtPath() + " - " +
          pruned_path,
      &code);
  EXPECT_EQ(code, 0);
  std::ifstream in(pruned_path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 4u);  // the two bold subgraphs of Fig. 1(a)
}

TEST_F(CliTest, ConvertAndBinaryLoad) {
  int code = 0;
  RunCommand(std::string(SPARQLSIM_CLI) + " convert " + NtPath() + " " + GdbPath(),
      &code);
  EXPECT_EQ(code, 0);
  std::string out =
      RunCommand(std::string(SPARQLSIM_CLI) + " stats " + GdbPath(), &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("triples:    20"), std::string::npos);
}

TEST_F(CliTest, ExplainCommand) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?d <directed> ?m . ?m <genre> ?g . }' | " +
          std::string(SPARQLSIM_CLI) + " explain " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("rdfox-like"), std::string::npos);
  EXPECT_NE(out.find("virtuoso-like"), std::string::npos);
}

TEST_F(CliTest, BenchCommand) {
  int code = 0;
  std::string out = RunCommand(
      "echo 'SELECT * WHERE { ?d <directed> ?m . }' | " +
          std::string(SPARQLSIM_CLI) + " bench " + NtPath() + " -",
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("SOI solver"), std::string::npos);
  EXPECT_NE(out.find("Ma et al."), std::string::npos);
  EXPECT_NE(out.find("HHK-style"), std::string::npos);
}

TEST_F(CliTest, BadInputsFailCleanly) {
  int code = 0;
  RunCommand(std::string(SPARQLSIM_CLI) + " stats /nonexistent.nt", &code);
  EXPECT_NE(code, 0);
  RunCommand("echo 'NOT A QUERY' | " + std::string(SPARQLSIM_CLI) + " query " +
          NtPath() + " -",
      &code);
  EXPECT_NE(code, 0);
  RunCommand(std::string(SPARQLSIM_CLI) + " frobnicate " + NtPath(), &code);
  EXPECT_NE(code, 0);
}

TEST_F(CliTest, UnknownOptionsAreUsageErrors) {
  // Includes the removed --kernel/--shards knobs: an unknown option must
  // not be taken for the subcommand or a positional argument.
  for (const char* flags : {"--kernel dense", "--shards 2", "--frobnicate"}) {
    int code = 0;
    RunCommand(std::string(SPARQLSIM_CLI) + " " + flags + " stats " +
                   NtPath(),
               &code);
    EXPECT_EQ(code, 2) << flags;
  }
}

TEST_F(CliTest, RemovedIncrementalFlagsAreUsageErrors) {
  for (const char* flag : {"--incremental", "--no-incremental"}) {
    int code = 0;
    RunCommand("echo 'SELECT * WHERE { ?d <directed> ?m . }' | " +
                   std::string(SPARQLSIM_CLI) + " " + flag + " prune " +
                   NtPath() + " - /tmp/sparqlsim_cli_test_flag.nt",
               &code);
    EXPECT_EQ(code, 2) << flag;
  }
}

TEST_F(CliTest, HostileNestingIsAParseErrorNotACrash) {
  const std::string path = "/tmp/sparqlsim_cli_test_deep.rq";
  {
    std::ofstream out(path);
    out << "SELECT * WHERE ";
    for (int i = 0; i < 200000; ++i) out << "{ ";
    out << "?d <directed> ?m . ";
    for (int i = 0; i < 200000; ++i) out << "} ";
  }
  int code = 0;
  RunCommand(std::string(SPARQLSIM_CLI) + " query " + NtPath() + " " + path,
             &code);
  EXPECT_EQ(code, 1);  // a parse error, not a signal (-1)
}

TEST_F(CliTest, HostileSiblingGroupsAreAParseErrorNotACrash) {
  const std::string path = "/tmp/sparqlsim_cli_test_siblings.rq";
  {
    std::ofstream out(path);
    out << "SELECT * WHERE { ";
    for (int i = 0; i < 200000; ++i) out << "{ ?d <directed> ?m . } ";
    out << "}";
  }
  for (const char* command : {" query ", " prune "}) {
    int code = 0;
    std::string args = NtPath() + " " + path;
    if (std::string(command) == " prune ") {
      args += " /tmp/sparqlsim_cli_test_siblings.nt";
    }
    RunCommand(std::string(SPARQLSIM_CLI) + command + args, &code);
    EXPECT_EQ(code, 1) << command;  // a parse error, not a signal (-1)
  }
}

TEST_F(CliTest, UnionExpansionBeyondTheLimitIsAPromptParseError) {
  // 20 juxtaposed UNION groups expand to 2^20 union-free branches; the
  // parser rejects the query before anything enumerates them. `timeout`
  // turns a hang into exit 124 instead of a stuck suite.
  const std::string path = "/tmp/sparqlsim_cli_test_unions.rq";
  {
    std::ofstream out(path);
    out << "SELECT * WHERE { ";
    for (int i = 0; i < 20; ++i) {
      out << "{ ?a <directed> ?b } UNION { ?a <actedIn> ?b } ";
    }
    out << "}";
  }
  for (const char* command : {" query ", " prune "}) {
    int code = 0;
    std::string args = NtPath() + " " + path;
    if (std::string(command) == " prune ") {
      args += " /tmp/sparqlsim_cli_test_unions.nt";
    }
    RunCommand("timeout 20 " + std::string(SPARQLSIM_CLI) + command + args,
               &code);
    EXPECT_EQ(code, 1) << command;
  }
}

TEST_F(CliTest, MalformedSizeFlagsAreUsageErrors) {
  // strtoull would read "abc" as 0 (unbounded/auto) and "-1" as 2^64 - 1;
  // 2^44 MiB overflows a byte count.
  for (const char* flags :
       {"--resident-mb abc", "--resident-mb=12x",
        "--resident-mb 17592186044416", "--resident-mb -1", "--threads abc",
        "--threads=", "--threads ' 4'",
        "--cache-capacity 1e3", "--deadline-ms abc",
        "--threads 99999999999999999999999"}) {
    int code = 0;
    RunCommand(std::string(SPARQLSIM_CLI) + " " + flags + " stats " +
                   NtPath(),
               &code);
    EXPECT_EQ(code, 2) << flags;
  }
  int code = 0;
  RunCommand(std::string(SPARQLSIM_CLI) +
                 " --resident-mb 17592186044415 --threads 1 stats " + NtPath(),
             &code);
  EXPECT_EQ(code, 0);
}

}  // namespace
