// End-to-end coverage of the ingestion pipeline:
//   sparqlsim_datagen lubm  ->  .nt dump
//   sparqlsim_ingest        ->  SQSIMDB1 binary (1 vs 8 threads, gz)
//   sparqlsim_cli --db      ->  stats / sim over the ingested database
// plus the determinism contract at the file level: byte-identical output
// for every thread count and for the gzip-compressed input.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_test_common.h"

namespace sparqlsim {
namespace {

using sparqlsim_test::RunCommand;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class CliIngestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    int exit_code = 0;
    RunCommand(std::string(SPARQLSIM_DATAGEN) + " lubm 1 > " + kNt,
               &exit_code);
    ASSERT_EQ(exit_code, 0);
  }

  static constexpr const char* kNt = "/tmp/sparqlsim_ingest_test.nt";
};

TEST_F(CliIngestTest, ThreadCountsProduceIdenticalBinaries) {
  int exit_code = 0;
  RunCommand(std::string(SPARQLSIM_INGEST) + " --threads 1 " + kNt +
                 " /tmp/sparqlsim_ingest_t1.gdb",
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  RunCommand(std::string(SPARQLSIM_INGEST) +
                 " --threads 8 --chunk-mb 1 " + kNt +
                 " /tmp/sparqlsim_ingest_t8.gdb",
             &exit_code);
  ASSERT_EQ(exit_code, 0);

  std::string t1 = ReadFileBytes("/tmp/sparqlsim_ingest_t1.gdb");
  std::string t8 = ReadFileBytes("/tmp/sparqlsim_ingest_t8.gdb");
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t8);
}

TEST_F(CliIngestTest, GzipInputMatchesPlain) {
  int exit_code = 0;
  RunCommand(std::string("gzip -c ") + kNt +
                 " > /tmp/sparqlsim_ingest_test.nt.gz",
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  RunCommand(std::string(SPARQLSIM_INGEST) +
                 " /tmp/sparqlsim_ingest_test.nt.gz "
                 "/tmp/sparqlsim_ingest_gz.gdb",
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  RunCommand(std::string(SPARQLSIM_INGEST) + " " + kNt +
                 " /tmp/sparqlsim_ingest_plain.gdb",
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  EXPECT_EQ(ReadFileBytes("/tmp/sparqlsim_ingest_gz.gdb"),
            ReadFileBytes("/tmp/sparqlsim_ingest_plain.gdb"));
}

TEST_F(CliIngestTest, CliRunsOnIngestedDatabase) {
  int exit_code = 0;
  RunCommand(std::string(SPARQLSIM_INGEST) + " " + kNt +
                 " /tmp/sparqlsim_ingest_cli.gdb",
             &exit_code);
  ASSERT_EQ(exit_code, 0);

  std::string stats = RunCommand(
      std::string(SPARQLSIM_CLI) + " --db /tmp/sparqlsim_ingest_cli.gdb "
                                   "stats",
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(stats.find("triples:"), std::string::npos);

  std::string sim = RunCommand(
      std::string("echo 'SELECT * WHERE { ?x <rdf:type> <University> . }' | ") +
          SPARQLSIM_CLI + " --db /tmp/sparqlsim_ingest_cli.gdb sim -",
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(sim.find("?x: 1 candidates"), std::string::npos) << sim;
}

TEST_F(CliIngestTest, PermissiveModeReportsSkippedLines) {
  const char* dirty = "/tmp/sparqlsim_ingest_dirty.nt";
  {
    std::ofstream out(dirty);
    out << "<a> <p> <b> .\n"
        << "utter garbage line\n"
        << "<c> <p> \"l\"@en .\n";
  }
  int exit_code = 0;
  // Strict mode fails...
  RunCommand(std::string(SPARQLSIM_INGEST) + " " + dirty +
                 " /tmp/sparqlsim_ingest_dirty.gdb",
             &exit_code);
  EXPECT_NE(exit_code, 0);
  // ...permissive mode converts and counts.
  std::string output = RunCommand(
      std::string(SPARQLSIM_INGEST) + " --permissive --stats " + dirty +
          " /tmp/sparqlsim_ingest_dirty.gdb",
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(output.find("malformed lines:  1"), std::string::npos) << output;
  EXPECT_NE(output.find("triples (dedup):  2"), std::string::npos) << output;
}

TEST_F(CliIngestTest, RejectsUsageErrors) {
  int exit_code = 0;
  RunCommand(std::string(SPARQLSIM_INGEST), &exit_code);
  EXPECT_EQ(exit_code, 2);
  RunCommand(std::string(SPARQLSIM_INGEST) + " --bogus a b", &exit_code);
  EXPECT_EQ(exit_code, 2);
  RunCommand(std::string(SPARQLSIM_INGEST) + " /nonexistent/in.nt "
                                             "/tmp/out.gdb",
             &exit_code);
  EXPECT_EQ(exit_code, 1);
  RunCommand(std::string(SPARQLSIM_INGEST) + " --format v3 a b", &exit_code);
  EXPECT_EQ(exit_code, 2);
}

TEST_F(CliIngestTest, MalformedSizeFlagsAreUsageErrors) {
  // Before strict parsing, "--threads=abc" read as 0 (all hardware
  // threads) and converted happily; 2^44 MiB overflows the chunk size.
  for (const char* flags :
       {"--threads=abc", "--threads abc", "--threads -1", "--chunk-mb abc",
        "--chunk-mb=8k", "--chunk-mb 17592186044416", "--chunk-mb"}) {
    int exit_code = 0;
    RunCommand(std::string(SPARQLSIM_INGEST) + " " + flags + " " + kNt +
                   " /tmp/sparqlsim_ingest_badflag.gdb",
               &exit_code);
    EXPECT_EQ(exit_code, 2) << flags;
  }
  int exit_code = 0;
  RunCommand(std::string(SPARQLSIM_INGEST) + " --threads=2 --chunk-mb=1 " +
                 kNt + " /tmp/sparqlsim_ingest_goodflag.gdb",
             &exit_code);
  EXPECT_EQ(exit_code, 0);
}

// Regression: a truncated .gz (interrupted download, partial copy) must
// fail the ingest AND leave nothing at the output path — the tmp-file +
// atomic-rename write means the destination either holds a complete
// database or doesn't exist. Before the hardening an interrupted write
// could leave a partial .gdb that later loads rejected confusingly (or,
// worse, an old stale file survived as if it were the new conversion).
TEST_F(CliIngestTest, TruncatedGzipFailsWithoutOutput) {
  int exit_code = 0;
  RunCommand(std::string("gzip -c ") + kNt +
                 " > /tmp/sparqlsim_ingest_trunc_full.nt.gz",
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  // Chop the archive mid-stream.
  RunCommand(
      "head -c 2000 /tmp/sparqlsim_ingest_trunc_full.nt.gz "
      "> /tmp/sparqlsim_ingest_trunc.nt.gz",
      &exit_code);
  ASSERT_EQ(exit_code, 0);

  const char* out = "/tmp/sparqlsim_ingest_trunc.gdb";
  std::remove(out);
  // RunCommand silences stderr; the subshell folds it into stdout first.
  std::string output = RunCommand(
      std::string("( ") + SPARQLSIM_INGEST +
          " --permissive /tmp/sparqlsim_ingest_trunc.nt.gz " + out +
          " 2>&1 )",
      &exit_code);
  EXPECT_NE(exit_code, 0) << output;
  EXPECT_NE(output.find("decompression command failed"), std::string::npos)
      << output;
  std::ifstream leftover(out);
  EXPECT_FALSE(leftover.good()) << "partial output left at " << out;
}

TEST_F(CliIngestTest, FormatV2RoundTripsThroughTheCli) {
  int exit_code = 0;
  RunCommand(std::string(SPARQLSIM_INGEST) + " --format v2 --threads 1 " +
                 kNt + " /tmp/sparqlsim_ingest_v2_t1.gdb",
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  RunCommand(std::string(SPARQLSIM_INGEST) + " --format=v2 --threads 8 " +
                 kNt + " /tmp/sparqlsim_ingest_v2_t8.gdb",
             &exit_code);
  ASSERT_EQ(exit_code, 0);

  // The v2 writer is deterministic across thread counts, like v1.
  std::string t1 = ReadFileBytes("/tmp/sparqlsim_ingest_v2_t1.gdb");
  std::string t8 = ReadFileBytes("/tmp/sparqlsim_ingest_v2_t8.gdb");
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t8);
  // --format v2 names the lazily loadable layout; its writer emits the
  // mapped-dictionary version byte '3'.
  EXPECT_EQ(t1.substr(0, 8), "SQSIMDB3");

  // The CLI opens v2 via --db (lazily) and answers the same query as the
  // v1 database — including under a 1 MiB forced-eviction budget.
  for (const char* env :
       {"", "SPARQLSIM_RESIDENT_MB=1 ", "SPARQLSIM_RESIDENT_MB=0 "}) {
    std::string sim = RunCommand(
        std::string("echo 'SELECT * WHERE { ?x <rdf:type> <University> . }'"
                    " | ") +
            env + SPARQLSIM_CLI +
            " --db /tmp/sparqlsim_ingest_v2_t1.gdb sim -",
        &exit_code);
    EXPECT_EQ(exit_code, 0) << "env: " << env;
    EXPECT_NE(sim.find("?x: 1 candidates"), std::string::npos)
        << "env: " << env << "\n" << sim;
  }
  // The --resident-mb flag takes the same path as the env knob.
  std::string stats = RunCommand(
      std::string(SPARQLSIM_CLI) +
          " --resident-mb 1 --db /tmp/sparqlsim_ingest_v2_t1.gdb stats",
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(stats.find("triples:"), std::string::npos);
}

}  // namespace
}  // namespace sparqlsim
