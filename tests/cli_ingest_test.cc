// End-to-end coverage of the ingestion pipeline:
//   sparqlsim_datagen lubm  ->  .nt dump
//   sparqlsim_ingest        ->  SQSIMDB3 binary (1 vs 8 threads, gz)
//   sparqlsim_cli --db      ->  stats / sim over the ingested database
// plus the determinism contract at the file level: byte-identical output
// for every thread count and for the gzip-compressed input.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_test_common.h"
#include "temp_path.h"

namespace sparqlsim {
namespace {

using sparqlsim_test::RunCommand;
using sparqlsim_test::TempPath;

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
    RunCommand(std::string(SPARQLSIM_DATAGEN) + " lubm 1 > " + Nt(),
               &exit_code);
    ASSERT_EQ(exit_code, 0);
  }

  static std::string Nt() { return TempPath("ingest_test.nt"); }
};

TEST_F(CliIngestTest, ThreadCountsProduceIdenticalBinaries) {
  int exit_code = 0;
  const std::string t1_path = TempPath("ingest_t1.gdb");
  const std::string t8_path = TempPath("ingest_t8.gdb");
  RunCommand(std::string(SPARQLSIM_INGEST) + " --threads 1 " + Nt() + " " +
                 t1_path,
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  RunCommand(std::string(SPARQLSIM_INGEST) +
                 " --threads 8 --chunk-mb 1 " + Nt() + " " + t8_path,
             &exit_code);
  ASSERT_EQ(exit_code, 0);

  std::string t1 = ReadFileBytes(t1_path);
  std::string t8 = ReadFileBytes(t8_path);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t8);
}

TEST_F(CliIngestTest, GzipInputMatchesPlain) {
  int exit_code = 0;
  const std::string gz = TempPath("ingest_test.nt.gz");
  const std::string gz_gdb = TempPath("ingest_gz.gdb");
  const std::string plain_gdb = TempPath("ingest_plain.gdb");
  RunCommand(std::string("gzip -c ") + Nt() + " > " + gz, &exit_code);
  ASSERT_EQ(exit_code, 0);
  RunCommand(std::string(SPARQLSIM_INGEST) + " " + gz + " " + gz_gdb,
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  RunCommand(std::string(SPARQLSIM_INGEST) + " " + Nt() + " " + plain_gdb,
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  EXPECT_EQ(ReadFileBytes(gz_gdb), ReadFileBytes(plain_gdb));
}

TEST_F(CliIngestTest, CliRunsOnIngestedDatabase) {
  int exit_code = 0;
  const std::string gdb = TempPath("ingest_cli.gdb");
  RunCommand(std::string(SPARQLSIM_INGEST) + " " + Nt() + " " + gdb,
             &exit_code);
  ASSERT_EQ(exit_code, 0);

  std::string stats = RunCommand(
      std::string(SPARQLSIM_CLI) + " --db " + gdb + " stats", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(stats.find("triples:"), std::string::npos);

  std::string sim = RunCommand(
      std::string("echo 'SELECT * WHERE { ?x <rdf:type> <University> . }' | ") +
          SPARQLSIM_CLI + " --db " + gdb + " sim -",
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(sim.find("?x: 1 candidates"), std::string::npos) << sim;
}

TEST_F(CliIngestTest, PermissiveModeReportsSkippedLines) {
  const std::string dirty = TempPath("ingest_dirty.nt");
  const std::string dirty_gdb = TempPath("ingest_dirty.gdb");
  {
    std::ofstream out(dirty);
    out << "<a> <p> <b> .\n"
        << "utter garbage line\n"
        << "<c> <p> \"l\"@en .\n";
  }
  int exit_code = 0;
  // Strict mode fails...
  RunCommand(std::string(SPARQLSIM_INGEST) + " " + dirty + " " + dirty_gdb,
             &exit_code);
  EXPECT_NE(exit_code, 0);
  // ...permissive mode converts and counts.
  std::string output = RunCommand(
      std::string(SPARQLSIM_INGEST) + " --permissive --stats " + dirty + " " +
          dirty_gdb,
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
  RunCommand(std::string(SPARQLSIM_INGEST) + " /nonexistent/in.nt " +
                 TempPath("out.gdb"),
             &exit_code);
  EXPECT_EQ(exit_code, 1);
}

// SQSIMDB3 is the only format written, so the old format switch is gone:
// every spelling of it is an unknown option.
TEST_F(CliIngestTest, FormatFlagIsAUsageError) {
  for (const char* flags : {"--format v1", "--format v2", "--format=v2",
                            "--format v3"}) {
    int exit_code = 0;
    RunCommand(std::string(SPARQLSIM_INGEST) + " " + flags + " " + Nt() +
                   " " + TempPath("ingest_format.gdb"),
               &exit_code);
    EXPECT_EQ(exit_code, 2) << flags;
  }
}

TEST_F(CliIngestTest, MalformedSizeFlagsAreUsageErrors) {
  // Before strict parsing, "--threads=abc" read as 0 (all hardware
  // threads) and converted happily; 2^44 MiB overflows the chunk size.
  for (const char* flags :
       {"--threads=abc", "--threads abc", "--threads -1", "--chunk-mb abc",
        "--chunk-mb=8k", "--chunk-mb 17592186044416", "--chunk-mb"}) {
    int exit_code = 0;
    RunCommand(std::string(SPARQLSIM_INGEST) + " " + flags + " " + Nt() +
                   " " + TempPath("ingest_badflag.gdb"),
               &exit_code);
    EXPECT_EQ(exit_code, 2) << flags;
  }
  int exit_code = 0;
  RunCommand(std::string(SPARQLSIM_INGEST) + " --threads=2 --chunk-mb=1 " +
                 Nt() + " " + TempPath("ingest_goodflag.gdb"),
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
  const std::string full = TempPath("ingest_trunc_full.nt.gz");
  const std::string truncated = TempPath("ingest_trunc.nt.gz");
  RunCommand(std::string("gzip -c ") + Nt() + " > " + full, &exit_code);
  ASSERT_EQ(exit_code, 0);
  // Chop the archive mid-stream.
  RunCommand("head -c 2000 " + full + " > " + truncated, &exit_code);
  ASSERT_EQ(exit_code, 0);

  const std::string out = TempPath("ingest_trunc.gdb");
  std::remove(out.c_str());
  // RunCommand silences stderr; the subshell folds it into stdout first.
  std::string output = RunCommand(
      std::string("( ") + SPARQLSIM_INGEST +
          " --permissive " + truncated + " " + out +
          " 2>&1 )",
      &exit_code);
  EXPECT_NE(exit_code, 0) << output;
  EXPECT_NE(output.find("decompression command failed"), std::string::npos)
      << output;
  std::ifstream leftover(out);
  EXPECT_FALSE(leftover.good()) << "partial output left at " << out;
}

TEST_F(CliIngestTest, IngestWritesV3ThatTheCliOpensLazily) {
  int exit_code = 0;
  const std::string t1_path = TempPath("ingest_v3_t1.gdb");
  RunCommand(std::string(SPARQLSIM_INGEST) + " --threads 1 " + Nt() + " " +
                 t1_path,
             &exit_code);
  ASSERT_EQ(exit_code, 0);
  EXPECT_EQ(ReadFileBytes(t1_path).substr(0, 8), "SQSIMDB3");

  // The CLI opens it via --db (lazily) and answers the query —
  // including under a 1 MiB forced-eviction budget.
  for (const char* env :
       {"", "SPARQLSIM_RESIDENT_MB=1 ", "SPARQLSIM_RESIDENT_MB=0 "}) {
    std::string sim = RunCommand(
        std::string("echo 'SELECT * WHERE { ?x <rdf:type> <University> . }'"
                    " | ") +
            env + SPARQLSIM_CLI + " --db " + t1_path + " sim -",
        &exit_code);
    EXPECT_EQ(exit_code, 0) << "env: " << env;
    EXPECT_NE(sim.find("?x: 1 candidates"), std::string::npos)
        << "env: " << env << "\n" << sim;
  }
  // The --resident-mb flag takes the same path as the env knob.
  std::string stats = RunCommand(
      std::string(SPARQLSIM_CLI) + " --resident-mb 1 --db " + t1_path +
          " stats",
      &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(stats.find("triples:"), std::string::npos);
}

}  // namespace
}  // namespace sparqlsim
