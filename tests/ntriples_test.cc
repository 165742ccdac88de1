// Edge-case coverage for the full-spec N-Triples parser (typed/lang
// literals, blank nodes, escapes, CRLF, permissive mode) and the
// determinism contract of the chunked parallel loader: identical builder
// state — and byte-identical BinaryIo output — for every thread count and
// chunk size, including versus the sequential Load.

#include "graph/ntriples.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "datagen/lubm.h"
#include "graph/binary_io.h"
#include "graph/graph_database.h"
#include "temp_path.h"

namespace sparqlsim::graph {
namespace {

using sparqlsim_test::TempPath;

GraphDatabase ParseOrDie(const std::string& text,
                         const NTriplesOptions& options = {},
                         NTriplesStats* stats = nullptr) {
  std::istringstream in(text);
  GraphDatabaseBuilder builder;
  util::Status status = NTriples::Load(in, &builder, options, stats);
  EXPECT_TRUE(status.ok()) << status.message();
  return std::move(builder).Build();
}

std::string SerializedBinary(const GraphDatabase& db) {
  std::ostringstream out;
  BinaryIo::SaveV2(db, out);
  return out.str();
}

TEST(NTriplesEdgeTest, TypedLiteral) {
  GraphDatabase db = ParseOrDie(
      "<a> <age> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n");
  ASSERT_TRUE(db.nodes().Lookup("42").has_value());
  EXPECT_TRUE(db.IsLiteral(*db.nodes().Lookup("42")));
  EXPECT_EQ(db.NumTriples(), 1u);
}

TEST(NTriplesEdgeTest, LanguageTaggedLiteral) {
  GraphDatabase db = ParseOrDie(
      "<a> <label> \"chat\"@fr .\n"
      "<a> <label> \"cat\"@en-US .\n");
  EXPECT_TRUE(db.nodes().Lookup("chat").has_value());
  EXPECT_TRUE(db.nodes().Lookup("cat").has_value());
  EXPECT_EQ(db.NumTriples(), 2u);
}

TEST(NTriplesEdgeTest, TypedAndPlainLiteralsInternToSameNode) {
  // Datatypes are validated and dropped (untyped literal universe L).
  GraphDatabase db = ParseOrDie(
      "<a> <p> \"42\" .\n"
      "<b> <p> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .\n");
  EXPECT_EQ(db.NumNodes(), 3u);  // a, b, "42"
}

TEST(NTriplesEdgeTest, MalformedLiteralSuffixesRejected) {
  GraphDatabaseBuilder b1, b2, b3;
  std::istringstream bad_lang("<a> <p> \"x\"@ .\n");
  EXPECT_FALSE(NTriples::Load(bad_lang, &b1).ok());
  std::istringstream bad_caret("<a> <p> \"x\"^<y> .\n");
  EXPECT_FALSE(NTriples::Load(bad_caret, &b2).ok());
  std::istringstream bad_datatype("<a> <p> \"x\"^^y .\n");
  EXPECT_FALSE(NTriples::Load(bad_datatype, &b3).ok());
}

TEST(NTriplesEdgeTest, BlankNodes) {
  GraphDatabase db = ParseOrDie(
      "_:b0 <knows> _:b1 .\n"
      "_:b1 <name> \"alice\" .\n"
      "<iri> <knows> _:b0 .\n");
  ASSERT_TRUE(db.nodes().Lookup("_:b0").has_value());
  ASSERT_TRUE(db.nodes().Lookup("_:b1").has_value());
  EXPECT_FALSE(db.IsLiteral(*db.nodes().Lookup("_:b0")));
  EXPECT_EQ(db.NumTriples(), 3u);
}

TEST(NTriplesEdgeTest, EcharEscapes) {
  GraphDatabase db = ParseOrDie(
      "<a> <p> \"tab\\there\\nnewline\\r\\\"quote\\\\back\" .\n");
  EXPECT_TRUE(
      db.nodes().Lookup("tab\there\nnewline\r\"quote\\back").has_value());
}

TEST(NTriplesEdgeTest, UnicodeEscapes) {
  GraphDatabase db = ParseOrDie(
      "<a> <p> \"\\u0041\\u00e9\\U0001F600\" .\n"
      "<iri\\u0041> <p> <b> .\n");
  // A (1 byte), é (2 bytes), U+1F600 (4 bytes).
  EXPECT_TRUE(db.nodes().Lookup("A\xc3\xa9\xf0\x9f\x98\x80").has_value());
  // \u escapes are decoded inside IRIs too.
  EXPECT_TRUE(db.nodes().Lookup("iriA").has_value());
}

TEST(NTriplesEdgeTest, BadUnicodeEscapesRejected) {
  GraphDatabaseBuilder b1, b2;
  std::istringstream bad_hex("<a> <p> \"\\u00zz\" .\n");
  EXPECT_FALSE(NTriples::Load(bad_hex, &b1).ok());
  std::istringstream surrogate("<a> <p> \"\\uD800\" .\n");
  EXPECT_FALSE(NTriples::Load(surrogate, &b2).ok());
}

TEST(NTriplesEdgeTest, CrlfAndWhitespaceTolerance) {
  GraphDatabase db = ParseOrDie(
      "<a> <p> <b> .\r\n"
      "  <b>\t<p>\t\"lit\"  . \r\n"
      "# comment\r\n"
      "<c> <p> <d> . # trailing comment\n");
  EXPECT_EQ(db.NumTriples(), 3u);
  // The \r never leaks into a term.
  EXPECT_TRUE(db.nodes().Lookup("lit").has_value());
  EXPECT_FALSE(db.nodes().Lookup("lit\r").has_value());
}

TEST(NTriplesEdgeTest, PermissiveModeCountsAndSkips) {
  NTriplesStats stats;
  NTriplesOptions options;
  options.permissive = true;
  GraphDatabase db = ParseOrDie(
      "<a> <p> <b> .\n"
      "this line is garbage\n"
      "<c> <p> \"unterminated .\n"
      "<d> <p> <e> .\n"
      "<f> <p> <g>\n",
      options, &stats);
  EXPECT_EQ(db.NumTriples(), 2u);
  EXPECT_EQ(stats.triples, 2u);
  EXPECT_EQ(stats.malformed_lines, 3u);
  EXPECT_EQ(stats.lines, 5u);
  EXPECT_NE(stats.first_error.find("line 2"), std::string::npos);
}

TEST(NTriplesEdgeTest, PermissiveSkipsLiteralSubject) {
  // "lit" becomes a literal on line 1; using it as subject violates
  // Def. 1 and is skipped (counted), not fatal, in permissive mode.
  NTriplesStats stats;
  NTriplesOptions options;
  options.permissive = true;
  GraphDatabase db = ParseOrDie(
      "<a> <p> \"lit\" .\n"
      "<lit> <p> <b> .\n",
      options, &stats);
  EXPECT_EQ(db.NumTriples(), 1u);
  EXPECT_EQ(stats.malformed_lines, 1u);

  // Strict mode: same input is a hard error naming the line.
  std::istringstream in("<a> <p> \"lit\" .\n<lit> <p> <b> .\n");
  GraphDatabaseBuilder builder;
  util::Status status = NTriples::Load(in, &builder);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST(NTriplesEdgeTest, StrictLanguageTagGrammar) {
  // LANGTAG is [a-zA-Z]+('-'[a-zA-Z0-9]+)*: leading digits and dangling
  // hyphens are malformed, digit subtags after the first are fine.
  GraphDatabaseBuilder b1, b2, b3;
  std::istringstream leading_digit("<a> <p> \"x\"@2en .\n");
  EXPECT_FALSE(NTriples::Load(leading_digit, &b1).ok());
  std::istringstream trailing_hyphen("<a> <p> \"x\"@en- .\n");
  EXPECT_FALSE(NTriples::Load(trailing_hyphen, &b2).ok());
  std::istringstream valid("<a> <p> \"x\"@en-US-2 .\n");
  EXPECT_TRUE(NTriples::Load(valid, &b3).ok());
}

TEST(NTriplesEdgeTest, WriteEscapesHostileIriCharacters) {
  // Node/predicate names containing '>', backslashes, or newlines (e.g.
  // decoded from \u escapes on load) must re-escape on Write so the dump
  // always re-parses to the same database.
  GraphDatabaseBuilder b;
  ASSERT_TRUE(b.AddTriple("a>b", "p\\u0041", "new\nline").ok());
  ASSERT_TRUE(b.AddTriple("_:not a label", "p", "o").ok());
  GraphDatabase db = std::move(b).Build();

  std::ostringstream out;
  NTriples::Write(db, out);
  std::istringstream in(out.str());
  GraphDatabaseBuilder b2;
  ASSERT_TRUE(NTriples::Load(in, &b2).ok());
  EXPECT_EQ(SerializedBinary(std::move(b2).Build()), SerializedBinary(db));
}

TEST(NTriplesEdgeTest, TrailingGarbageRejected) {
  GraphDatabaseBuilder b;
  std::istringstream in("<a> <p> <b> . extra tokens\n");
  EXPECT_FALSE(NTriples::Load(in, &b).ok());
}

TEST(NTriplesEdgeTest, WriteRoundTripsEscapesAndBlanks) {
  GraphDatabaseBuilder b;
  ASSERT_TRUE(b.AddTriple("_:b0", "p", "o").ok());
  ASSERT_TRUE(b.AddTripleLiteral("s", "p", "line\nbreak\t\"q\"\\").ok());
  GraphDatabase db = std::move(b).Build();

  std::ostringstream out;
  NTriples::Write(db, out);
  std::istringstream in(out.str());
  GraphDatabaseBuilder b2;
  ASSERT_TRUE(NTriples::Load(in, &b2).ok());
  GraphDatabase db2 = std::move(b2).Build();
  EXPECT_EQ(SerializedBinary(db), SerializedBinary(db2));
}

// ---------------------------------------------------------------------------
// Parallel loader determinism
// ---------------------------------------------------------------------------

std::string LubmText() {
  datagen::LubmConfig config;
  config.num_universities = 1;
  std::ostringstream out;
  NTriples::Write(datagen::MakeLubmDatabase(config), out);
  return out.str();
}

TEST(NTriplesParallelTest, MatchesSequentialByteForByte) {
  const std::string text = LubmText();

  GraphDatabaseBuilder sequential;
  std::istringstream seq_in(text);
  ASSERT_TRUE(NTriples::Load(seq_in, &sequential).ok());
  const std::string reference =
      SerializedBinary(std::move(sequential).Build());

  // Tiny chunks force many cross-chunk dictionary merges.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t chunk_bytes : {size_t{512}, size_t{64} << 10}) {
      NTriplesOptions options;
      options.num_threads = threads;
      options.chunk_bytes = chunk_bytes;
      std::istringstream in(text);
      GraphDatabaseBuilder builder;
      NTriplesStats stats;
      ASSERT_TRUE(NTriples::LoadParallel(in, &builder, options, &stats).ok());
      GraphDatabase db = std::move(builder).Build();
      EXPECT_EQ(SerializedBinary(db), reference)
          << "threads=" << threads << " chunk_bytes=" << chunk_bytes;
      EXPECT_EQ(stats.triples, db.NumTriples());
    }
  }
}

TEST(NTriplesParallelTest, LineLongerThanChunkNeverSplits) {
  std::string long_name(100000, 'x');
  std::string text = "<a> <p> <b> .\n<s> <p> <" + long_name + "> .\n"
                     "<c> <p> <d> .\n";
  NTriplesOptions options;
  options.num_threads = 4;
  options.chunk_bytes = 128;  // far smaller than the long line
  std::istringstream in(text);
  GraphDatabaseBuilder builder;
  ASSERT_TRUE(NTriples::LoadParallel(in, &builder, options).ok());
  GraphDatabase db = std::move(builder).Build();
  EXPECT_EQ(db.NumTriples(), 3u);
  EXPECT_TRUE(db.nodes().Lookup(long_name).has_value());
}

TEST(NTriplesParallelTest, PermissiveStatsMatchSequential) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "<s" + std::to_string(i % 17) + "> <p" + std::to_string(i % 3) +
            "> <o" + std::to_string(i) + "> .\n";
    if (i % 10 == 0) text += "broken line " + std::to_string(i) + "\n";
  }

  NTriplesOptions sequential_options;
  sequential_options.permissive = true;
  NTriplesStats sequential_stats;
  GraphDatabase sequential =
      ParseOrDie(text, sequential_options, &sequential_stats);

  NTriplesOptions options;
  options.permissive = true;
  options.num_threads = 8;
  options.chunk_bytes = 256;
  std::istringstream in(text);
  GraphDatabaseBuilder builder;
  NTriplesStats stats;
  ASSERT_TRUE(NTriples::LoadParallel(in, &builder, options, &stats).ok());
  GraphDatabase db = std::move(builder).Build();

  EXPECT_EQ(SerializedBinary(db), SerializedBinary(sequential));
  EXPECT_EQ(stats.triples, sequential_stats.triples);
  EXPECT_EQ(stats.malformed_lines, sequential_stats.malformed_lines);
  EXPECT_EQ(stats.lines, sequential_stats.lines);
  EXPECT_EQ(stats.first_error, sequential_stats.first_error);
}

TEST(NTriplesParallelTest, StrictErrorNamesTheAbsoluteLine) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "<s" + std::to_string(i) + "> <p> <o> .\n";
  }
  text += "broken\n";  // line 101

  std::istringstream seq_in(text);
  GraphDatabaseBuilder seq_builder;
  NTriplesStats sequential_stats;
  util::Status sequential_status =
      NTriples::Load(seq_in, &seq_builder, {}, &sequential_stats);
  ASSERT_FALSE(sequential_status.ok());

  NTriplesOptions options;
  options.num_threads = 4;
  options.chunk_bytes = 128;
  std::istringstream in(text);
  GraphDatabaseBuilder builder;
  NTriplesStats stats;
  util::Status status = NTriples::LoadParallel(in, &builder, options, &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 101"), std::string::npos)
      << status.message();
  EXPECT_EQ(status.message(), sequential_status.message());
  EXPECT_EQ(stats.lines, sequential_stats.lines);
}

TEST(NTriplesParallelTest, FileRoundTrip) {
  const std::string path = TempPath("ntriples_parallel_test.nt");
  {
    std::ofstream out(path);
    out << "<a> <p> <b> .\n<b> <p> \"lit\"@en .\n_:x <p> <a> .\n";
  }
  GraphDatabaseBuilder builder;
  NTriplesOptions options;
  options.num_threads = 2;
  ASSERT_TRUE(
      NTriples::LoadFileParallel(path, &builder, options).ok());
  EXPECT_EQ(std::move(builder).Build().NumTriples(), 3u);
  GraphDatabaseBuilder missing;
  EXPECT_FALSE(
      NTriples::LoadFileParallel("/nonexistent/x.nt", &missing, options)
          .ok());
}

// --- max_line_bytes: the chunk reader's unbounded-growth cap -------------
//
// Before the cap, a line with no newline grew NextChunk's buffer until EOF
// — a newline-free multi-gigabyte file was slurped whole while the reader
// hunted for a chunk boundary. These tests pin the replacement behavior:
// an over-limit line is malformed (skipped in permissive mode, a hard
// error in strict mode, with the same message either way), and the chunk
// buffers stay near chunk_bytes + max_line_bytes no matter the input.

// A syntactically VALID triple whose line is over the limit — proving the
// length cap, not the grammar, is what rejects it.
std::string OversizeText() {
  std::string giant(8192, 'x');
  return "<a> <p> <b> .\n<s> <p> <" + giant + "> .\n<c> <p> <d> .\n";
}

TEST(NTriplesLineLimitTest, StrictErrorMatchesSequential) {
  NTriplesOptions options;
  options.max_line_bytes = 1024;

  std::istringstream seq_in(OversizeText());
  GraphDatabaseBuilder seq_builder;
  NTriplesStats seq_stats;
  util::Status sequential =
      NTriples::Load(seq_in, &seq_builder, options, &seq_stats);
  ASSERT_FALSE(sequential.ok());
  EXPECT_NE(sequential.message().find("line 2"), std::string::npos);
  EXPECT_NE(sequential.message().find("1024-byte line limit"),
            std::string::npos)
      << sequential.message();

  options.num_threads = 4;
  options.chunk_bytes = 2048;
  std::istringstream par_in(OversizeText());
  GraphDatabaseBuilder par_builder;
  NTriplesStats par_stats;
  util::Status parallel =
      NTriples::LoadParallel(par_in, &par_builder, options, &par_stats);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.message(), sequential.message());
  EXPECT_EQ(par_stats.lines, seq_stats.lines);
}

TEST(NTriplesLineLimitTest, PermissiveSkipsAndBoundsChunkGrowth) {
  // Two oversize lines, the second unterminated at EOF.
  std::string text = OversizeText() + "<t> <p> <" +
                     std::string(300000, 'y') + "> .";  // no trailing \n

  NTriplesOptions options;
  options.permissive = true;
  options.max_line_bytes = 1024;
  NTriplesStats seq_stats;
  GraphDatabase sequential = ParseOrDie(text, options, &seq_stats);
  EXPECT_EQ(sequential.NumTriples(), 2u);
  EXPECT_EQ(seq_stats.malformed_lines, 2u);

  options.num_threads = 4;
  options.chunk_bytes = 2048;
  std::istringstream in(text);
  GraphDatabaseBuilder builder;
  NTriplesStats stats;
  ASSERT_TRUE(NTriples::LoadParallel(in, &builder, options, &stats).ok());
  GraphDatabase db = std::move(builder).Build();

  EXPECT_EQ(SerializedBinary(db), SerializedBinary(sequential));
  EXPECT_EQ(stats.malformed_lines, seq_stats.malformed_lines);
  EXPECT_EQ(stats.lines, seq_stats.lines);
  EXPECT_EQ(stats.first_error, seq_stats.first_error);

  // The 300 KB garbage line must never reach a chunk buffer whole: peak
  // stays near chunk_bytes + the read granularity, far below the input.
  EXPECT_GT(stats.peak_chunk_bytes, 0u);
  EXPECT_LT(stats.peak_chunk_bytes, size_t{32} << 10)
      << "chunk buffers grew with the oversize line";
}

TEST(NTriplesLineLimitTest, ZeroDisablesTheLimit) {
  NTriplesOptions options;
  options.max_line_bytes = 0;
  NTriplesStats stats;
  GraphDatabase db = ParseOrDie(OversizeText(), options, &stats);
  EXPECT_EQ(db.NumTriples(), 3u);
  EXPECT_EQ(stats.malformed_lines, 0u);
}

}  // namespace
}  // namespace sparqlsim::graph
