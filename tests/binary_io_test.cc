#include "graph/binary_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>

#include "datagen/lubm.h"
#include "datagen/movies.h"
#include "datagen/random_graphs.h"
#include "graph/ntriples.h"
#include "temp_path.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace sparqlsim::graph {
namespace {

using sparqlsim_test::TempPath;

void ExpectSameDatabase(const GraphDatabase& a, const GraphDatabase& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumPredicates(), b.NumPredicates());
  ASSERT_EQ(a.NumTriples(), b.NumTriples());
  for (uint32_t node = 0; node < a.NumNodes(); ++node) {
    EXPECT_EQ(a.nodes().Name(node), b.nodes().Name(node));
    EXPECT_EQ(b.nodes().Lookup(a.nodes().Name(node)), node);
    EXPECT_EQ(a.IsLiteral(node), b.IsLiteral(node));
  }
  for (uint32_t p = 0; p < a.NumPredicates(); ++p) {
    EXPECT_EQ(a.predicates().Name(p), b.predicates().Name(p));
    EXPECT_EQ(b.predicates().Lookup(a.predicates().Name(p)), p);
    EXPECT_EQ(a.PredicateCardinality(p), b.PredicateCardinality(p));
  }
  std::vector<Triple> ta = a.AllTriples();
  std::vector<Triple> tb = b.AllTriples();
  EXPECT_EQ(ta, tb);
}

// The graph behind tests/data/movies_v1.gdb and movies_v2.gdb. Those files
// were written by the last SQSIMDB1 and SQSIMDB2 writers and are never
// regenerated: they pin the read-only v1 and v2 readers. The graph is the
// Fig. 1(a) movie graph re-interned in its own id order, plus a blank
// node, a 200-byte name, an escaped and an empty literal, a 200-edge chain
// (ids past the one-byte varint range) and an isolated node.
GraphDatabase FixtureGraph() {
  GraphDatabase movies = datagen::MakeMovieDatabase();
  GraphDatabaseBuilder builder;
  for (uint32_t node = 0; node < movies.NumNodes(); ++node) {
    if (movies.IsLiteral(node)) {
      builder.InternLiteral(movies.nodes().Name(node));
    } else {
      builder.InternNode(movies.nodes().Name(node));
    }
  }
  for (uint32_t p = 0; p < movies.NumPredicates(); ++p) {
    builder.InternPredicate(movies.predicates().Name(p));
  }
  movies.ForEachTriple([&](const Triple& t) {
    EXPECT_TRUE(builder.AddTripleIds(t.subject, t.predicate, t.object).ok());
  });
  EXPECT_TRUE(builder.AddTriple("_:b0", "knows", std::string(200, 'x')).ok());
  EXPECT_TRUE(
      builder.AddTripleLiteral("_:b0", "label", "caf\xc3\xa9 \"quoted\"\n")
          .ok());
  EXPECT_TRUE(builder.AddTripleLiteral("_:b0", "label", "").ok());
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(builder
                    .AddTriple("n" + std::to_string(i), "next",
                               "n" + std::to_string(i + 1))
                    .ok());
  }
  builder.InternNode("isolated");
  return std::move(builder).Build();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string FixturePath(const std::string& name) {
  return std::string(SPARQLSIM_TEST_DATA_DIR) + "/" + name;
}

std::string SaveV2Bytes(const GraphDatabase& db) {
  std::stringstream out;
  BinaryIo::SaveV2(db, out);
  return out.str();
}

// --- Round trips through the one writer ----------------------------------

TEST(BinaryIoTest, MovieRoundTrip) {
  GraphDatabase db = datagen::MakeMovieDatabase();
  std::stringstream buffer;
  BinaryIo::SaveV2(db, buffer);
  auto loaded = BinaryIo::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  ExpectSameDatabase(db, loaded.value());
}

TEST(BinaryIoTest, RandomRoundTrips) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    datagen::RandomGraphConfig config;
    config.num_nodes = 100;
    config.num_edges = 500;
    config.num_labels = 4;
    config.seed = seed;
    GraphDatabase db = datagen::MakeRandomDatabase(config);
    std::stringstream buffer;
    BinaryIo::SaveV2(db, buffer);
    auto loaded = BinaryIo::Load(buffer);
    ASSERT_TRUE(loaded.ok()) << loaded.error_message();
    ExpectSameDatabase(db, loaded.value());
  }
}

TEST(BinaryIoTest, LubmRoundTripPreservesIds) {
  datagen::LubmConfig config;
  config.num_universities = 1;
  GraphDatabase db = datagen::MakeLubmDatabase(config);
  std::stringstream buffer;
  BinaryIo::SaveV2(db, buffer);
  auto loaded = BinaryIo::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  // Dense first-seen interning preserves ids exactly.
  EXPECT_EQ(*loaded.value().nodes().Lookup("U0/D0"),
            *db.nodes().Lookup("U0/D0"));
  ExpectSameDatabase(db, loaded.value());
}

TEST(BinaryIoTest, RejectsGarbage) {
  std::stringstream buffer("not a database at all");
  auto loaded = BinaryIo::Load(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error_message().find("not a sparqlsim"),
            std::string::npos);
  EXPECT_FALSE(BinaryIo::LoadFile("/nonexistent/x.gdb").ok());
}

TEST(BinaryIoTest, RejectsUnknownVersion) {
  std::string bytes = ReadFileBytes(FixturePath("movies_v1.gdb"));
  bytes[7] = '9';  // future format version
  std::stringstream patched(bytes);
  auto loaded = BinaryIo::Load(patched);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error_message().find("unsupported"), std::string::npos)
      << loaded.error_message();
}

TEST(BinaryIoTest, RejectsCorruptStringLengthWithoutAllocating) {
  // Magic + a varint string length of ~2^62: the loader must fail with a
  // clean Status at the input's end, not attempt a multi-exabyte resize.
  std::string bytes = "SQSIMDB1";
  bytes += '\x05';  // num_nodes = 5
  bytes += '\x01';  // num_predicates = 1
  for (int i = 0; i < 8; ++i) bytes += '\xff';
  bytes += '\x3f';  // 9-byte varint ~= 4.6e18 as the first name's length
  std::stringstream in(bytes);
  auto loaded = BinaryIo::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error_message().find("truncated"), std::string::npos);
}

TEST(BinaryIoTest, RejectsOversizedHeaderCounts) {
  std::string bytes = "SQSIMDB1";
  for (int i = 0; i < 9; ++i) bytes += '\xff';
  bytes += '\x01';  // num_nodes > 2^32
  bytes += '\x01';  // num_predicates = 1
  std::stringstream in(bytes);
  auto loaded = BinaryIo::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error_message().find("corrupt header"), std::string::npos)
      << loaded.error_message();
}

TEST(BinaryIoTest, RejectsTruncation) {
  const std::string bytes = ReadFileBytes(FixturePath("movies_v1.gdb"));
  // Chop the file at several points; every prefix must fail cleanly.
  for (size_t cut : {size_t{4}, size_t{12}, bytes.size() / 2,
                     bytes.size() - 3}) {
    std::stringstream truncated(bytes.substr(0, cut));
    auto loaded = BinaryIo::Load(truncated);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
  }
}

TEST(BinaryIoTest, BinaryIsSmallerThanNTriples) {
  datagen::LubmConfig config;
  config.num_universities = 1;
  GraphDatabase db = datagen::MakeLubmDatabase(config);
  // Rough comparison against the text serialization.
  std::stringstream text;
  NTriples::Write(db, text);
  EXPECT_LT(SaveV2Bytes(db).size(), text.str().size());
}

// --- SQSIMDB3 writer, SQSIMDB2/3 reader -----------------------------------

TEST(BinaryIoV2Test, StreamRoundTrip) {
  GraphDatabase db = datagen::MakeMovieDatabase();
  std::stringstream buffer;
  BinaryIo::SaveV2(db, buffer);
  auto loaded = BinaryIo::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  // A stream load is lazy over its buffered bytes, as a file load is over
  // its mapping.
  EXPECT_TRUE(loaded.value().HasBacking());
  EXPECT_EQ(loaded.value().backing_stats().materializations, 0u);
  ExpectSameDatabase(db, loaded.value());
  // Re-serializing reproduces the original bytes.
  EXPECT_EQ(SaveV2Bytes(loaded.value()), buffer.str());
}

TEST(BinaryIoV2Test, EdgeCaseRoundTrips) {
  // Empty database.
  GraphDatabase empty = GraphDatabaseBuilder().Build();
  // Nodes but no predicates (and hence no triples).
  GraphDatabaseBuilder nodes_only_builder;
  nodes_only_builder.InternNode("a");
  nodes_only_builder.InternLiteral("lit");
  GraphDatabase nodes_only = std::move(nodes_only_builder).Build();
  // A single triple.
  GraphDatabaseBuilder single_builder;
  ASSERT_TRUE(single_builder.AddTriple("s", "p", "o").ok());
  GraphDatabase single = std::move(single_builder).Build();
  // Node ids straddling the varint byte boundaries (128, 16384), with the
  // maximum id as both an isolated name and a triple endpoint.
  GraphDatabaseBuilder wide_builder;
  for (int i = 0; i < 17000; ++i) {
    wide_builder.InternNode("n" + std::to_string(i));
  }
  ASSERT_TRUE(wide_builder.AddTriple("n16999", "p", "n0").ok());
  ASSERT_TRUE(wide_builder.AddTriple("n127", "p", "n128").ok());
  ASSERT_TRUE(wide_builder.AddTriple("n16383", "q", "n16384").ok());
  GraphDatabase wide = std::move(wide_builder).Build();

  for (const GraphDatabase* db : {&empty, &nodes_only, &single, &wide}) {
    std::stringstream buffer;
    BinaryIo::SaveV2(*db, buffer);
    auto loaded = BinaryIo::Load(buffer);
    ASSERT_TRUE(loaded.ok()) << loaded.error_message();
    ExpectSameDatabase(*db, loaded.value());
    EXPECT_EQ(SaveV2Bytes(loaded.value()), buffer.str());
  }
}

TEST(BinaryIoV2Test, FileWriterThreadCountNeverChangesTheBytes) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 300;
  config.num_edges = 2000;
  config.num_labels = 9;  // enough predicate blocks to overlap
  config.seed = 17;
  GraphDatabase db = datagen::MakeRandomDatabase(config);

  std::string reference = SaveV2Bytes(db);
  EXPECT_EQ(reference.substr(0, 8), "SQSIMDB3");
  for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{4},
                         size_t{8}}) {
    const std::string path =
        TempPath("v2_threads_" + std::to_string(threads) + ".gdb");
    ASSERT_TRUE(BinaryIo::SaveV2File(db, path, threads).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), reference) << "threads=" << threads;
  }
}

TEST(BinaryIoV2Test, LazyFileOpenMatchesTheSource) {
  datagen::LubmConfig config;
  config.num_universities = 1;
  GraphDatabase db = datagen::MakeLubmDatabase(config);
  const std::string path = TempPath("v2_file_test.gdb");
  ASSERT_TRUE(BinaryIo::SaveV2File(db, path).ok());

  auto lazy = BinaryIo::LoadFile(path);
  ASSERT_TRUE(lazy.ok()) << lazy.error_message();
  EXPECT_TRUE(lazy.value().HasBacking());
  EXPECT_TRUE(lazy.value().MaterializeAll().ok());
  ExpectSameDatabase(db, lazy.value());
  EXPECT_EQ(SaveV2Bytes(lazy.value()), SaveV2Bytes(db));
}

// Regression for the delete path: WithTriplesRemoved must never compact
// node ids or reorder dictionary interning — even when a node loses its
// last triple — so that delete + re-insert round-trips to *byte-identical*
// serialization. Cache keys and .gdb reproducibility both hang on this.
TEST(BinaryIoV2Test, DeleteThenRestoreSerializesByteIdentically) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 60;
  config.num_edges = 200;
  config.num_labels = 3;
  config.seed = 9;
  GraphDatabase db = datagen::MakeRandomDatabase(config);
  const std::string original = SaveV2Bytes(db);

  // Remove every triple touching node 0 (orphaning it) plus a spread of
  // others; the universe must survive unchanged.
  std::vector<Triple> all = db.AllTriples();
  std::vector<Triple> removed;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].subject == 0 || all[i].object == 0 || i % 7 == 0) {
      removed.push_back(all[i]);
    }
  }
  ASSERT_FALSE(removed.empty());
  GraphDatabase pruned = db.WithTriplesRemoved(removed);
  EXPECT_EQ(pruned.NumNodes(), db.NumNodes());
  EXPECT_EQ(pruned.NumPredicates(), db.NumPredicates());
  EXPECT_EQ(pruned.NumTriples(), db.NumTriples() - removed.size());
  for (uint32_t node = 0; node < db.NumNodes(); ++node) {
    EXPECT_EQ(pruned.nodes().Name(node), db.nodes().Name(node));
  }

  // Restoring the removed triples reproduces the original bytes exactly:
  // same intern order, same ids, same slab content.
  GraphDatabase restored = pruned.WithTriplesAdded(removed);
  EXPECT_EQ(SaveV2Bytes(restored), original);

  // And through an actual reload of the pruned snapshot.
  std::stringstream pruned_bytes(SaveV2Bytes(pruned));
  auto reloaded = BinaryIo::Load(pruned_bytes);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error_message();
  ExpectSameDatabase(pruned, reloaded.value());
  GraphDatabase restored2 = reloaded.value().WithTriplesAdded(removed);
  EXPECT_EQ(SaveV2Bytes(restored2), original);

  // Removing absent triples is a content no-op: generation kept, bytes
  // identical.
  Triple absent{1, 0, 1};
  while (db.Forward(absent.predicate).Test(absent.subject, absent.object)) {
    ++absent.object;  // find a (1, p0, o) edge the graph doesn't have
  }
  GraphDatabase noop = db.WithTriplesRemoved({&absent, 1});
  EXPECT_EQ(noop.generation(), db.generation());
  EXPECT_EQ(SaveV2Bytes(noop), original);
}

TEST(BinaryIoV2Test, RejectsCorruptFooterAndDirectory) {
  GraphDatabase db = datagen::MakeMovieDatabase();
  std::string bytes = SaveV2Bytes(db);

  // Break the footer tail magic.
  std::string bad_footer = bytes;
  bad_footer[bad_footer.size() - 1] ^= 0x5A;
  std::stringstream footer_in(bad_footer);
  auto footer_load = BinaryIo::Load(footer_in);
  ASSERT_FALSE(footer_load.ok());
  EXPECT_NE(footer_load.error_message().find("footer"), std::string::npos)
      << footer_load.error_message();

  // Flip a byte inside the directory (just before the 32-byte footer):
  // the directory checksum must catch it.
  std::string bad_dir = bytes;
  bad_dir[bad_dir.size() - 33] ^= 0x01;
  std::stringstream dir_in(bad_dir);
  auto dir_load = BinaryIo::Load(dir_in);
  ASSERT_FALSE(dir_load.ok());
  EXPECT_NE(dir_load.error_message().find("directory"), std::string::npos)
      << dir_load.error_message();
}

TEST(BinaryIoV2Test, RejectsCorruptPredicateBlock) {
  GraphDatabase db = datagen::MakeMovieDatabase();
  std::string bytes = SaveV2Bytes(db);
  // Flip the last byte before the directory: the last predicate block's
  // row payload. Open validates no block payload; the block's checksum
  // fails when it materializes.
  uint64_t dir_offset = 0;
  std::memcpy(&dir_offset, bytes.data() + bytes.size() - 32, 8);
  bytes[dir_offset - 1] ^= 0x40;
  std::stringstream in(bytes);
  auto loaded = BinaryIo::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  util::Status status = loaded.value().MaterializeAll();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
      << status.message();
}

TEST(BinaryIoV2Test, RejectsTruncation) {
  GraphDatabase db = datagen::MakeMovieDatabase();
  std::string bytes = SaveV2Bytes(db);
  for (size_t cut : {size_t{4}, size_t{12}, size_t{40}, bytes.size() / 2,
                     bytes.size() - 3}) {
    std::stringstream truncated(bytes.substr(0, cut));
    auto loaded = BinaryIo::Load(truncated);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
  }
}

// --- The frozen fixtures: every version loads the same database ---------

TEST(BinaryIoV3Test, FrozenFixturesLoadLikeV3) {
  GraphDatabase db = FixtureGraph();
  const std::string v1_path = FixturePath("movies_v1.gdb");
  const std::string v2_path = FixturePath("movies_v2.gdb");
  ASSERT_EQ(ReadFileBytes(v1_path).substr(0, 8), "SQSIMDB1");
  ASSERT_EQ(ReadFileBytes(v2_path).substr(0, 8), "SQSIMDB2");
  const std::string v3_path = TempPath("fixture_v3.gdb");
  ASSERT_TRUE(BinaryIo::SaveV2File(db, v3_path).ok());
  ASSERT_EQ(ReadFileBytes(v3_path).substr(0, 8), "SQSIMDB3");

  for (const std::string& path : {v1_path, v2_path, v3_path}) {
    SCOPED_TRACE(path);
    std::stringstream in(ReadFileBytes(path));
    auto streamed = BinaryIo::Load(in);
    auto mapped = BinaryIo::LoadFile(path);
    for (const auto* loaded : {&streamed, &mapped}) {
      ASSERT_TRUE(loaded->ok()) << loaded->error_message();
      // A v1 file is parsed whole; v2/v3 predicates stay behind a backing.
      EXPECT_EQ(loaded->value().HasBacking(), path != v1_path);
      ExpectSameDatabase(db, loaded->value());
      // The one writer reproduces the fresh graph's bytes from every load.
      EXPECT_EQ(SaveV2Bytes(loaded->value()), SaveV2Bytes(db));
    }
  }
}

TEST(BinaryIoV3Test, MappedDictionaryOutlivesTheOpenedDatabase) {
  GraphDatabase db = FixtureGraph();
  const std::string path = TempPath("v3_outlive.gdb");
  ASSERT_TRUE(BinaryIo::SaveV2File(db, path).ok());
  std::optional<GraphDatabase> opened(BinaryIo::LoadFile(path).value());
  GraphDatabase restricted = opened->Restrict({});
  std::shared_ptr<const GraphDatabase> snapshot = opened->Snapshot();
  opened.reset();
  std::remove(path.c_str());
  for (uint32_t node = 0; node < db.NumNodes(); ++node) {
    EXPECT_EQ(restricted.nodes().Name(node), db.nodes().Name(node));
    EXPECT_EQ(snapshot->nodes().Lookup(db.nodes().Name(node)), node);
  }
}

// An SQSIMDB3 file with its dictionary block's fields located from the
// header, as docs/DATASETS.md lays them out, so a test can corrupt one
// field and reseal the checksum to reach the structural checks behind it.
class V3File {
 public:
  explicit V3File(const GraphDatabase& db) : bytes_(SaveV2Bytes(db)) {
    auto padded = [](uint64_t bytes) { return (bytes + 7) / 8 * 8; };
    node_offsets_ = 8 + 7 * 8;
    node_buckets_ = node_offsets_ + (Count(0) + 1) * 8;
    node_blob_ = node_buckets_ + padded(Count(2) * 4);
    literal_ = node_blob_ + padded(Count(1));
    const size_t predicate_offsets = literal_ + (Count(0) + 63) / 64 * 8;
    const size_t predicate_buckets =
        predicate_offsets + (Count(3) + 1) * 8;
    const size_t predicate_blob = predicate_buckets + padded(Count(5) * 4);
    end_ = predicate_blob + padded(Count(4));
  }

  /// Header count i: node count, node blob bytes, node bucket count, then
  /// the same three for predicates.
  uint64_t Count(int i) const { return Get<uint64_t>(8 + 8 * i); }
  void SetCount(int i, uint64_t value) { Put<uint64_t>(8 + 8 * i, value); }

  uint64_t NodeOffset(uint32_t id) const {
    return Get<uint64_t>(node_offsets_ + 8 * id);
  }
  void SetNodeOffset(uint32_t id, uint64_t value) {
    Put<uint64_t>(node_offsets_ + 8 * id, value);
  }
  uint32_t NodeBucket(size_t b) const {
    return Get<uint32_t>(node_buckets_ + 4 * b);
  }
  void SetNodeBucket(size_t b, uint32_t id) {
    Put<uint32_t>(node_buckets_ + 4 * b, id);
  }
  size_t FindNodeBucket(bool occupied) const {
    for (size_t b = 0; b < Count(2); ++b) {
      if ((NodeBucket(b) != Dictionary::kEmptyBucket) == occupied) return b;
    }
    ADD_FAILURE() << "no such bucket";
    return 0;
  }
  size_t node_blob() const { return node_blob_; }
  size_t literal() const { return literal_; }

  /// Recomputes the dictionary checksum: FNV-1a-64 over the 64-bit words
  /// of the header counts, then of every section.
  void Reseal() {
    std::vector<uint64_t> words((end_ - 8) / 8);
    std::memcpy(words.data(), bytes_.data() + 8, words.size() * 8);
    const std::span<const uint64_t> all(words);
    Put<uint64_t>(8 + 6 * 8,
                  util::Fnv1a64Words(all.subspan(7),
                                     util::Fnv1a64Words(all.first(6))));
  }

  std::string& bytes() { return bytes_; }

  template <typename T>
  T Get(size_t at) const {
    T value;
    std::memcpy(&value, bytes_.data() + at, sizeof(T));
    return value;
  }
  template <typename T>
  void Put(size_t at, T value) {
    std::memcpy(bytes_.data() + at, &value, sizeof(T));
  }

 private:
  std::string bytes_;
  size_t node_offsets_, node_buckets_, node_blob_, literal_, end_;
};

/// Both open paths (stream and mmap) must reject `bytes` with a Status
/// whose message contains `what`.
void ExpectRejected(const std::string& bytes, const std::string& what) {
  std::stringstream in(bytes);
  auto streamed = BinaryIo::Load(in);
  ASSERT_FALSE(streamed.ok());
  EXPECT_NE(streamed.error_message().find(what), std::string::npos)
      << streamed.error_message();
  const std::string path = TempPath("v3_hostile.gdb");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto mapped = BinaryIo::LoadFile(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.error_message().find(what), std::string::npos)
      << mapped.error_message();
}

TEST(BinaryIoV3Test, UntouchedFileLoads) {
  V3File file(FixtureGraph());
  file.Reseal();  // the test's layout and checksum agree with the writer's
  EXPECT_EQ(file.bytes(), SaveV2Bytes(FixtureGraph()));
  std::stringstream in(file.bytes());
  ASSERT_TRUE(BinaryIo::Load(in).ok());
}

TEST(BinaryIoV3Test, RejectsTruncatedSection) {
  for (int count : {1, 2, 4}) {
    V3File file(FixtureGraph());
    file.SetCount(count, file.bytes().size());
    ExpectRejected(file.bytes(), "truncated dictionary section");
  }
}

TEST(BinaryIoV3Test, RejectsNonMonotoneOffsets) {
  V3File file(FixtureGraph());
  file.SetNodeOffset(1, file.NodeOffset(2) + 1);
  file.Reseal();
  ExpectRejected(file.bytes(), "offsets decrease");
}

TEST(BinaryIoV3Test, RejectsOffsetsPastTheBlob) {
  V3File file(FixtureGraph());
  const uint32_t n = static_cast<uint32_t>(file.Count(0));
  file.SetNodeOffset(n, file.NodeOffset(n) + 1);
  file.Reseal();
  ExpectRejected(file.bytes(), "do not span the name blob");
}

TEST(BinaryIoV3Test, RejectsBucketIdOutOfRange) {
  V3File file(FixtureGraph());
  file.SetNodeBucket(file.FindNodeBucket(/*occupied=*/false),
                     static_cast<uint32_t>(file.Count(0)));
  file.Reseal();
  ExpectRejected(file.bytes(), "out of range");
}

TEST(BinaryIoV3Test, RejectsMissingId) {
  V3File file(FixtureGraph());
  file.SetNodeBucket(file.FindNodeBucket(/*occupied=*/true),
                     Dictionary::kEmptyBucket);
  file.Reseal();
  ExpectRejected(file.bytes(), "misses 1 ids");
}

TEST(BinaryIoV3Test, RejectsIdInTwoBuckets) {
  V3File file(FixtureGraph());
  const uint32_t id = file.NodeBucket(file.FindNodeBucket(/*occupied=*/true));
  file.SetNodeBucket(file.FindNodeBucket(/*occupied=*/false), id);
  file.Reseal();
  ExpectRejected(file.bytes(), "appears in two buckets");
}

TEST(BinaryIoV3Test, RejectsIdUnreachableFromItsHomeBucket) {
  // Move an id that sits in its home bucket to an empty bucket elsewhere:
  // its home bucket is then empty, so a lookup of its name misses it.
  GraphDatabase db = FixtureGraph();
  V3File file(db);
  const size_t mask = file.Count(2) - 1;
  for (size_t b = 0; b <= mask; ++b) {
    const uint32_t id = file.NodeBucket(b);
    if (id == Dictionary::kEmptyBucket) continue;
    const uint64_t hash = util::Fnv1a64(db.nodes().Name(id));
    if (((hash ^ (hash >> 32)) & mask) != b) continue;
    const size_t empty = file.FindNodeBucket(/*occupied=*/false);
    file.SetNodeBucket(empty, id);
    file.SetNodeBucket(b, Dictionary::kEmptyBucket);
    file.Reseal();
    ExpectRejected(file.bytes(), "not reachable from its home bucket");
    return;
  }
  FAIL() << "no id sits in its home bucket";
}

TEST(BinaryIoV3Test, RejectsDuplicateNamesUnderAResealedChecksum) {
  GraphDatabase db = FixtureGraph();
  V3File file(db);
  // "n2" becomes a second "n1".
  const uint32_t n2 = *db.nodes().Lookup("n2");
  file.bytes()[file.node_blob() + file.NodeOffset(n2) + 1] = '1';
  file.Reseal();
  ExpectRejected(file.bytes(), "duplicate dictionary name");
}

TEST(BinaryIoV3Test, RejectsLiteralFlagsPastTheLastNode) {
  V3File file(FixtureGraph());
  ASSERT_NE(file.Count(0) % 64, 0u);
  const size_t last = file.literal() + (file.Count(0) - 1) / 64 * 8;
  file.Put<uint64_t>(last, file.Get<uint64_t>(last) | (uint64_t{1} << 63));
  file.Reseal();
  ExpectRejected(file.bytes(), "literal flags");
}

TEST(BinaryIoV3Test, RejectsAFlippedByte) {
  V3File file(FixtureGraph());
  for (size_t at : {file.node_blob() + 3, file.literal()}) {
    std::string bytes = file.bytes();
    bytes[at] ^= 0x10;
    ExpectRejected(bytes, "checksum mismatch");
  }
}

/// `loaded` with every predicate materialized, so that a corrupt block
/// surfaces as a Status too.
util::Result<GraphDatabase> Materialized(util::Result<GraphDatabase> loaded) {
  if (!loaded.ok()) return loaded;
  util::Status status = loaded.value().MaterializeAll();
  if (!status.ok()) return status;
  return loaded;
}

// Seeded mutation loop over one file of each version: every byte-flipped
// or truncated copy must fail with a clean Status (at open, or when its
// predicates materialize) or load, and the stream and file loads of a
// mutant must agree. v3 checksums its dictionary, directory and blocks, so
// a v3 mutant that loads is the original database. v1 carries no checksum
// and v2 none over its dictionary, so a flipped name or delta byte there
// can load as a different but well-formed database; such a load must
// round-trip through the writer unchanged.
TEST(BinaryIoV3Test, SeededMutationsFailCleanlyOrReloadIdentically) {
  constexpr uint64_t kSeed = 20261017;
  constexpr int kIterations = 3000;
  GraphDatabase db = FixtureGraph();
  const std::string reference = SaveV2Bytes(db);
  const std::pair<const char*, std::string> originals[] = {
      {"v1", ReadFileBytes(FixturePath("movies_v1.gdb"))},
      {"v2", ReadFileBytes(FixturePath("movies_v2.gdb"))},
      {"v3", reference},
  };
  const std::string path = TempPath("mutant.gdb");
  for (const auto& [version, original] : originals) {
    const bool checksummed = std::string(version) == "v3";
    std::printf("%s: mutation seed %llu, %d iterations\n", version,
                static_cast<unsigned long long>(kSeed), kIterations);
    util::Rng rng(kSeed);
    int rejected = 0;
    int changed = 0;
    for (int i = 0; i < kIterations; ++i) {
      SCOPED_TRACE(std::string(version) + ", seed " + std::to_string(kSeed) +
                   ", iteration " + std::to_string(i));
      std::string bytes = original;
      if (rng.NextBounded(4) == 0) {
        bytes.resize(rng.NextBounded(bytes.size()));
      } else {
        const uint64_t flips = 1 + rng.NextBounded(4);
        for (uint64_t f = 0; f < flips; ++f) {
          bytes[rng.NextBounded(bytes.size())] ^=
              static_cast<char>(1 + rng.NextBounded(255));
        }
      }
      std::stringstream in(bytes);
      auto streamed = Materialized(BinaryIo::Load(in));
      if (i % 4 == 0) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
        auto mapped = Materialized(BinaryIo::LoadFile(path));
        ASSERT_EQ(mapped.ok(), streamed.ok());
        if (mapped.ok()) {
          EXPECT_EQ(SaveV2Bytes(mapped.value()), SaveV2Bytes(streamed.value()));
        }
      }
      if (!streamed.ok()) {
        ++rejected;
        continue;
      }
      const std::string resaved = SaveV2Bytes(streamed.value());
      if (checksummed) {
        ExpectSameDatabase(db, streamed.value());
        EXPECT_EQ(resaved, reference);
        continue;
      }
      if (resaved != reference) ++changed;
      std::stringstream again(resaved);
      auto reloaded = Materialized(BinaryIo::Load(again));
      ASSERT_TRUE(reloaded.ok()) << reloaded.error_message();
      ExpectSameDatabase(streamed.value(), reloaded.value());
      EXPECT_EQ(SaveV2Bytes(reloaded.value()), resaved);
    }
    std::printf("%s: %d rejected, %d loaded as a different database\n",
                version, rejected, changed);
    EXPECT_GT(rejected, kIterations / 2);
  }
}

// --- v1 payload hardening (regressions for the varint delta sweep) -------

// Builds the v1 header for a 4-node, 1-predicate database; the caller
// appends the forward-matrix payload under test.
std::string V1HeaderFourNodesOnePredicate() {
  std::string bytes = "SQSIMDB1";
  bytes += '\x04';  // num_nodes
  bytes += '\x01';  // num_predicates
  for (char c : {'a', 'b', 'c', 'd'}) {
    bytes += '\x01';  // name length
    bytes += c;
    bytes += '\x00';  // not a literal
  }
  bytes += '\x01';  // predicate name length
  bytes += 'p';
  return bytes;
}

// A ~2^64 varint delta used to wrap the accumulator back under num_nodes,
// pass the range check, and intern a garbage triple. Both delta kinds
// must now be rejected before any addition happens.
TEST(BinaryIoV1HardeningTest, RejectsWrappingColumnDelta) {
  std::string bytes = V1HeaderFourNodesOnePredicate();
  bytes += '\x01';  // num_rows = 1
  bytes += '\x00';  // row_delta = 0 (row 0)
  bytes += '\x02';  // degree = 2
  bytes += '\x01';  // col_delta = 1 (col 1)
  // col_delta = 2^64 - 1: wraps col to 0 if accumulated before checking.
  for (int i = 0; i < 9; ++i) bytes += '\xff';
  bytes += '\x01';
  std::stringstream in(bytes);
  auto loaded = BinaryIo::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error_message().find("column delta out of range"),
            std::string::npos)
      << loaded.error_message();
}

TEST(BinaryIoV1HardeningTest, RejectsWrappingRowDelta) {
  std::string bytes = V1HeaderFourNodesOnePredicate();
  bytes += '\x02';  // num_rows = 2
  bytes += '\x01';  // row_delta = 1 (row 1)
  bytes += '\x01';  // degree = 1
  bytes += '\x02';  // col 2
  // row_delta = 2^64 - 1: wraps row from 1 back to 0.
  for (int i = 0; i < 9; ++i) bytes += '\xff';
  bytes += '\x01';
  bytes += '\x01';  // degree = 1 (read together with the delta)
  bytes += '\x01';  // col 1
  std::stringstream in(bytes);
  auto loaded = BinaryIo::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error_message().find("row delta out of range"),
            std::string::npos)
      << loaded.error_message();
}

TEST(BinaryIoV1HardeningTest, RejectsNonAscendingRepeats) {
  // A zero delta after the first element would re-add the same row/column
  // — canonical encodings ascend strictly, so repeats are corruption.
  std::string bytes = V1HeaderFourNodesOnePredicate();
  bytes += '\x01';  // num_rows = 1
  bytes += '\x00';  // row 0
  bytes += '\x02';  // degree = 2
  bytes += '\x01';  // col 1
  bytes += '\x00';  // col_delta = 0: a repeat
  std::stringstream in(bytes);
  auto loaded = BinaryIo::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error_message().find("column delta out of range"),
            std::string::npos);
}

TEST(BinaryIoV1HardeningTest, RejectsOversizedDegree) {
  std::string bytes = V1HeaderFourNodesOnePredicate();
  bytes += '\x01';  // num_rows = 1
  bytes += '\x00';  // row 0
  // degree ~= 2^62: must be rejected before the column loop spins.
  for (int i = 0; i < 8; ++i) bytes += '\xff';
  bytes += '\x3f';
  std::stringstream in(bytes);
  auto loaded = BinaryIo::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error_message().find("degree exceeds"), std::string::npos)
      << loaded.error_message();
}

}  // namespace
}  // namespace sparqlsim::graph
