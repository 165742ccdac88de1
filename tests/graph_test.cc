#include "graph/graph_database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "datagen/random_graphs.h"
#include "graph/binary_io.h"
#include "graph/dictionary.h"
#include "graph/graph.h"
#include "graph/ntriples.h"
#include "temp_path.h"

namespace sparqlsim::graph {
namespace {

using sparqlsim_test::TempPath;

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  uint32_t a = d.Intern("alpha");
  uint32_t b = d.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("alpha"), a);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.Name(a), "alpha");
  EXPECT_EQ(d.Lookup("beta"), b);
  EXPECT_FALSE(d.Lookup("gamma").has_value());
}

TEST(DictionaryTest, DenseFirstSeenIds) {
  Dictionary d;
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(d.Intern("n" + std::to_string(i)), i);
  }
}

TEST(DictionaryTest, EmptyAndEmptyStringNames) {
  Dictionary d;
  EXPECT_EQ(d.size(), 0u);
  EXPECT_FALSE(d.Lookup("").has_value());
  EXPECT_EQ(d.Intern(""), 0u);
  EXPECT_EQ(d.Intern("x"), 1u);
  EXPECT_EQ(d.Lookup(""), 0u);
  EXPECT_EQ(d.Name(0), "");
}

// The bucket table is a function of the names (in id order) and their
// count alone: interning one by one and reserving first build the same
// bytes, which is what makes SQSIMDB3 files reproducible.
TEST(DictionaryTest, TableDependsOnlyOnTheNames) {
  Dictionary grown;
  Dictionary reserved;
  reserved.Reserve(1000);
  for (uint32_t i = 0; i < 1000; ++i) {
    const std::string name = "node/" + std::to_string(i * 7919 % 1000);
    grown.Intern(name);
    ASSERT_EQ(grown.buckets().size(), Dictionary::BucketCount(grown.size()))
        << "after " << grown.size() << " names";
    reserved.Intern(name);
  }
  EXPECT_TRUE(std::ranges::equal(grown.buckets(), reserved.buckets()));
  EXPECT_TRUE(std::ranges::equal(grown.offsets(), reserved.offsets()));
  EXPECT_TRUE(std::ranges::equal(grown.blob(), reserved.blob()));
}

TEST(DictionaryTest, MapViewsValidArraysWithoutCopying) {
  Dictionary owned;
  for (uint32_t i = 0; i < 300; ++i) owned.Intern("n" + std::to_string(i));
  auto mapped = Dictionary::Map(owned.blob(), owned.offsets(),
                                owned.buckets(), nullptr);
  ASSERT_TRUE(mapped.ok()) << mapped.error_message();
  const Dictionary& d = *mapped.value();
  EXPECT_EQ(d.size(), owned.size());
  EXPECT_EQ(d.blob().data(), owned.blob().data());
  for (uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(d.Name(i), owned.Name(i));
    EXPECT_EQ(d.Lookup(owned.Name(i)), i);
  }
  EXPECT_FALSE(d.Lookup("n300").has_value());

  // A bucket table that is too small for its names is rejected.
  auto crowded = Dictionary::Map(owned.blob(), owned.offsets(),
                                 owned.buckets().first(256), nullptr);
  EXPECT_FALSE(crowded.ok());
}

TEST(GraphTest, EdgesAndLabels) {
  Graph g(3);
  g.AddEdge(0, 2, 1);
  g.AddEdge(1, 0, 2);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.LabelUpperBound(), 3u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphTest, Connectivity) {
  Graph g(4);
  g.AddEdge(0, 0, 1);
  EXPECT_FALSE(g.IsConnected());  // 2, 3 unreachable
  g.AddEdge(2, 0, 1);
  g.AddEdge(3, 0, 2);
  EXPECT_TRUE(g.IsConnected());  // undirected sense
}

TEST(GraphDatabaseTest, BuildAndStats) {
  GraphDatabaseBuilder b;
  ASSERT_TRUE(b.AddTriple("x", "p", "y").ok());
  ASSERT_TRUE(b.AddTriple("x", "p", "z").ok());
  ASSERT_TRUE(b.AddTriple("y", "q", "z").ok());
  GraphDatabase db = std::move(b).Build();

  EXPECT_EQ(db.NumNodes(), 3u);
  EXPECT_EQ(db.NumPredicates(), 2u);
  EXPECT_EQ(db.NumTriples(), 3u);

  uint32_t p = *db.predicates().Lookup("p");
  EXPECT_EQ(db.PredicateCardinality(p), 2u);
  EXPECT_EQ(db.DistinctSubjects(p), 1u);
  EXPECT_EQ(db.DistinctObjects(p), 2u);

  uint32_t x = *db.nodes().Lookup("x");
  EXPECT_TRUE(db.ForwardSummary(p).Test(x));
  EXPECT_FALSE(db.BackwardSummary(p).Test(x));
}

TEST(GraphDatabaseTest, ForwardBackwardAreTransposes) {
  GraphDatabaseBuilder b;
  ASSERT_TRUE(b.AddTriple("a", "p", "b").ok());
  ASSERT_TRUE(b.AddTriple("c", "p", "b").ok());
  GraphDatabase db = std::move(b).Build();
  uint32_t p = *db.predicates().Lookup("p");
  for (size_t s = 0; s < db.NumNodes(); ++s) {
    for (size_t o = 0; o < db.NumNodes(); ++o) {
      EXPECT_EQ(db.Forward(p).Test(s, o), db.Backward(p).Test(o, s));
    }
  }
}

TEST(GraphDatabaseTest, LiteralSubjectRejected) {
  GraphDatabaseBuilder b;
  ASSERT_TRUE(b.AddTripleLiteral("city", "population", "70063").ok());
  uint32_t lit = b.InternLiteral("70063");
  uint32_t p = b.InternPredicate("population");
  uint32_t o = b.InternNode("city");
  util::Status status = b.AddTripleIds(lit, p, o);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("literal"), std::string::npos);
}

TEST(GraphDatabaseTest, DuplicateTriplesMerge) {
  GraphDatabaseBuilder b;
  ASSERT_TRUE(b.AddTriple("a", "p", "b").ok());
  ASSERT_TRUE(b.AddTriple("a", "p", "b").ok());
  GraphDatabase db = std::move(b).Build();
  EXPECT_EQ(db.NumTriples(), 1u);
}

TEST(GraphDatabaseTest, ForEachTripleRoundTrip) {
  GraphDatabaseBuilder b;
  ASSERT_TRUE(b.AddTriple("a", "p", "b").ok());
  ASSERT_TRUE(b.AddTriple("b", "q", "c").ok());
  ASSERT_TRUE(b.AddTriple("c", "p", "a").ok());
  GraphDatabase db = std::move(b).Build();
  std::vector<Triple> all = db.AllTriples();
  EXPECT_EQ(all.size(), 3u);
  for (const Triple& t : all) {
    EXPECT_TRUE(db.Forward(t.predicate).Test(t.subject, t.object));
  }
}

TEST(GraphDatabaseTest, RestrictSharesDictionaries) {
  GraphDatabaseBuilder b;
  ASSERT_TRUE(b.AddTriple("a", "p", "b").ok());
  ASSERT_TRUE(b.AddTriple("b", "q", "c").ok());
  GraphDatabase db = std::move(b).Build();

  std::vector<Triple> kept = {
      {*db.nodes().Lookup("a"), *db.predicates().Lookup("p"),
       *db.nodes().Lookup("b")}};
  GraphDatabase pruned = db.Restrict(kept);
  EXPECT_EQ(pruned.NumTriples(), 1u);
  EXPECT_EQ(pruned.NumNodes(), db.NumNodes());  // same universe
  EXPECT_EQ(*pruned.nodes().Lookup("a"), *db.nodes().Lookup("a"));
  uint32_t q = *pruned.predicates().Lookup("q");
  EXPECT_EQ(pruned.PredicateCardinality(q), 0u);
}

TEST(GraphDatabaseTest, MemoryReports) {
  GraphDatabaseBuilder b;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        b.AddTriple("s" + std::to_string(i % 10), "p",
                    "o" + std::to_string(i))
            .ok());
  }
  GraphDatabase db = std::move(b).Build();
  EXPECT_GT(db.ApproxMatrixBytes(), 0u);
  EXPECT_GT(db.GapEncodedMatrixBytes(), 0u);
}

// f^p / b^p of Eq. (13) are the matrices' row-presence bitmaps: they must
// name exactly the subjects / objects that have a p-triple, through every
// way a database version comes about.
void ExpectSummariesMatchTriples(const GraphDatabase& db,
                                 const std::string& context) {
  for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
    util::BitVector subjects(db.NumNodes());
    util::BitVector objects(db.NumNodes());
    db.ForEachTriple(p, [&](uint32_t s, uint32_t o) {
      subjects.Set(s);
      objects.Set(o);
    });
    EXPECT_EQ(db.ForwardSummary(p), subjects) << context << " p=" << p;
    EXPECT_EQ(db.BackwardSummary(p), objects) << context << " p=" << p;
    EXPECT_EQ(db.DistinctSubjects(p), subjects.Count()) << context;
    EXPECT_EQ(db.DistinctObjects(p), objects.Count()) << context;
    EXPECT_EQ(db.EmptyForwardColumns(p), db.NumNodes() - objects.Count());
    EXPECT_EQ(db.EmptyBackwardColumns(p), db.NumNodes() - subjects.Count());
  }
}

TEST(GraphDatabaseTest, SummariesTrackTriplesAcrossVersions) {
  datagen::RandomGraphConfig config;
  config.num_nodes = 150;  // not a multiple of 64
  config.num_edges = 400;
  config.num_labels = 4;
  config.seed = 23;
  GraphDatabase db = datagen::MakeRandomDatabase(config);
  ExpectSummariesMatchTriples(db, "built");

  // Add triples on the word boundary rows, then remove a third of all.
  std::vector<Triple> added;
  for (uint32_t node : {0u, 63u, 64u, 127u, 128u, 149u}) {
    added.push_back({node, 1, static_cast<uint32_t>(149 - node)});
  }
  GraphDatabase grown = db.WithTriplesAdded(added);
  ExpectSummariesMatchTriples(grown, "added");

  std::vector<Triple> all = grown.AllTriples();
  std::vector<Triple> removed;
  for (size_t i = 0; i < all.size(); i += 3) removed.push_back(all[i]);
  GraphDatabase shrunk = grown.WithTriplesRemoved(removed);
  ASSERT_EQ(shrunk.NumTriples(), all.size() - removed.size());
  ExpectSummariesMatchTriples(shrunk, "removed");

  const std::string path = TempPath("graph_test_summaries.gdb");
  ASSERT_TRUE(BinaryIo::SaveV2File(shrunk, path).ok());
  auto loaded = BinaryIo::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  ExpectSummariesMatchTriples(loaded.value(), "loaded");
  for (uint32_t p = 0; p < shrunk.NumPredicates(); ++p) {
    EXPECT_EQ(loaded.value().ForwardSummary(p), shrunk.ForwardSummary(p));
    EXPECT_EQ(loaded.value().BackwardSummary(p), shrunk.BackwardSummary(p));
  }
  std::remove(path.c_str());
}

TEST(NTriplesTest, ParseBasicLines) {
  std::istringstream in(
      "<a> <p> <b> .\n"
      "# comment\n"
      "\n"
      "<b> <pop> \"1234\" .\n"
      "<c> <label> \"hello \\\"world\\\"\" .\n");
  GraphDatabaseBuilder b;
  ASSERT_TRUE(NTriples::Load(in, &b).ok());
  GraphDatabase db = std::move(b).Build();
  EXPECT_EQ(db.NumTriples(), 3u);
  EXPECT_TRUE(db.nodes().Lookup("hello \"world\"").has_value());
  EXPECT_TRUE(db.IsLiteral(*db.nodes().Lookup("1234")));
}

TEST(NTriplesTest, ParseErrorsDiagnoseLine) {
  std::istringstream in("<a> <p> <b> .\nbroken line\n");
  GraphDatabaseBuilder b;
  util::Status status = NTriples::Load(in, &b);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST(NTriplesTest, MissingDotRejected) {
  std::istringstream in("<a> <p> <b>\n");
  GraphDatabaseBuilder b;
  EXPECT_FALSE(NTriples::Load(in, &b).ok());
}

TEST(NTriplesTest, WriteReadRoundTrip) {
  GraphDatabaseBuilder b;
  ASSERT_TRUE(b.AddTriple("s", "p", "o").ok());
  ASSERT_TRUE(b.AddTripleLiteral("s", "pop", "12\"34").ok());
  GraphDatabase db = std::move(b).Build();

  std::ostringstream out;
  NTriples::Write(db, out);
  std::istringstream in(out.str());
  GraphDatabaseBuilder b2;
  ASSERT_TRUE(NTriples::Load(in, &b2).ok());
  GraphDatabase db2 = std::move(b2).Build();
  EXPECT_EQ(db2.NumTriples(), db.NumTriples());
  EXPECT_TRUE(db2.IsLiteral(*db2.nodes().Lookup("12\"34")));
}

TEST(NTriplesTest, DatatypeSuffixSkipped) {
  std::istringstream in("<a> <p> \"42\"^^<xsd:integer> .\n");
  GraphDatabaseBuilder b;
  ASSERT_TRUE(NTriples::Load(in, &b).ok());
  GraphDatabase db = std::move(b).Build();
  EXPECT_TRUE(db.nodes().Lookup("42").has_value());
}

}  // namespace
}  // namespace sparqlsim::graph
