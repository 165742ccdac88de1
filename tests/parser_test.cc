#include "sparql/parser.h"

#include <gtest/gtest.h>

#include <string>

#include "sparql/normalize.h"
#include "sparql/printer.h"

namespace sparqlsim::sparql {
namespace {

TEST(ParserTest, SingleTriplePattern) {
  auto r = Parser::Parse("SELECT * WHERE { ?s <p> ?o . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  const Query& q = r.value();
  EXPECT_TRUE(q.projection.empty());
  EXPECT_FALSE(q.distinct);
  ASSERT_TRUE(q.where->IsBgp());
  ASSERT_EQ(q.where->triples().size(), 1u);
  const TriplePattern& t = q.where->triples()[0];
  EXPECT_EQ(t.subject, Term::Var("s"));
  EXPECT_EQ(t.predicate, Term::Iri("p"));
  EXPECT_EQ(t.object, Term::Var("o"));
}

TEST(ParserTest, IntroductoryQueryX1) {
  // Query (X1) from the paper.
  auto r = Parser::Parse(
      "SELECT * WHERE { ?director <directed> ?movie . "
      "?director <worked_with> ?coworker . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  ASSERT_TRUE(r.value().where->IsBgp());
  EXPECT_EQ(r.value().where->triples().size(), 2u);
  EXPECT_EQ(r.value().Vars(),
            (std::set<std::string>{"director", "movie", "coworker"}));
}

TEST(ParserTest, OptionalQueryX2) {
  // Query (X2) from the paper.
  auto r = Parser::Parse(
      "SELECT * WHERE { ?director <directed> ?movie . "
      "OPTIONAL { ?director <worked_with> ?coworker . } }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  const Pattern& p = *r.value().where;
  ASSERT_EQ(p.kind(), PatternKind::kOptional);
  EXPECT_TRUE(p.left().IsBgp());
  EXPECT_TRUE(p.right().IsBgp());
  EXPECT_EQ(p.MandatoryVars(), (std::set<std::string>{"director", "movie"}));
}

TEST(ParserTest, ProjectionAndDistinct) {
  auto r = Parser::Parse("SELECT DISTINCT ?a ?b WHERE { ?a <p> ?b . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_TRUE(r.value().distinct);
  EXPECT_EQ(r.value().projection, (std::vector<std::string>{"a", "b"}));
}

TEST(ParserTest, PrefixExpansion) {
  auto r = Parser::Parse(
      "PREFIX dbo: <http://dbpedia.org/ontology/> "
      "SELECT * WHERE { ?f dbo:director ?d . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_EQ(r.value().where->triples()[0].predicate,
            Term::Iri("http://dbpedia.org/ontology/director"));
}

TEST(ParserTest, AKeywordExpandsToRdfType) {
  auto r = Parser::Parse("SELECT * WHERE { ?x a <Person> . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_EQ(r.value().where->triples()[0].predicate, Term::Iri("rdf:type"));
}

TEST(ParserTest, LiteralObjects) {
  auto r = Parser::Parse(
      "SELECT * WHERE { ?c <population> \"70063\" . ?c <label> \"Saint "
      "John\"@en . ?c <area> \"12.5\"^^<xsd:decimal> . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  const auto& ts = r.value().where->triples();
  EXPECT_EQ(ts[0].object, Term::Literal("70063"));
  EXPECT_EQ(ts[1].object, Term::Literal("Saint John"));
  EXPECT_EQ(ts[2].object, Term::Literal("12.5"));
}

TEST(ParserTest, NumericLiteral) {
  auto r = Parser::Parse("SELECT * WHERE { ?c <population> 70063 . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_EQ(r.value().where->triples()[0].object, Term::Literal("70063"));
}

TEST(ParserTest, UnionPattern) {
  auto r = Parser::Parse(
      "SELECT * WHERE { { ?x <p> ?y . } UNION { ?x <q> ?y . } }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_EQ(r.value().where->kind(), PatternKind::kUnion);
  EXPECT_FALSE(r.value().where->IsUnionFree());
}

TEST(ParserTest, NestedGroupsJoin) {
  auto r = Parser::Parse(
      "SELECT * WHERE { { ?x <p> ?y . } { ?y <q> ?z . } }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_EQ(r.value().where->kind(), PatternKind::kJoin);
}

TEST(ParserTest, TriplesMergeIntoOneBgp) {
  auto r = Parser::Parse(
      "SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?x . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  ASSERT_TRUE(r.value().where->IsBgp());
  EXPECT_EQ(r.value().where->triples().size(), 3u);
}

TEST(ParserTest, TrailingTriplesAfterOptional) {
  auto r = Parser::Parse(
      "SELECT * WHERE { ?x <p> ?y . OPTIONAL { ?x <q> ?z . } ?y <r> ?w . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  // Left fold: Join(Optional(BGP, BGP), BGP).
  EXPECT_EQ(r.value().where->kind(), PatternKind::kJoin);
  EXPECT_EQ(r.value().where->left().kind(), PatternKind::kOptional);
}

TEST(ParserTest, QueryX3Structure) {
  // (X3): ({(v1,a,v2)} OPTIONAL {(v3,b,v2)}) AND {(v3,c,v4)}.
  auto r = Parser::Parse(
      "SELECT * WHERE { ?v1 <a> ?v2 . OPTIONAL { ?v3 <b> ?v2 . } "
      "?v3 <c> ?v4 . }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  const Pattern& p = *r.value().where;
  ASSERT_EQ(p.kind(), PatternKind::kJoin);
  EXPECT_EQ(p.left().kind(), PatternKind::kOptional);
  EXPECT_FALSE(IsWellDesigned(p));  // Sect. 4.5: (X3) is not well-designed
}

TEST(ParserTest, WellDesignedPositive) {
  auto r = Parser::Parse(
      "SELECT * WHERE { ?x <p> ?y . OPTIONAL { ?x <q> ?z . } }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_TRUE(IsWellDesigned(*r.value().where));
}

TEST(ParserTest, VariablePredicateRejected) {
  auto r = Parser::Parse("SELECT * WHERE { ?s ?p ?o . }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_message().find("predicate variables"), std::string::npos);
}

TEST(ParserTest, ErrorsAreDiagnosed) {
  EXPECT_FALSE(Parser::Parse("SELECT * WHERE { ?s <p> }").ok());
  EXPECT_FALSE(Parser::Parse("SELECT * WHERE { ?s <p ?o . }").ok());
  EXPECT_FALSE(Parser::Parse("SELECT WHERE { ?s <p> ?o . }").ok());
  EXPECT_FALSE(Parser::Parse("FOO * WHERE { }").ok());
  EXPECT_FALSE(Parser::Parse("SELECT * WHERE { ?s <p> ?o . } garbage").ok());
  EXPECT_FALSE(Parser::Parse("SELECT * WHERE { ?s pre:x ?o . }").ok());
}

TEST(ParserTest, CommentsAreSkipped) {
  auto r = Parser::Parse(
      "# leading comment\nSELECT * WHERE { ?s <p> ?o . # trailing\n }");
  ASSERT_TRUE(r.ok()) << r.error_message();
}

TEST(ParserTest, RoundTripThroughPrinter) {
  const char* queries[] = {
      "SELECT * WHERE { ?s <p> ?o . }",
      "SELECT ?a WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c . } }",
      "SELECT * WHERE { { ?x <p> ?y . } UNION { ?x <q> ?y . } }",
      "SELECT DISTINCT ?x WHERE { ?x <p> <c> . ?x <q> \"lit\" . }",
  };
  for (const char* text : queries) {
    auto first = Parser::Parse(text);
    ASSERT_TRUE(first.ok()) << first.error_message();
    std::string printed = ToString(first.value());
    auto second = Parser::Parse(printed);
    ASSERT_TRUE(second.ok()) << printed << ": " << second.error_message();
    EXPECT_EQ(printed, ToString(second.value()));
  }
}

TEST(ParserTest, ParsePatternEntryPoint) {
  auto r = Parser::ParsePattern("{ ?s <p> ?o . OPTIONAL { ?o <q> ?x . } }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_EQ(r.value()->kind(), PatternKind::kOptional);
}

TEST(ParserTest, EmptyGroup) {
  auto r = Parser::Parse("SELECT * WHERE { }");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_TRUE(r.value().where->IsBgp());
  EXPECT_TRUE(r.value().where->triples().empty());
}

// Group nesting is bounded: hostile depth is a parse error, never
// unbounded recursion. `depth` counts the WHERE group itself.
std::string NestedGroups(size_t depth) {
  std::string q = "SELECT * WHERE ";
  for (size_t i = 0; i < depth; ++i) q += "{ ";
  q += "?s <p> ?o . ";
  for (size_t i = 0; i < depth; ++i) q += "} ";
  return q;
}

std::string NestedOptionals(size_t depth) {
  std::string q = "SELECT * WHERE { ?s <p> ?o . ";
  for (size_t i = 1; i < depth; ++i) q += "OPTIONAL { ?s <p> ?o . ";
  for (size_t i = 0; i < depth; ++i) q += "} ";
  return q;
}

std::string NestedUnions(size_t depth) {
  // Each right UNION arm opens one more group around the next UNION.
  std::string q = "SELECT * WHERE { ";
  for (size_t i = 1; i < depth; ++i) q += "{ ?s <p> ?o . } UNION { ";
  q += "?s <p> ?o . ";
  for (size_t i = 0; i < depth; ++i) q += "} ";
  return q;
}

void ExpectDepthError(const util::Result<Query>& r) {
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_message().find("nested deeper than"), std::string::npos)
      << r.error_message();
}

TEST(ParserTest, NestingAtTheDepthLimitParses) {
  for (const std::string& q : {NestedGroups(Parser::kMaxGroupDepth),
                               NestedOptionals(Parser::kMaxGroupDepth),
                               NestedUnions(Parser::kMaxGroupDepth)}) {
    auto r = Parser::Parse(q);
    EXPECT_TRUE(r.ok()) << r.error_message();
  }
}

TEST(ParserTest, NestingOneBeyondTheDepthLimitIsAParseError) {
  ExpectDepthError(Parser::Parse(NestedGroups(Parser::kMaxGroupDepth + 1)));
  ExpectDepthError(Parser::Parse(NestedOptionals(Parser::kMaxGroupDepth + 1)));
  ExpectDepthError(Parser::Parse(NestedUnions(Parser::kMaxGroupDepth + 1)));
}

TEST(ParserTest, HostileNestingIsAParseErrorNotACrash) {
  ExpectDepthError(Parser::Parse(NestedGroups(200000)));
  ExpectDepthError(Parser::Parse(NestedOptionals(200000)));
  ExpectDepthError(Parser::Parse(NestedUnions(200000)));
  auto pattern = Parser::ParsePattern(
      NestedGroups(200000).substr(std::string("SELECT * WHERE ").size()));
  ASSERT_FALSE(pattern.ok());
}

// The tree size is bounded as well: `count` sibling groups fold into a
// left-deep AND chain, and `count` UNION arms into a left-deep UNION chain,
// of 2 * count - 1 nodes each, at nesting depth 2.
std::string SiblingGroups(size_t count) {
  std::string q = "SELECT * WHERE { ";
  for (size_t i = 0; i < count; ++i) q += "{ ?s <p> ?o . } ";
  return q + "}";
}

std::string SiblingUnions(size_t count) {
  std::string q = "SELECT * WHERE { { ?s <p> ?o . } ";
  for (size_t i = 1; i < count; ++i) q += "UNION { ?s <p> ?o . } ";
  return q + "}";
}

void ExpectSizeError(const util::Result<Query>& r) {
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_message().find("nodes"), std::string::npos)
      << r.error_message();
}

TEST(ParserTest, PatternTreeAtTheSizeLimitParses) {
  const size_t count = (Parser::kMaxPatternNodes + 1) / 2;
  for (const std::string& q : {SiblingGroups(count), SiblingUnions(count)}) {
    auto r = Parser::Parse(q);
    EXPECT_TRUE(r.ok()) << r.error_message();
  }
}

TEST(ParserTest, PatternTreeOneBeyondTheSizeLimitIsAParseError) {
  const size_t count = (Parser::kMaxPatternNodes + 1) / 2 + 1;
  ExpectSizeError(Parser::Parse(SiblingGroups(count)));
  ExpectSizeError(Parser::Parse(SiblingUnions(count)));
}

TEST(ParserTest, HostileSiblingGroupsAreAParseErrorNotACrash) {
  ExpectSizeError(Parser::Parse(SiblingGroups(200000)));
  ExpectSizeError(Parser::Parse(SiblingUnions(200000)));
  auto pattern = Parser::ParsePattern(
      SiblingGroups(200000).substr(std::string("SELECT * WHERE ").size()));
  ASSERT_FALSE(pattern.ok());
}

// `groups` juxtaposed `{A} UNION {B}` groups: 2^groups union-free branches
// from only 4 * groups - 1 pattern nodes.
std::string JuxtaposedUnions(size_t groups) {
  std::string q;
  for (size_t i = 0; i < groups; ++i) {
    const std::string n = std::to_string(i);
    q += "{ ?a" + n + " <directed> ?b" + n + " } UNION { ?a" + n +
         " <actedIn> ?b" + n + " } ";
  }
  return q;
}

void ExpectBranchError(const util::Result<Query>& r) {
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_message().find("union-free branches"), std::string::npos)
      << r.error_message();
}

TEST(ParserTest, UnionExpansionAtTheBranchLimitParses) {
  static_assert(Parser::kMaxUnionBranches == size_t{1} << 12);
  auto r = Parser::Parse("SELECT * WHERE { " + JuxtaposedUnions(12) + "}");
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_EQ(UnionNormalForm(*r.value().where).size(),
            Parser::kMaxUnionBranches);
}

TEST(ParserTest, UnionExpansionOneBeyondTheBranchLimitIsAParseError) {
  // 2^12 + 1: the limit's worth of branches, UNION one more BGP.
  ExpectBranchError(Parser::Parse("SELECT * WHERE { { " +
                                  JuxtaposedUnions(12) +
                                  "} UNION { ?s <p> ?o . } }"));
  // OPTIONAL multiplies like AND: 2^6 * 2^7 branches.
  ExpectBranchError(Parser::Parse("SELECT * WHERE { " + JuxtaposedUnions(6) +
                                  "OPTIONAL { " + JuxtaposedUnions(7) +
                                  "} }"));
  // The pattern entry point applies the same limit.
  auto pattern = Parser::ParsePattern("{ { { " + JuxtaposedUnions(13) +
                                      "} } }");
  ASSERT_FALSE(pattern.ok());
}

TEST(ParserTest, HostileUnionExpansionIsAParseErrorNotAHang) {
  // 2^20 branches used to be enumerated one by one; 2^200 would overflow
  // an unsaturated count back to a small number.
  for (size_t groups : {size_t{20}, size_t{64}, size_t{200}}) {
    ExpectBranchError(
        Parser::Parse("SELECT * WHERE { " + JuxtaposedUnions(groups) + "}"));
  }
}

}  // namespace
}  // namespace sparqlsim::sparql
