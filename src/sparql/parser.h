#pragma once

#include <cstddef>
#include <string_view>

#include "sparql/ast.h"
#include "util/status.h"

namespace sparqlsim::sparql {

/// Recursive-descent parser for the SPARQL fragment studied by the paper.
///
/// Grammar (case-insensitive keywords):
///
///   Query    := Prefix* 'SELECT' 'DISTINCT'? ('*' | Var+) 'WHERE'? Group
///   Prefix   := 'PREFIX' PNAME ':' IRIREF
///   Group    := '{' ( Triple ('.' )? | 'OPTIONAL' Group
///                   | Group ('UNION' Group)* )* '}'
///   Triple   := Term Term Term
///   Term     := '?'Name | '<'iri'>' | pname':'local | '"'text'"' | number
///               | 'a'  (expands to the predicate IRI rdf:type)
///
/// Group elements fold left: triples accumulate into BGPs, sub-groups join
/// (AND), OPTIONAL groups attach as left-outer extensions — the standard
/// SPARQL algebra translation. Predicate positions must be IRIs (the
/// paper's graph model has a fixed edge-label alphabet, Sect. 2), so a
/// variable predicate is a parse error.
///
/// Groups nest at most kMaxGroupDepth deep (the WHERE group is depth 1;
/// every nested, OPTIONAL and UNION group adds one), and a pattern tree
/// holds at most kMaxPatternNodes nodes (BGP, AND, OPTIONAL and UNION).
/// Larger input is a parse error: sibling groups fold into a left-deep
/// chain as deep as they are many, and every later pass over the tree
/// (union normal form, printing, destruction) recurses along it, so a
/// hostile query could otherwise exhaust the stack.
///
/// A pattern also expands to at most kMaxUnionBranches union-free branches
/// (the size of its union normal form: a BGP is one branch, UNION adds its
/// arms' counts, AND and OPTIONAL multiply them), checked as each group
/// closes. Twenty juxtaposed `{A} UNION {B}` groups are only 79 nodes but
/// 2^20 branches, which the solver would enumerate one by one.
class Parser {
 public:
  static constexpr size_t kMaxGroupDepth = 256;
  static constexpr size_t kMaxPatternNodes = 4096;
  static constexpr size_t kMaxUnionBranches = 4096;

  /// Parses a full SELECT query.
  static util::Result<Query> Parse(std::string_view text);

  /// Parses just a group graph pattern, e.g. "{ ?s <p> ?o . }".
  static util::Result<std::unique_ptr<Pattern>> ParsePattern(
      std::string_view text);
};

}  // namespace sparqlsim::sparql
