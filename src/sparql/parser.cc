#include "sparql/parser.h"

#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>

namespace sparqlsim::sparql {

namespace {

/// The IRI the keyword `a` abbreviates. The synthetic datasets in this
/// repository intern their type predicate under exactly this name.
constexpr const char* kRdfType = "rdf:type";

struct Token {
  enum class Type {
    kEof,
    kKeyword,   // SELECT, DISTINCT, WHERE, OPTIONAL, UNION, PREFIX, a
    kVariable,  // ?x
    kIri,       // <...> (already stripped)
    kPname,     // prefix:local (unexpanded)
    kLiteral,   // "..." (already unescaped)
    kPunct,     // { } . * :
  };
  Type type;
  std::string text;
  size_t offset;
};

bool IsKeyword(const std::string& upper) {
  return upper == "SELECT" || upper == "DISTINCT" || upper == "WHERE" ||
         upper == "OPTIONAL" || upper == "UNION" || upper == "PREFIX";
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  util::Status Tokenize() {
    size_t pos = 0;
    while (pos < text_.size()) {
      char c = text_[pos];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
        continue;
      }
      if (c == '#') {  // comment to end of line
        while (pos < text_.size() && text_[pos] != '\n') ++pos;
        continue;
      }
      if (c == '{' || c == '}' || c == '.' || c == '*') {
        tokens_.push_back({Token::Type::kPunct, std::string(1, c), pos});
        ++pos;
        continue;
      }
      if (c == '?' || c == '$') {
        size_t start = ++pos;
        while (pos < text_.size() && (std::isalnum(static_cast<unsigned char>(
                                          text_[pos])) ||
                                      text_[pos] == '_')) {
          ++pos;
        }
        if (pos == start) return Error(pos, "empty variable name");
        tokens_.push_back({Token::Type::kVariable,
                           std::string(text_.substr(start, pos - start)),
                           start});
        continue;
      }
      if (c == '<') {
        size_t end = text_.find('>', pos + 1);
        if (end == std::string_view::npos) return Error(pos, "unclosed IRI");
        tokens_.push_back({Token::Type::kIri,
                           std::string(text_.substr(pos + 1, end - pos - 1)),
                           pos});
        pos = end + 1;
        continue;
      }
      if (c == '"') {
        std::string value;
        size_t i = pos + 1;
        bool closed = false;
        while (i < text_.size()) {
          if (text_[i] == '\\' && i + 1 < text_.size()) {
            value.push_back(text_[i + 1]);
            i += 2;
            continue;
          }
          if (text_[i] == '"') {
            closed = true;
            ++i;
            break;
          }
          value.push_back(text_[i]);
          ++i;
        }
        if (!closed) return Error(pos, "unclosed literal");
        // Skip datatype / language suffix.
        if (i < text_.size() && text_[i] == '@') {
          while (i < text_.size() &&
                 (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                  text_[i] == '@' || text_[i] == '-')) {
            ++i;
          }
        } else if (i + 1 < text_.size() && text_[i] == '^' &&
                   text_[i + 1] == '^') {
          i += 2;
          if (i < text_.size() && text_[i] == '<') {
            size_t end = text_.find('>', i);
            if (end == std::string_view::npos) {
              return Error(i, "unclosed datatype IRI");
            }
            i = end + 1;
          }
        }
        tokens_.push_back({Token::Type::kLiteral, value, pos});
        pos = i;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
          c == '+') {
        size_t start = pos;
        ++pos;
        while (pos < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos])) ||
                text_[pos] == '.')) {
          ++pos;
        }
        // A trailing '.' is the triple terminator, not part of the number.
        if (text_[pos - 1] == '.') --pos;
        tokens_.push_back({Token::Type::kLiteral,
                           std::string(text_.substr(start, pos - start)),
                           start});
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos;
        while (pos < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos])) ||
                text_[pos] == '_' || text_[pos] == '-')) {
          ++pos;
        }
        std::string word(text_.substr(start, pos - start));
        // Prefixed name?
        if (pos < text_.size() && text_[pos] == ':') {
          size_t local_start = ++pos;
          while (pos < text_.size() &&
                 (std::isalnum(static_cast<unsigned char>(text_[pos])) ||
                  text_[pos] == '_' || text_[pos] == '-')) {
            ++pos;
          }
          tokens_.push_back(
              {Token::Type::kPname,
               word + ":" + std::string(text_.substr(local_start,
                                                     pos - local_start)),
               start});
          continue;
        }
        std::string upper = word;
        for (char& ch : upper) ch = static_cast<char>(std::toupper(
                                   static_cast<unsigned char>(ch)));
        if (IsKeyword(upper)) {
          tokens_.push_back({Token::Type::kKeyword, upper, start});
        } else if (word == "a") {
          tokens_.push_back({Token::Type::kKeyword, "a", start});
        } else {
          return Error(start, "unexpected identifier '" + word + "'");
        }
        continue;
      }
      return Error(pos, std::string("unexpected character '") + c + "'");
    }
    tokens_.push_back({Token::Type::kEof, "", text_.size()});
    return util::Status::Ok();
  }

  const std::vector<Token>& tokens() const { return tokens_; }

 private:
  util::Status Error(size_t pos, const std::string& what) const {
    std::ostringstream msg;
    msg << "parse error at offset " << pos << ": " << what;
    return util::Status::Error(msg.str());
  }

  std::string_view text_;
  std::vector<Token> tokens_;
};

class ParserImpl {
 public:
  explicit ParserImpl(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  util::Result<Query> ParseQuery() {
    if (auto s = ParsePrologue(); !s.ok()) return s;

    Query query;
    if (!ConsumeKeyword("SELECT")) return Fail("expected SELECT");
    if (PeekKeyword("DISTINCT")) {
      Advance();
      query.distinct = true;
    }
    if (PeekPunct("*")) {
      Advance();
    } else {
      while (Peek().type == Token::Type::kVariable) {
        query.projection.push_back(Peek().text);
        Advance();
      }
      if (query.projection.empty()) {
        return Fail("expected '*' or projection variables");
      }
    }
    if (PeekKeyword("WHERE")) Advance();

    size_t branches = 0;
    auto where = ParseGroup(&branches);
    if (!where.ok()) return where.status();
    query.where = std::move(where).value();

    if (Peek().type != Token::Type::kEof) {
      return Fail("trailing input after query");
    }
    return query;
  }

  util::Result<std::unique_ptr<Pattern>> ParseLonePattern() {
    if (auto s = ParsePrologue(); !s.ok()) return s;
    size_t branches = 0;
    auto g = ParseGroup(&branches);
    if (!g.ok()) return g.status();
    if (Peek().type != Token::Type::kEof) {
      return Fail("trailing input after pattern");
    }
    return g;
  }

 private:
  util::Status ParsePrologue() {
    while (PeekKeyword("PREFIX")) {
      Advance();
      // PNAME token carries "prefix:" (empty local part) or "prefix:local".
      if (Peek().type != Token::Type::kPname) {
        return util::Status::Error("expected prefix name after PREFIX");
      }
      std::string pname = Peek().text;
      size_t colon = pname.find(':');
      std::string prefix = pname.substr(0, colon);
      Advance();
      if (Peek().type != Token::Type::kIri) {
        return util::Status::Error("expected <iri> after PREFIX " + prefix);
      }
      prefixes_[prefix] = Peek().text;
      Advance();
    }
    return util::Status::Ok();
  }

  /// Every group — nested, OPTIONAL or UNION arm — recurses through here,
  /// so this is the one place the nesting depth is bounded. `*branches`
  /// receives the group's union-normal-form branch count (saturating).
  util::Result<std::unique_ptr<Pattern>> ParseGroup(size_t* branches) {
    if (depth_ == Parser::kMaxGroupDepth) {
      return Fail("groups nested deeper than " +
                  std::to_string(Parser::kMaxGroupDepth));
    }
    ++depth_;
    auto group = ParseGroupBody(branches);
    --depth_;
    return group;
  }

  util::Result<std::unique_ptr<Pattern>> ParseGroupBody(size_t* branches) {
    if (!PeekPunct("{")) return Fail("expected '{'");
    Advance();

    std::unique_ptr<Pattern> acc;
    std::vector<TriplePattern> pending;
    // A BGP is one branch, and AND/OPTIONAL multiply (UnionNormalForm).
    *branches = 1;

    auto flush = [&]() {
      if (pending.empty()) return;
      auto bgp = Pattern::Bgp(std::move(pending));
      pending.clear();
      if (!acc) {
        acc = std::move(bgp);
        ++nodes_;
      } else if (acc->IsBgp()) {
        // BGP AND BGP is the merged BGP (standard algebra simplification).
        std::vector<TriplePattern> merged = acc->triples();
        for (const TriplePattern& t : bgp->triples()) merged.push_back(t);
        acc = Pattern::Bgp(std::move(merged));
      } else {
        acc = Pattern::Join(std::move(acc), std::move(bgp));
        nodes_ += 2;
      }
    };

    while (true) {
      // Checked once per element: each adds at most three nodes.
      if (nodes_ > Parser::kMaxPatternNodes) return TooManyNodes();
      if (PeekPunct("}")) {
        Advance();
        break;
      }
      if (PeekKeyword("OPTIONAL")) {
        Advance();
        flush();
        size_t rhs_branches = 0;
        auto rhs = ParseGroup(&rhs_branches);
        if (!rhs.ok()) return rhs.status();
        *branches = SaturatingMul(*branches, rhs_branches);
        if (!acc) {
          acc = Pattern::Bgp({});
          ++nodes_;
        }
        acc = Pattern::Optional(std::move(acc), std::move(rhs).value());
        ++nodes_;
        continue;
      }
      if (PeekPunct("{")) {
        flush();
        size_t sub_branches = 0;
        auto sub = ParseGroupOrUnion(&sub_branches);
        if (!sub.ok()) return sub.status();
        *branches = SaturatingMul(*branches, sub_branches);
        if (acc) ++nodes_;  // the AND node
        acc = acc ? Pattern::Join(std::move(acc), std::move(sub).value())
                  : std::move(sub).value();
        continue;
      }
      if (Peek().type == Token::Type::kEof) return Fail("unclosed group");

      auto triple = ParseTriple();
      if (!triple.ok()) return triple.status();
      pending.push_back(std::move(triple).value());
      if (PeekPunct(".")) Advance();
    }
    flush();
    if (!acc) {
      acc = Pattern::Bgp({});
      ++nodes_;
    }
    if (nodes_ > Parser::kMaxPatternNodes) return TooManyNodes();
    if (*branches > Parser::kMaxUnionBranches) {
      return Fail("pattern expands to more than " +
                  std::to_string(Parser::kMaxUnionBranches) +
                  " union-free branches");
    }
    return acc;
  }

  /// `{..} UNION {..} ...`; the arms' branch counts add up.
  util::Result<std::unique_ptr<Pattern>> ParseGroupOrUnion(size_t* branches) {
    auto left = ParseGroup(branches);
    if (!left.ok()) return left;
    std::unique_ptr<Pattern> acc = std::move(left).value();
    while (PeekKeyword("UNION")) {
      Advance();
      size_t right_branches = 0;
      auto right = ParseGroup(&right_branches);
      if (!right.ok()) return right;
      acc = Pattern::Union(std::move(acc), std::move(right).value());
      ++nodes_;
      *branches = SaturatingAdd(*branches, right_branches);
    }
    return acc;
  }

  static size_t SaturatingAdd(size_t a, size_t b) {
    size_t sum;
    return __builtin_add_overflow(a, b, &sum) ? SIZE_MAX : sum;
  }
  static size_t SaturatingMul(size_t a, size_t b) {
    size_t product;
    return __builtin_mul_overflow(a, b, &product) ? SIZE_MAX : product;
  }

  util::Status TooManyNodes() const {
    return Fail("pattern has more than " +
                std::to_string(Parser::kMaxPatternNodes) + " nodes");
  }

  util::Result<TriplePattern> ParseTriple() {
    auto s = ParseTerm(/*predicate_position=*/false);
    if (!s.ok()) return s.status();
    auto p = ParseTerm(/*predicate_position=*/true);
    if (!p.ok()) return p.status();
    auto o = ParseTerm(/*predicate_position=*/false);
    if (!o.ok()) return o.status();
    return TriplePattern{std::move(s).value(), std::move(p).value(),
                         std::move(o).value()};
  }

  util::Result<Term> ParseTerm(bool predicate_position) {
    const Token& tok = Peek();
    switch (tok.type) {
      case Token::Type::kVariable:
        if (predicate_position) {
          return Fail(
              "predicate variables are not supported: the paper's graph "
              "model fixes the edge-label alphabet (Sect. 2)");
        }
        Advance();
        return Term::Var(tok.text);
      case Token::Type::kIri:
        Advance();
        return Term::Iri(tok.text);
      case Token::Type::kPname: {
        size_t colon = tok.text.find(':');
        std::string prefix = tok.text.substr(0, colon);
        auto it = prefixes_.find(prefix);
        if (it == prefixes_.end()) {
          return Fail("undeclared prefix '" + prefix + ":'");
        }
        Advance();
        return Term::Iri(it->second + tok.text.substr(colon + 1));
      }
      case Token::Type::kLiteral:
        if (predicate_position) return Fail("literal in predicate position");
        Advance();
        return Term::Literal(tok.text);
      case Token::Type::kKeyword:
        if (tok.text == "a" && predicate_position) {
          Advance();
          return Term::Iri(kRdfType);
        }
        return Fail("unexpected keyword '" + tok.text + "' in triple");
      default:
        return Fail("expected term");
    }
  }

  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  bool PeekKeyword(const std::string& kw) const {
    return Peek().type == Token::Type::kKeyword && Peek().text == kw;
  }
  bool ConsumeKeyword(const std::string& kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }
  bool PeekPunct(const std::string& p) const {
    return Peek().type == Token::Type::kPunct && Peek().text == p;
  }

  util::Status Fail(const std::string& what) const {
    std::ostringstream msg;
    msg << "parse error at offset " << Peek().offset << ": " << what;
    return util::Status::Error(msg.str());
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // groups currently open in ParseGroup
  size_t nodes_ = 0;  // pattern-tree nodes built so far
  std::map<std::string, std::string> prefixes_;
};

}  // namespace

util::Result<Query> Parser::Parse(std::string_view text) {
  Lexer lexer(text);
  if (auto s = lexer.Tokenize(); !s.ok()) return s;
  ParserImpl parser(lexer.tokens());
  return parser.ParseQuery();
}

util::Result<std::unique_ptr<Pattern>> Parser::ParsePattern(
    std::string_view text) {
  Lexer lexer(text);
  if (auto s = lexer.Tokenize(); !s.ok()) return s;
  ParserImpl parser(lexer.tokens());
  return parser.ParseLonePattern();
}

}  // namespace sparqlsim::sparql
