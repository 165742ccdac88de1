#include "graph/ntriples.h"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "graph/ntriples_line.h"

namespace sparqlsim::graph {

namespace internal {

namespace {

void SkipWs(std::string_view line, size_t* pos) {
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++(*pos);
  }
}

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

uint32_t HexValue(char c) {
  if (c >= '0' && c <= '9') return static_cast<uint32_t>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<uint32_t>(c - 'a' + 10);
  return static_cast<uint32_t>(c - 'A' + 10);
}

/// Appends the UTF-8 encoding of `cp`. Fails on surrogates and
/// out-of-range code points.
bool AppendUtf8(uint32_t cp, std::string* out) {
  if (cp >= 0xD800 && cp <= 0xDFFF) return false;
  if (cp > 0x10FFFF) return false;
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
  return true;
}

/// Decodes `\uXXXX` / `\UXXXXXXXX` starting at the 'u'/'U' in line[*pos].
bool ParseUcharEscape(std::string_view line, size_t* pos, std::string* out,
                      std::string* error) {
  size_t digits = line[*pos] == 'u' ? 4 : 8;
  if (*pos + digits + 1 > line.size()) {
    *error = "truncated \\u escape";
    return false;
  }
  uint32_t cp = 0;
  for (size_t i = 1; i <= digits; ++i) {
    char c = line[*pos + i];
    if (!IsHexDigit(c)) {
      *error = "bad hex digit in \\u escape";
      return false;
    }
    cp = (cp << 4) | HexValue(c);
  }
  if (!AppendUtf8(cp, out)) {
    *error = "\\u escape is not a valid Unicode code point";
    return false;
  }
  *pos += digits + 1;
  return true;
}

/// Parses `<...>`, unescaping \u/\U, returning the text between brackets.
bool ParseIriRef(std::string_view line, size_t* pos, std::string* out,
                 std::string* error) {
  if (*pos >= line.size() || line[*pos] != '<') {
    *error = "expected '<'";
    return false;
  }
  out->clear();
  size_t i = *pos + 1;
  while (i < line.size()) {
    char c = line[i];
    if (c == '>') {
      *pos = i + 1;
      return true;
    }
    if (c == '\\' && i + 1 < line.size() &&
        (line[i + 1] == 'u' || line[i + 1] == 'U')) {
      ++i;
      if (!ParseUcharEscape(line, &i, out, error)) return false;
      continue;
    }
    out->push_back(c);
    ++i;
  }
  *error = "unterminated IRI (missing '>')";
  return false;
}

}  // namespace

bool IsBlankLabelChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

namespace {

/// Parses `_:label`, storing the full `_:label` spelling as the name.
bool ParseBlankNode(std::string_view line, size_t* pos, std::string* out,
                    std::string* error) {
  if (*pos + 1 >= line.size() || line[*pos] != '_' || line[*pos + 1] != ':') {
    *error = "expected '_:'";
    return false;
  }
  size_t i = *pos + 2;
  size_t start = i;
  while (i < line.size() && IsBlankLabelChar(line[i])) ++i;
  if (i == start) {
    *error = "empty blank node label";
    return false;
  }
  *out = std::string(line.substr(*pos, i - *pos));
  *pos = i;
  return true;
}

/// Parses `"..."` with ECHAR/UCHAR escapes plus an optional `@lang` or
/// `^^<datatype>` suffix (validated, then dropped — see ntriples.h).
bool ParseLiteral(std::string_view line, size_t* pos, std::string* out,
                  std::string* error) {
  if (*pos >= line.size() || line[*pos] != '"') {
    *error = "expected '\"'";
    return false;
  }
  out->clear();
  size_t i = *pos + 1;
  bool closed = false;
  while (i < line.size()) {
    char c = line[i];
    if (c == '"') {
      closed = true;
      ++i;
      break;
    }
    if (c == '\\') {
      if (i + 1 >= line.size()) {
        *error = "dangling backslash in literal";
        return false;
      }
      char esc = line[i + 1];
      switch (esc) {
        case 't': out->push_back('\t'); i += 2; continue;
        case 'b': out->push_back('\b'); i += 2; continue;
        case 'n': out->push_back('\n'); i += 2; continue;
        case 'r': out->push_back('\r'); i += 2; continue;
        case 'f': out->push_back('\f'); i += 2; continue;
        case '"': out->push_back('"'); i += 2; continue;
        case '\'': out->push_back('\''); i += 2; continue;
        case '\\': out->push_back('\\'); i += 2; continue;
        case 'u':
        case 'U': {
          ++i;
          if (!ParseUcharEscape(line, &i, out, error)) return false;
          continue;
        }
        default:
          *error = std::string("unknown escape '\\") + esc + "' in literal";
          return false;
      }
    }
    out->push_back(c);
    ++i;
  }
  if (!closed) {
    *error = "unterminated literal (missing '\"')";
    return false;
  }

  // Optional suffix: language tag or datatype IRI. LANGTAG per the spec:
  // [a-zA-Z]+('-'[a-zA-Z0-9]+)*.
  if (i < line.size() && line[i] == '@') {
    ++i;
    auto is_alpha = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    };
    auto is_alnum = [&](char c) { return is_alpha(c) || (c >= '0' && c <= '9'); };
    size_t start = i;
    while (i < line.size() && is_alpha(line[i])) ++i;
    if (i == start) {
      *error = "malformed language tag";
      return false;
    }
    while (i < line.size() && line[i] == '-') {
      ++i;
      size_t subtag = i;
      while (i < line.size() && is_alnum(line[i])) ++i;
      if (i == subtag) {
        *error = "malformed language tag";
        return false;
      }
    }
  } else if (i + 1 < line.size() && line[i] == '^' && line[i + 1] == '^') {
    i += 2;
    std::string datatype;
    if (!ParseIriRef(line, &i, &datatype, error)) {
      *error = "malformed datatype IRI: " + *error;
      return false;
    }
  } else if (i < line.size() && line[i] == '^') {
    *error = "malformed datatype suffix (expected '^^<iri>')";
    return false;
  }
  *pos = i;
  return true;
}

}  // namespace

LineOutcome ParseLine(std::string_view line, Statement* out,
                      std::string* error) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  size_t pos = 0;
  SkipWs(line, &pos);
  if (pos >= line.size() || line[pos] == '#') return LineOutcome::kEmpty;

  // Subject: IRI or blank node.
  if (line[pos] == '_') {
    if (!ParseBlankNode(line, &pos, &out->subject, error)) {
      return LineOutcome::kError;
    }
    out->subject_kind = TermKind::kBlank;
  } else {
    if (!ParseIriRef(line, &pos, &out->subject, error)) {
      *error = "bad subject: " + *error;
      return LineOutcome::kError;
    }
    out->subject_kind = TermKind::kIri;
  }
  SkipWs(line, &pos);

  // Predicate: IRI only.
  if (!ParseIriRef(line, &pos, &out->predicate, error)) {
    *error = "bad predicate: " + *error;
    return LineOutcome::kError;
  }
  SkipWs(line, &pos);

  // Object: IRI, blank node, or literal.
  if (pos < line.size() && line[pos] == '"') {
    if (!ParseLiteral(line, &pos, &out->object, error)) {
      return LineOutcome::kError;
    }
    out->object_kind = TermKind::kLiteral;
  } else if (pos < line.size() && line[pos] == '_') {
    if (!ParseBlankNode(line, &pos, &out->object, error)) {
      return LineOutcome::kError;
    }
    out->object_kind = TermKind::kBlank;
  } else {
    if (!ParseIriRef(line, &pos, &out->object, error)) {
      *error = "bad object: " + *error;
      return LineOutcome::kError;
    }
    out->object_kind = TermKind::kIri;
  }

  SkipWs(line, &pos);
  if (pos >= line.size() || line[pos] != '.') {
    *error = "expected '.'";
    return LineOutcome::kError;
  }
  ++pos;
  SkipWs(line, &pos);
  if (pos < line.size() && line[pos] != '#') {
    *error = "trailing garbage after '.'";
    return LineOutcome::kError;
  }
  return LineOutcome::kStatement;
}

std::string LineError(size_t line_number, const std::string& what) {
  std::ostringstream msg;
  msg << "n-triples line " << line_number << ": " << what;
  return msg.str();
}

std::string OversizeLineError(size_t max_line_bytes) {
  std::ostringstream msg;
  msg << "line exceeds the " << max_line_bytes << "-byte line limit";
  return msg.str();
}

}  // namespace internal

namespace {

/// Hands one parsed statement to the builder, routing literals through
/// AddTripleLiteral so the object is interned into the literal universe.
util::Status AddStatement(const internal::Statement& statement,
                          GraphDatabaseBuilder* builder) {
  if (statement.object_kind == internal::TermKind::kLiteral) {
    return builder->AddTripleLiteral(statement.subject, statement.predicate,
                                     statement.object);
  }
  return builder->AddTriple(statement.subject, statement.predicate,
                            statement.object);
}

std::string EscapeLiteral(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Only names the parser would read back as the same blank node are
/// written bare; a `_:` name with out-of-alphabet characters falls back
/// to the (escaped) IRI spelling so round-trips never lose it.
bool IsBlankName(std::string_view name) {
  if (name.size() <= 2 || name[0] != '_' || name[1] != ':') return false;
  for (size_t i = 2; i < name.size(); ++i) {
    if (!internal::IsBlankLabelChar(name[i])) return false;
  }
  return true;
}

/// Writes `<name>`, \u-escaping the characters that would corrupt the
/// line grammar on re-parse ('>' ends the IRI early, a raw backslash
/// could splice a `\u` escape, controls break the line structure).
void WriteIriEscaped(std::string_view name, std::ostream& out) {
  out.put('<');
  for (char raw : name) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (c < 0x20 || c == '<' || c == '>' || c == '"' || c == '\\') {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04X", c);
      out << buffer;
    } else {
      out.put(raw);
    }
  }
  out.put('>');
}

}  // namespace

util::Status NTriples::Load(std::istream& in, GraphDatabaseBuilder* builder,
                            const NTriplesOptions& options,
                            NTriplesStats* stats) {
  NTriplesStats local;
  std::string line;
  internal::Statement statement;
  std::string error;
  util::Status result = util::Status::Ok();

  while (std::getline(in, line)) {
    ++local.lines;
    if (line.size() > local.peak_chunk_bytes) {
      local.peak_chunk_bytes = line.size();
    }
    internal::LineOutcome outcome;
    if (options.max_line_bytes > 0 && line.size() > options.max_line_bytes) {
      outcome = internal::LineOutcome::kError;
      error = internal::OversizeLineError(options.max_line_bytes);
    } else {
      outcome = internal::ParseLine(line, &statement, &error);
    }
    if (outcome == internal::LineOutcome::kEmpty) continue;

    if (outcome == internal::LineOutcome::kStatement) {
      util::Status added = AddStatement(statement, builder);
      if (added.ok()) {
        ++local.triples;
        continue;
      }
      error = added.message();
    }

    std::string diagnostic = internal::LineError(local.lines, error);
    if (!options.permissive) {
      result = util::Status::Error(diagnostic);
      break;
    }
    ++local.malformed_lines;
    if (local.first_error.empty()) local.first_error = diagnostic;
  }

  if (stats != nullptr) *stats = local;
  return result;
}

util::Status NTriples::LoadFile(const std::string& path,
                                GraphDatabaseBuilder* builder,
                                const NTriplesOptions& options,
                                NTriplesStats* stats) {
  std::ifstream in(path);
  if (!in) return util::Status::Error("cannot open " + path);
  return Load(in, builder, options, stats);
}

util::Status NTriples::LoadFileParallel(const std::string& path,
                                        GraphDatabaseBuilder* builder,
                                        const NTriplesOptions& options,
                                        NTriplesStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::Error("cannot open " + path);
  return LoadParallel(in, builder, options, stats);
}

void NTriples::Write(const GraphDatabase& db, std::ostream& out) {
  auto write_node = [&](uint32_t node) {
    const std::string_view name = db.nodes().Name(node);
    if (IsBlankName(name)) {
      out << name;
    } else {
      WriteIriEscaped(name, out);
    }
  };
  db.ForEachTriple([&](const Triple& t) {
    write_node(t.subject);
    out << ' ';
    WriteIriEscaped(db.predicates().Name(t.predicate), out);
    out << ' ';
    if (db.IsLiteral(t.object)) {
      out << '"' << EscapeLiteral(db.nodes().Name(t.object)) << '"';
    } else {
      write_node(t.object);
    }
    out << " .\n";
  });
}

}  // namespace sparqlsim::graph
