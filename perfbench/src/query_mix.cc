#include "query_mix.h"

#include <array>
#include <map>

#include "sparql/normalize.h"
#include "sparql/parser.h"

namespace perfbench {

namespace sparql = sparqlsim::sparql;
using sparqlsim::util::Result;
using sparqlsim::util::Status;

namespace {

// Every LUBM(20) university has at least 12 departments.
constexpr size_t kDepartments = 12;
constexpr int kRetriesPerShape = 64;
constexpr int kShapeDraws = 16;
constexpr std::array<const char*, 4> kShapes = {"star", "chain", "cycle",
                                                "anchored"};

// Arms are "<predicate> ?var" suffixes for one subject variable.
constexpr std::array<const char*, 8> kProfessorArms = {
    "<teacherOf> ?course",        "<emailAddress> ?email",
    "<name> ?name",               "<telephone> ?phone",
    "<researchInterest> ?topic",  "<undergraduateDegreeFrom> ?ugu",
    "<mastersDegreeFrom> ?msu",   "<worksFor> ?dept"};
constexpr std::array<const char*, 5> kStudentArms = {
    "<advisor> ?adv", "<takesCourse> ?course", "<emailAddress> ?email",
    "<name> ?name", "<teachingAssistantOf> ?ta"};
constexpr std::array<const char*, 4> kProfessorClasses = {
    "FullProfessor", "AssociateProfessor", "AssistantProfessor", "Lecturer"};
constexpr std::array<const char*, 3> kDegrees = {
    "doctoralDegreeFrom", "mastersDegreeFrom", "undergraduateDegreeFrom"};
// Optional attribute arms; "" = none.
constexpr std::array<const char*, 4> kOptionalAttrs = {
    "", "<emailAddress>", "<name>", "<telephone>"};

std::string OptionalArm(const std::string& var, const char* attr) {
  if (attr[0] == '\0') return "";
  return "OPTIONAL { ?" + var + " " + attr + " ?opt . } ";
}

}  // namespace

std::string QueryMix::University() {
  return "<U" + std::to_string(Pick(kUniversities)) + ">";
}

std::string QueryMix::Department() {
  return "<U" + std::to_string(Pick(kUniversities)) + "/D" +
         std::to_string(Pick(kDepartments)) + ">";
}

std::string QueryMix::Star() {
  std::string body;
  if (rng_.NextBool(0.5)) {
    body += "?x <" + std::string(kDegrees[Pick(kDegrees.size())]) + "> " +
            University() + " . ";
    const size_t arms = 2 + Pick(2);
    const size_t first = Pick(kProfessorArms.size());
    const size_t stride = 1 + Pick(kProfessorArms.size() - 1);
    for (size_t a = 0; a < arms; ++a) {
      body += "?x " +
              std::string(kProfessorArms[(first + a * stride) %
                                         kProfessorArms.size()]) +
              " . ";
    }
    const size_t cls = Pick(kProfessorClasses.size() + 1);
    if (cls < kProfessorClasses.size()) {
      body += "?x a <" + std::string(kProfessorClasses[cls]) + "> . ";
    }
  } else {
    body += rng_.NextBool(0.5)
                ? "?x <undergraduateDegreeFrom> " + University() + " . "
                : "?x <memberOf> " + Department() + " . ";
    const size_t arms = 2 + Pick(2);
    const size_t first = Pick(kStudentArms.size());
    for (size_t a = 0; a < arms; ++a) {
      body += "?x " +
              std::string(kStudentArms[(first + a) % kStudentArms.size()]) +
              " . ";
    }
    if (rng_.NextBool(0.5)) body += "?x a <GraduateStudent> . ";
  }
  return body + OptionalArm("x", kOptionalAttrs[Pick(kOptionalAttrs.size())]);
}

std::string QueryMix::Chain() {
  std::string body;
  switch (Pick(5)) {
    case 0:
      body = "?s <advisor> ?p . ?p <worksFor> " + Department() + " . ";
      break;
    case 1:
      body = "?s <advisor> ?p . ?p <worksFor> ?d . ?d <subOrganizationOf> " +
             University() + " . ";
      break;
    case 2:
      body = "?s <takesCourse> ?c . ?p <teacherOf> ?c . ?p <worksFor> " +
             Department() + " . ";
      break;
    case 3:
      body = "?pub <publicationAuthor> ?p . ?p <worksFor> ?d . "
             "?d <subOrganizationOf> " +
             University() + " . ";
      break;
    default:
      body = "?s <teachingAssistantOf> ?c . ?p <teacherOf> ?c . "
             "?p <headOf> " +
             Department() + " . ";
      break;
  }
  body += ProfessorClass();
  body += OptionalArm("p", kOptionalAttrs[Pick(kOptionalAttrs.size())]);
  return body;
}

std::string QueryMix::ProfessorClass() {
  const size_t cls = Pick(kProfessorClasses.size() + 1);
  if (cls == kProfessorClasses.size()) return "";
  return "?p a <" + std::string(kProfessorClasses[cls]) + "> . ";
}

std::string QueryMix::Cycle() {
  // The anchor closes onto the professor's department: one university
  // (through subOrganizationOf) or one department directly.
  const bool by_university = rng_.NextBool(0.5);
  const std::string dept = by_university ? "?d" : Department();
  std::string anchor =
      by_university ? "?d <subOrganizationOf> " + University() + " . " : "";
  std::string body;
  switch (Pick(3)) {
    case 0:  // L0 triangle
      body = "?s <advisor> ?p . ?s <takesCourse> ?c . ?p <teacherOf> ?c . "
             "?p <worksFor> " +
             dept + " . ";
      break;
    case 1:  // L2 triangle
      body = "?p <worksFor> " + dept + " . ?s <memberOf> " + dept +
             " . ?s <advisor> ?p . ";
      break;
    default:  // co-authorship with one's advisor
      body = "?pub <publicationAuthor> ?s . ?pub <publicationAuthor> ?p . "
             "?s <advisor> ?p . ?p <worksFor> " +
             dept + " . ";
      break;
  }
  body += anchor;
  if (rng_.NextBool(0.5)) body += "?s a <GraduateStudent> . ";
  body += ProfessorClass();
  body += OptionalArm("p", kOptionalAttrs[Pick(kOptionalAttrs.size())]);
  return body;
}

std::string QueryMix::Anchored() {
  const char* attr = kOptionalAttrs[Pick(kOptionalAttrs.size())];
  switch (Pick(5)) {
    case 0:
      return "?x <worksFor> " + Department() + " . ?x a <" +
             kProfessorClasses[Pick(kProfessorClasses.size())] + "> . " +
             OptionalArm("x", attr);
    case 1:
      return "?x <headOf> ?d . ?d <subOrganizationOf> " + University() +
             " . " + OptionalArm("x", attr);
    case 2:
      return "?s <advisor> ?p . ?p <headOf> " + Department() + " . " +
             OptionalArm("s", attr);
    case 3:
      return "?s <memberOf> " + Department() +
             " . ?s a <UndergraduateStudent> . ?s <takesCourse> ?c . " +
             OptionalArm("s", attr);
    default:
      return "?c a <GraduateCourse> . ?p <teacherOf> ?c . ?p <worksFor> " +
             Department() + " . " + OptionalArm("p", attr);
  }
}

Result<MixQuery> QueryMix::Next() {
  for (int draw = 0; draw < kShapeDraws; ++draw) {
    const double u = rng_.NextDouble();
    const int shape_index = u < 0.30 ? 0 : u < 0.55 ? 1 : u < 0.70 ? 2 : 3;
    const char* shape = kShapes[shape_index];
    for (int attempt = 0; attempt < kRetriesPerShape; ++attempt) {
      std::string body = shape_index == 0   ? Star()
                         : shape_index == 1 ? Chain()
                         : shape_index == 2 ? Cycle()
                                            : Anchored();
      std::string text = "SELECT * WHERE { " + body + "}";
      auto parsed = sparql::Parser::Parse(text);
      if (!parsed.ok()) {
        return Status::Error("generated query does not parse: " + text +
                             ": " + parsed.error_message());
      }
      std::string key = sparql::CanonicalPatternKey(*parsed.value().where);
      if (!seen_.insert(key).second) continue;
      return MixQuery{shape, std::move(text), std::move(parsed).value(),
                      std::move(key)};
    }
  }
  return Status::Error("query mix exhausted after " +
                       std::to_string(seen_.size()) + " distinct queries");
}

Result<std::vector<MixQuery>> QueryMix::Take(size_t count) {
  std::vector<MixQuery> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto next = Next();
    if (!next.ok()) return next.status();
    out.push_back(std::move(next).value());
  }
  return out;
}

Result<std::vector<MixQuery>> QueryMix::TakePerShape(size_t per_shape) {
  std::vector<MixQuery> out;
  std::map<std::string, size_t> taken;
  while (out.size() < per_shape * kShapes.size()) {
    auto next = Next();
    if (!next.ok()) return next.status();
    if (taken[next.value().shape]++ < per_shape) {
      out.push_back(std::move(next).value());
    }
  }
  return out;
}

Status CheckMix(const std::vector<MixQuery>& mix) {
  std::unordered_set<std::string> keys;
  for (const MixQuery& q : mix) {
    auto parsed = sparql::Parser::Parse(q.text);
    if (!parsed.ok()) {
      return Status::Error("mix query does not parse: " + q.text);
    }
    if (sparql::CanonicalPatternKey(*parsed.value().where) != q.key) {
      return Status::Error("mix query key differs on re-parse: " + q.text);
    }
    if (!keys.insert(q.key).second) {
      return Status::Error("mix query repeats: " + q.text);
    }
  }
  return Status::Ok();
}

}  // namespace perfbench
