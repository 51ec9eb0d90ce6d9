#include "oracle.h"

#include "inputs.h"
#include "mediator/reference_eval.h"
#include "mediator/translate.h"

namespace navbench {

std::map<std::string, const mix::xml::Document*> Sources::Documents() const {
  std::map<std::string, const mix::xml::Document*> docs;
  if (homes != nullptr) docs["homesSrc"] = homes.get();
  if (schools != nullptr) docs["schoolsSrc"] = schools.get();
  if (realty_doc != nullptr) docs["realty"] = realty_doc.get();
  if (edu_doc != nullptr) docs["edu"] = edu_doc.get();
  return docs;
}

Sources MakeSources(const SourceSizes& sizes, uint64_t seed) {
  Sources s;
  if (sizes.homes > 0) {
    s.homes = MakeHomes(sizes.homes, sizes.xml_zips, SubSeed(seed, 1));
  }
  if (sizes.schools > 0) {
    s.schools = MakeSchools(sizes.schools, sizes.xml_zips, SubSeed(seed, 1));
  }
  if (sizes.rows > 0) {
    s.realty = MakeRealty(sizes.rows, sizes.rel_zips, SubSeed(seed, 2));
    s.edu = MakeEdu(sizes.rows, sizes.rel_zips, SubSeed(seed, 2));
    s.realty_doc = DatabaseDocument(*s.realty);
    s.edu_doc = DatabaseDocument(*s.edu);
  }
  return s;
}

mix::Result<PoolQuery> MakePoolQuery(const std::string& text,
                                     const Sources& sources) {
  auto plan = mix::mediator::CompileXmas(text);
  if (!plan.ok()) return plan.status();
  PoolQuery q;
  q.text = text;
  q.raw_plan = std::shared_ptr<const mix::mediator::PlanNode>(
      std::move(plan).ValueOrDie());
  mix::mediator::ReferenceSources refs;
  for (const auto& [name, doc] : sources.Documents()) refs[name] = doc->root();
  q.scratch = std::make_unique<mix::xml::Document>();
  auto answer =
      mix::mediator::EvaluateReference(*q.raw_plan, refs, q.scratch.get());
  if (!answer.ok()) return answer.status();
  q.answer = answer.value();
  q.answer_term = mix::xml::ToTerm(q.answer);
  return q;
}

namespace {

// Renders entries[*pos] and its descendants; advances *pos past them.
bool RenderEntry(const std::vector<mix::SubtreeEntry>& entries, size_t* pos,
                 std::string* out) {
  const mix::SubtreeEntry& e = entries[*pos];
  if (e.truncated) return false;
  *out += e.label.name();
  ++*pos;
  bool first = true;
  while (*pos < entries.size() && entries[*pos].depth > e.depth) {
    if (entries[*pos].depth != e.depth + 1) return false;
    *out += first ? '[' : ',';
    first = false;
    if (!RenderEntry(entries, pos, out)) return false;
  }
  if (!first) *out += ']';
  return true;
}

// Matches entries[*pos] and its descendants against `ref`, at `depth`;
// advances *pos past them.
bool MatchEntry(const std::vector<mix::SubtreeEntry>& entries, size_t* pos,
                const mix::xml::Node* ref, int32_t depth) {
  if (*pos >= entries.size()) return false;
  const mix::SubtreeEntry& e = entries[*pos];
  if (e.truncated || e.depth != depth || e.label != ref->label_atom) {
    return false;
  }
  ++*pos;
  for (const mix::xml::Node* c : ref->children) {
    if (!MatchEntry(entries, pos, c, depth + 1)) return false;
  }
  return true;
}

}  // namespace

bool ExportMatches(const std::vector<mix::SubtreeEntry>& entries,
                   const mix::xml::Node* ref) {
  if (entries.empty()) return false;
  size_t pos = 0;
  return MatchEntry(entries, &pos, ref, entries[0].depth) &&
         pos == entries.size();
}

std::string EntriesToTerm(const std::vector<mix::SubtreeEntry>& entries) {
  if (entries.empty()) return "";
  std::string out;
  size_t pos = 0;
  if (!RenderEntry(entries, &pos, &out) || pos != entries.size()) return "";
  return out;
}

}  // namespace navbench
