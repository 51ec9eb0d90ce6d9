// The output oracle: generated sources, the query pool, and every pool
// query's answer as computed by the eager reference evaluator
// (mediator::EvaluateReference) over the same generated sources. Session
// scripts (script.h) check every answer the mediator returns against it.
#ifndef NAVBENCH_ORACLE_H_
#define NAVBENCH_ORACLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/navigable.h"
#include "core/status.h"
#include "mediator/plan.h"
#include "rdb/database.h"
#include "xml/tree.h"

namespace navbench {

struct SourceSizes {
  int homes = 0;
  int schools = 0;
  int xml_zips = 1;
  int rows = 0;  ///< rows of realty.homes and of edu.schools
  int rel_zips = 1;
};

/// One workload's generated sources. XML sources are registered as
/// homesSrc/schoolsSrc, relational ones as realty/edu.
struct Sources {
  std::unique_ptr<mix::xml::Document> homes;
  std::unique_ptr<mix::xml::Document> schools;
  std::unique_ptr<mix::rdb::Database> realty;
  std::unique_ptr<mix::rdb::Database> edu;
  /// The relational sources' whole-database views as documents.
  std::unique_ptr<mix::xml::Document> realty_doc;
  std::unique_ptr<mix::xml::Document> edu_doc;

  /// Source name -> document, for the reference evaluator and for the
  /// depth-1 replay (operator tree over documents).
  std::map<std::string, const mix::xml::Document*> Documents() const;
};

Sources MakeSources(const SourceSizes& sizes, uint64_t seed);

/// A pool query with its reference answer.
struct PoolQuery {
  std::string text;
  /// CompileXmas output, without the optimizer (the reference's input).
  std::shared_ptr<const mix::mediator::PlanNode> raw_plan;
  std::unique_ptr<mix::xml::Document> scratch;  ///< owns `answer`
  const mix::xml::Node* answer = nullptr;
  std::string answer_term;  ///< xml::ToTerm(answer)
};

/// Compiles `text` and evaluates it eagerly over `sources`.
mix::Result<PoolQuery> MakePoolQuery(const std::string& text,
                                     const Sources& sources);

/// A workload's sources and query pool, with every reference answer.
struct Fixture {
  Sources sources;
  std::vector<PoolQuery> pool;
};

/// Renders a FetchSubtree export (pre-order entries with depths) in the
/// paper's term notation, exactly as xml::ToTerm renders a tree. Returns ""
/// for an empty or malformed (depth-inconsistent, truncated) export.
std::string EntriesToTerm(const std::vector<mix::SubtreeEntry>& entries);

/// True when a FetchSubtree export is exactly `ref`'s subtree: the same
/// labels at the same relative depths in pre-order, and nothing truncated.
/// That is the term comparison done without rendering either side (equal
/// exports render to byte-identical terms), so checking an answer costs a
/// comparison per node and no allocation.
bool ExportMatches(const std::vector<mix::SubtreeEntry>& entries,
                   const mix::xml::Node* ref);

}  // namespace navbench

#endif  // NAVBENCH_ORACLE_H_
