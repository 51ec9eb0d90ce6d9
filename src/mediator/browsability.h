// Plan analysis: navigational complexity (paper Section 2, Def. 2) and the
// per-node facts the optimizer passes read (DESIGN.md §4, §6).
//
// Classifies a plan by the guarantee a lazy mediator for it can give about
// the number of source navigations needed per client navigation:
//
//   * bounded browsable — there is a function f with |source navigation|
//     ≤ f(|client navigation|), independent of the data (Example 1's
//     concatenation view);
//   * (unbounded) browsable — a prefix of the answer may be computable from
//     a prefix of the input, but no data-independent bound exists
//     (label-selection views);
//   * unbrowsable — some client navigation forces access to at least one
//     input list in its entirety (reordering by an arithmetic attribute).
//
// The classification depends on the available command set NC: with the
// sibling-selection command σ, a label-chain getDescendants becomes
// bounded browsable (end of Section 2). σ is a property of the source a
// navigation lands in, so it is declared per source (SourceCapability) and
// resolved through variable provenance.
//
// The analysis lives outside the plan: AnalyzePlan folds the PlanNode tree
// bottom-up into a side table keyed by node. Passes that reshape the tree
// re-run it; a node's facts stay valid as long as its subtree is unchanged.
#ifndef MIX_MEDIATOR_BROWSABILITY_H_
#define MIX_MEDIATOR_BROWSABILITY_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "mediator/plan.h"

namespace mix::mediator {

enum class Browsability {
  kBoundedBrowsable = 0,
  kBrowsable = 1,
  kUnbrowsable = 2,
};

const char* BrowsabilityName(Browsability b);

/// Column types a pushdown-capable source exposes. Mirrors rdb::Type but
/// lives here because mix_mediator does not link mix_rdb; the service layer
/// converts from the wrapper's capability struct (buffer::PushdownCapability).
enum class ColumnType { kInt, kDouble, kString };

/// What the wrapper behind a registered source can absorb. Queried per
/// source, so a plan mixing relational and CSV legs only rewrites the legs
/// that honor it.
struct SourceCapability {
  /// Source answers σ (sibling label selection) natively: label-chain
  /// getDescendants over it is bounded browsable.
  bool sigma = false;
  /// Source accepts a "sql:SELECT ..." view URI: comparison predicates can
  /// be compiled into the view so filtered tuples never cross the wire.
  bool pushdown = false;
  /// Root label of the exported database document (the <db> in
  /// db.<table>.row paths). Only meaningful when `pushdown`.
  std::string database;
  struct Column {
    std::string name;
    ColumnType type = ColumnType::kString;
  };
  /// table name -> columns, for pushdown type-legality checks.
  std::map<std::string, std::vector<Column>> tables;
};

/// Source name -> capability; a missing source has none (no σ, no
/// pushdown).
using SourceCapabilities = std::map<std::string, SourceCapability>;

/// What AnalyzePlan knows about one node.
struct NodeFacts {
  /// Output schema. Empty for the kTupleDestroy root (document, not
  /// bindings).
  algebra::VarList schema;
  /// schema var -> source name whose values it navigates, "" if the value
  /// is synthesized (constructor / groupBy output / snapshot).
  std::map<std::string, std::string> var_source;
  /// Sorted, deduplicated source names appearing in this subtree.
  std::vector<std::string> sources;
  /// Browsability of this operator alone / of the whole subtree.
  Browsability self_cls = Browsability::kBoundedBrowsable;
  Browsability cls = Browsability::kBoundedBrowsable;
  /// Why self_cls is worse than bounded ("" when it is not).
  std::string reason;
  /// getDescendants only: a label chain over a σ-capable source, so σ
  /// sibling scans reach each next match in one exchange — whether or not
  /// a fused filter keeps the operator browsable.
  bool sigma_scan = false;
  /// Estimated output cardinality (arbitrary units; only ratios matter).
  double fanout = 1.0;
};

/// The side table: facts for every node of one analyzed tree.
using PlanAnalysis = std::unordered_map<const PlanNode*, NodeFacts>;

/// Analyzes every node of `root` bottom-up. Fails if the tree is not
/// schema-valid (variable scoping is broken).
Result<PlanAnalysis> AnalyzePlan(const PlanNode& root,
                                 const SourceCapabilities& caps);

struct BrowsabilityReport {
  Browsability cls = Browsability::kBoundedBrowsable;
  /// One line per operator that caused a (de)classification, pre-order.
  std::vector<std::string> reasons;
};

/// The Def. 2 class of `plan` with σ resolved per source from `caps`.
/// Fails exactly when AnalyzePlan does.
Result<BrowsabilityReport> Classify(const PlanNode& plan,
                                    const SourceCapabilities& caps);

/// Single-operator classification: the browsability contribution of `node`
/// alone (children are NOT visited). `sigma` says whether the source
/// feeding this operator's navigations answers σ natively. On a worsening
/// result, `*reason` (if non-null) receives the explanatory line.
Browsability ClassifyOperator(const PlanNode& node, bool sigma,
                              std::string* reason);

/// The plan's text (plan_text syntax) with a trailing
/// "% schema=... src=... cls=... fanout=..." comment per line from
/// `analysis` (still parseable: plan_text strips % comments).
std::string DumpAnnotatedPlan(const PlanNode& plan,
                              const PlanAnalysis& analysis);

}  // namespace mix::mediator

#endif  // MIX_MEDIATOR_BROWSABILITY_H_
