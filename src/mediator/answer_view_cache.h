// Cross-session answer-view cache (DESIGN.md §4 "Answer-view cache").
//
// PR 5's SourceCache shares raw *source fragments*; this cache shares
// *answers*: a registry of canonical plan-IR view descriptors, each bound
// to an immutable, navigation-complete snapshot of the originating
// session's materialized answer (exported via one full-depth FetchSubtree
// and published only when fully filled — degraded `#unavailable` splices
// and truncated exports are rejected). A new `Session::Open` tests its
// plan for subsumption against the cached descriptors and, on a hit, is
// served from the snapshot through an ordinary `CachedViewSourceOp` with
// ZERO wrapper exchanges.
//
// Subsumption is deliberately conservative — only provably-sound cases,
// in the spirit of view-based XPath rewriting (Cautis et al.):
//
//   1. Identical canonical plans (after stripping a transparent project
//      under tupleDestroy) → replay the snapshot document verbatim.
//   2. The factored crown tupleDestroy→createElement[const]→groupBy[{}]
//      over select*(E): a query whose predicate set IMPLIES a cached
//      view's (every cached conjunct implied by some incoming conjunct)
//      is served by re-filtering the snapshot root's children with the
//      incoming selects — σ_{Pi}(σ_{Pc}(S)) = σ_{Pi}(S) when Pi ⇒ Pc,
//      and re-applying implied filters is idempotent.
//
// Because `CompareAtoms` is mixed-mode (numeric when both sides parse as
// numbers, else lexicographic), single-conjunct implication is only
// claimed when it holds under BOTH constant orderings and both constants
// agree on numeric-ness; anything else is an honest subsumption_reject.
#ifndef MIX_MEDIATOR_ANSWER_VIEW_CACHE_H_
#define MIX_MEDIATOR_ANSWER_VIEW_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "algebra/binding_stream.h"
#include "core/navigable.h"
#include "mediator/plan.h"

namespace mix::mediator {

/// Reserved SourceRegistry name under which a view-served session's
/// snapshot navigable is registered (rewritten plans reference it).
inline constexpr char kAnswerViewSourceName[] = "__answer_view";

/// Fixed per-snapshot charge on top of the flat arrays and label bytes:
/// the AnswerSnapshot and FlatAnswerTree objects, the descriptor, the
/// generation pins and the LRU/index bookkeeping of one entry.
inline constexpr int64_t kSnapshotFixedBytes = 512;

/// One stripped var-constant conjunct of a view descriptor.
struct ViewPredicate {
  std::string var;
  algebra::CompareOp op = algebra::CompareOp::kEq;
  std::string constant;

  bool operator==(const ViewPredicate& o) const {
    return var == o.var && op == o.op && constant == o.constant;
  }
};

/// Canonical descriptor of what a plan computes, for subsumption matching.
/// Computed from the RAW compiled plan (before the optimizer absorbs
/// predicates into wrapper URIs) and cached in PlanCache::Compiled.
struct ViewShape {
  /// False when the plan is not a well-formed tupleDestroy tree (such
  /// plans never participate in view matching).
  bool valid = false;
  /// True when the factored crown matched; enables predicate subsumption
  /// (case 2). Non-factored shapes match identical plans only.
  bool factored = false;
  /// Canonical text of the plan with the transparent project and the top
  /// select-chain over the grouped variable stripped.
  std::string base_key;
  /// The stripped conjuncts (all on `grouped_var`), outermost first.
  std::vector<ViewPredicate> preds;
  // Factored-crown parameters, used to rebuild the residual serving plan.
  std::string root_label;
  std::string create_out;
  std::string group_out;
  std::string grouped_var;
  /// Sorted, deduplicated source names the plan touches.
  std::vector<std::string> sources;
};

/// Computes the view descriptor of a raw (pre-optimization) plan.
ViewShape ComputeViewShape(const PlanNode& raw_plan);

/// True iff (v have.op have.constant) ⇒ (v want.op want.constant) for every
/// value v under CompareAtoms semantics (both numeric and lexicographic
/// constant orderings must agree — see file comment).
bool PredicateImplies(const ViewPredicate& have, const ViewPredicate& want);

/// An immutable answer tree in flat pre-order. Node i holds its label atom
/// and the index one past the last node of its subtree, so a node's first
/// child is i + 1 (when its subtree holds more than itself) and its right
/// sibling is its subtree end (when that is below the parent's end). Ids are
/// `fv(instance, index, limit)`, where `limit` is the subtree end of the
/// node's parent (the node count for the root): every command is index
/// arithmetic over the two arrays, with no parent links. Nothing is mutated
/// after Build, so sessions on any worker share one tree without locks.
class FlatAnswerTree : public Navigable {
 public:
  /// Builds the tree in one pass from a full-depth pre-order export.
  /// Returns nullptr when the export is empty, holds a truncated entry, or
  /// its depth sequence is not a valid pre-order (first entry at depth 0,
  /// every later one at depth >= 1 and at most one level deeper than its
  /// predecessor).
  static std::unique_ptr<FlatAnswerTree> Build(
      const std::vector<SubtreeEntry>& entries);

  int64_t node_count() const { return static_cast<int64_t>(labels_.size()); }
  const std::vector<Atom>& labels() const { return labels_; }
  const std::vector<int32_t>& subtree_ends() const { return ends_; }
  /// Sum of the label texts' sizes, one per node. The texts live once in
  /// the process-wide atom table, so this overcounts shared labels.
  int64_t label_bytes() const { return label_bytes_; }

  NodeId Root() override;
  std::optional<NodeId> Down(const NodeId& p) override;
  std::optional<NodeId> Right(const NodeId& p) override;
  Label Fetch(const NodeId& p) override;
  Atom FetchAtom(const NodeId& p) override;
  std::optional<NodeId> SelectSibling(const NodeId& p,
                                      const LabelPredicate& pred) override;
  std::optional<NodeId> NthChild(const NodeId& p, int64_t index) override;
  void DownAll(const NodeId& p, std::vector<NodeId>* out) override;
  void NextSiblings(const NodeId& p, int64_t limit,
                    std::vector<NodeId>* out) override;
  void FetchSubtree(const NodeId& p, int64_t depth,
                    std::vector<SubtreeEntry>* out) override;

 private:
  struct Pos {
    int32_t index;
    int32_t limit;  ///< subtree end of the parent
  };

  FlatAnswerTree();
  Pos Resolve(const NodeId& p) const;
  NodeId MakeId(int32_t index, int32_t limit) const;
  /// First child of `i` as a position, or index -1 for a leaf.
  Pos FirstChild(int32_t i) const;

  const int64_t instance_;
  std::vector<Atom> labels_;
  std::vector<int32_t> ends_;
  int64_t label_bytes_ = 0;
};

/// Bytes a snapshot over `tree` is charged against the cache budget: the
/// arrays' allocated bytes, the label bytes and kSnapshotFixedBytes.
int64_t SnapshotCharge(const FlatAnswerTree& tree);

/// An immutable published answer. Sessions pin it via shared_ptr, so LRU
/// eviction never invalidates an in-flight reader.
struct AnswerSnapshot {
  std::unique_ptr<FlatAnswerTree> tree;
  /// SnapshotCharge(*tree).
  int64_t bytes = 0;
  ViewShape shape;
  /// Answer-view generations of shape.sources pinned when the donor
  /// session opened; a bump of any of them invalidates the snapshot.
  std::map<std::string, int64_t> generations;
};

class AnswerViewCache {
 public:
  struct Options {
    /// Total snapshot byte budget; <= 0 disables the cache entirely (the
    /// `answer_view_cache_bytes = 0` A/B baseline).
    int64_t byte_budget = 0;
  };

  /// A subsumption-match result: null snapshot = miss; on a hit, `plan`
  /// is the rewritten serving plan over kAnswerViewSourceName.
  struct Match {
    std::shared_ptr<const AnswerSnapshot> snapshot;
    PlanPtr plan;
  };

  explicit AnswerViewCache(Options options) : options_(options) {}
  AnswerViewCache(const AnswerViewCache&) = delete;
  AnswerViewCache& operator=(const AnswerViewCache&) = delete;

  bool enabled() const { return options_.byte_budget > 0; }

  /// Tests `shape` against the cached descriptors (MRU first per base
  /// key). Counts view_hits/view_misses and subsumption rejects.
  Match TryMatch(const ViewShape& shape);

  /// Publishes a navigation-complete answer export under `shape`.
  /// Rejects (with a counted reason, never an abort) degraded or
  /// truncated exports, stale generation pins, duplicates, and
  /// over-budget snapshots; evicts LRU entries to fit the byte budget.
  void Publish(const ViewShape& shape,
               const std::vector<SubtreeEntry>& entries,
               const std::map<std::string, int64_t>& pinned_generations);

  /// Current answer-view generations for `sources` (for pinning at
  /// session open; absent sources are generation 0).
  std::map<std::string, int64_t> PinGenerations(
      const std::vector<std::string>& sources) const;

  /// Freshness: bumps the source's generation and eagerly drops every
  /// view whose descriptor depends on it.
  void InvalidateSource(const std::string& source);

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t publishes = 0;
    int64_t evictions = 0;
    int64_t invalidations = 0;
    int64_t bytes = 0;
    int64_t entries = 0;
    /// Match + publish reject counts by reason ("predicate", "absent",
    /// "stale", "degraded", "truncated", "malformed", "budget", ...).
    std::map<std::string, int64_t> rejects;
  };
  Stats stats() const;

 private:
  using LruList = std::list<std::shared_ptr<const AnswerSnapshot>>;

  bool GenerationsCurrentLocked(const AnswerSnapshot& snap) const;
  void DropLocked(LruList::iterator it);

  Options options_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recently used
  std::multimap<std::string, LruList::iterator> index_;  ///< by base_key
  std::map<std::string, int64_t> generations_;
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t publishes_ = 0;
  int64_t evictions_ = 0;
  int64_t invalidations_ = 0;
  std::map<std::string, int64_t> rejects_;
};

}  // namespace mix::mediator

#endif  // MIX_MEDIATOR_ANSWER_VIEW_CACHE_H_
