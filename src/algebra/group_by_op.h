// groupBy_{v1..vk, v -> l} (paper Section 3, Fig. 10, Example 8).
//
// Groups the bindings of v by the bindings of the group-by variables
// v1..vk. For each group (in order of first occurrence) one output binding
// b[v1[..], .., vk[..], l[list[coll]]] is produced, where coll lists the
// group's v values in input order. Grouping is by *node identity* of the
// group-by values (footnote 7: the binding structure "preserves node
// identities which are needed when grouping elements").
//
// Lazy-mediator implementation follows Fig. 10 exactly:
//   * output binding ids are <b, pg, Gprev>: pg is the first input binding
//     of the group; Gprev the set of group-by keys seen before it. Since
//     "the list of previously seen group-by lists Gprev only grows", it is
//     stored operator-side and referenced by handle from the node-id —
//     the paper's "stores the list in the buffer and uses a reference ...
//     in the node-ids". Gprev is kept as a persistent chain so snapshots
//     share structure.
//   * NextBinding runs next_gb(pg): scan input for the first binding whose
//     key is not in Gprev ∪ {key(pg)}.
//   * navigating right among grouped values runs next(pb, pg): scan input
//     after pb for the next binding with key(pg).
//
// Fig. 10's closing optimization is implemented behind
// Options::cache_input (default on): "the groupBy operator also stores the
// grouped-by values ... and stores the associated lists" — the operator
// memoizes the input enumeration (binding ids + keys) as its scans pass
// over it, so the next_gb/next scans of later groups replay from the cache
// instead of re-driving the input operator (which, above a join, would
// re-advance the join). cache_input=false keeps the cache-less behavior
// for ablation benchmarks.
//
// Special case: groupBy with *no* group-by variables (the `{}` of answer
// construction) produces exactly one output binding even on empty input,
// carrying an empty list — "create one answer element (= for each {})".
// Since that binding exists whatever the input holds, FirstBinding hands it
// out without navigating the input; the input is probed only when the
// group's list is first navigated. The answer root of a query therefore
// costs no source access until the client descends into it (paper §3).
#ifndef MIX_ALGEBRA_GROUP_BY_OP_H_
#define MIX_ALGEBRA_GROUP_BY_OP_H_

#include <deque>
#include <memory>
#include <unordered_map>

#include "algebra/operator_base.h"

namespace mix::algebra {

class GroupByOp : public ConstructingOperatorBase {
 public:
  struct Options {
    /// Memoize the input enumeration + keys (Fig. 10's list caching).
    bool cache_input = true;
  };

  /// `input` is not owned and must outlive the operator.
  GroupByOp(BindingStream* input, VarList group_vars, std::string grouped_var,
            std::string out_var, Options options);
  GroupByOp(BindingStream* input, VarList group_vars, std::string grouped_var,
            std::string out_var)
      : GroupByOp(input, std::move(group_vars), std::move(grouped_var),
                  std::move(out_var), Options()) {}

  const VarList& schema() const override { return schema_; }
  std::optional<NodeId> FirstBinding() override;
  std::optional<NodeId> NextBinding(const NodeId& b) override;
  ValueRef Attr(const NodeId& b, const std::string& var) override;

  // Value-space navigation for the synthesized list nodes & grouped items.
  std::optional<NodeId> Down(const NodeId& p) override;
  std::optional<NodeId> Right(const NodeId& p) override;
  Label Fetch(const NodeId& p) override;

  /// Vectored navigation: a batch on the synthesized list enumerates the
  /// whole group in one next-in-group scan, without per-item memo traffic.
  void DownAll(const NodeId& p, std::vector<NodeId>* out) override;
  void NextSiblings(const NodeId& p, int64_t limit,
                    std::vector<NodeId>* out) override;
  void FetchSubtree(const NodeId& p, int64_t depth,
                    std::vector<SubtreeEntry>* out) override;

  /// Input bindings enumerated (and memoized) so far — observability for
  /// the cache-ablation benchmarks.
  int64_t input_enumerated() const {
    return static_cast<int64_t>(seq_.size());
  }

 private:
  /// Group key: the group-by values' node identities.
  using Key = std::vector<NodeId>;
  /// Persistent set of previously seen keys (Fig. 10's Gprev).
  struct PrevNode {
    Key key;
    std::shared_ptr<const PrevNode> parent;
  };
  using PrevSet = std::shared_ptr<const PrevNode>;

  struct GroupState {
    NodeId pg;     ///< first input binding of the group.
    PrevSet prev;  ///< keys of all earlier groups.
  };

  /// One memoized input binding.
  struct SeqEntry {
    NodeId ib;
    Key key;
  };

  Key KeyOf(const NodeId& ib);
  static bool KeyEquals(const Key& a, const Key& b);
  static bool PrevContains(const PrevSet& set, const Key& key);

  /// next_gb: first input binding at/after `ib` whose key is not in `prev`.
  std::optional<NodeId> NextGroupLeader(std::optional<NodeId> ib,
                                        const PrevSet& prev);
  /// next(pb, pg): next input binding after `pb` in pg's group.
  std::optional<NodeId> NextInGroup(const NodeId& pb, const NodeId& pg);

  // --- input enumeration cache (Options::cache_input) ---
  /// Index of `ib` in the memoized sequence; extends the sequence until
  /// found. Only called with ids that were produced by this operator's own
  /// forward scans, so the entry exists or is the next to be appended.
  size_t SeqIndexOf(const NodeId& ib);
  /// Entry at `i`, extending on demand; nullptr past the end of input.
  const SeqEntry* SeqAt(size_t i);

  /// The input's first binding, through the enumeration cache when on.
  std::optional<NodeId> FirstInput();
  NodeId StoreState(GroupState state);
  const GroupState& StateOf(int64_t handle) const;
  /// The state handle behind a gb_list id. The sole group of a
  /// no-group-vars groupBy resolves on first use: a leader state when the
  /// input has a binding, else the empty-list sentinel.
  int64_t ListHandle(const NodeId& list);

  BindingStream* input_;
  VarList group_vars_;
  std::string grouped_var_;
  std::string out_var_;
  Options options_;
  VarList schema_;

  std::deque<GroupState> states_;

  std::vector<SeqEntry> seq_;
  std::unordered_map<NodeId, size_t, NodeIdHash> seq_index_;
  bool seq_complete_ = false;
  /// Resolved handle of the sole group (kSoleGroupHandle until resolved).
  int64_t sole_group_ = -2;
};

}  // namespace mix::algebra

#endif  // MIX_ALGEBRA_GROUP_BY_OP_H_
