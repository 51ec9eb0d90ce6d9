// cachedView_{snapshot -> v}: serves a plan from an immutable materialized
// answer snapshot instead of live sources (answer-view cache, DESIGN.md §4).
//
// Two modes mirror the two sound rewrite shapes:
//
//   * kDocument — the singleton binding list bs[b[v[root]]] over the
//     snapshot's root. Composed under tupleDestroy it reproduces the donor
//     session's answer byte-for-byte (tupleDestroy forwards vectored
//     FetchSubtree straight to the snapshot's FlatAnswerTree).
//   * kChildren — one binding per child of the snapshot root, in document
//     order. This re-exposes the donor's grouped member list so a residual
//     select / groupBy / createElement stack can narrow it (subsumption
//     with a strictly narrower predicate).
//
// Unlike SourceOp the snapshot is NOT wrapped in a SuperRootNavigable: the
// snapshot root *is* the answer element, not a source document that will be
// re-rooted by construction.
#ifndef MIX_ALGEBRA_CACHED_VIEW_SOURCE_OP_H_
#define MIX_ALGEBRA_CACHED_VIEW_SOURCE_OP_H_

#include "algebra/operator_base.h"

namespace mix::algebra {

class CachedViewSourceOp : public OperatorBase {
 public:
  enum class Mode { kDocument, kChildren };

  /// `view` is not owned and must outlive the operator (the session pins the
  /// snapshot for its whole lifetime).
  CachedViewSourceOp(Navigable* view, std::string var, Mode mode);

  const VarList& schema() const override { return schema_; }
  std::optional<NodeId> FirstBinding() override;
  std::optional<NodeId> NextBinding(const NodeId& b) override;
  ValueRef Attr(const NodeId& b, const std::string& var) override;
  void NextBindings(const NodeId& after, int64_t limit,
                    std::vector<NodeId>* out) override;

 private:
  /// Resolves the snapshot root's child list once (kChildren mode).
  void EnsureChildren();

  Navigable* view_;
  Mode mode_;
  VarList schema_;
  bool children_loaded_ = false;
  std::vector<NodeId> children_;
};

}  // namespace mix::algebra

#endif  // MIX_ALGEBRA_CACHED_VIEW_SOURCE_OP_H_
