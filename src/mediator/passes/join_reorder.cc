// Join reordering by estimated fan-out. Nested-loop join output order is
// lexicographic in leaf order, and both reassociation patterns below
// preserve leaf order and output schema order, so the rewritten plan's
// answer is byte-identical — only the intermediate cardinality (and with
// it the scan work per navigation) changes.
//
//   join_p(join_q(A,B), C)  ->  join_q(A, join_p(B,C))
//       legal iff vars(p) subset schema(B)+schema(C)
//   join_p(A, join_q(B,C))  ->  join_q(join_p(A,B), C)
//       legal iff vars(p) subset schema(A)+schema(B)
//
// Applied only when the new intermediate join's estimate beats the old
// one by a strict 25% margin — the margin keeps the two mirrored patterns
// from oscillating. Each predicate travels with its join node (cache /
// index flags stay coherent). One rotation per invocation: the analysis
// goes stale on reshape, and the PassManager re-analyzes between passes.
#include <algorithm>

#include "mediator/passes/pass.h"

namespace mix::mediator::passes {

namespace {

using Kind = PlanNode::Kind;

bool AllIn(const std::vector<std::string>& vars, const algebra::VarList& a,
           const algebra::VarList& b) {
  for (const std::string& v : vars) {
    if (std::find(a.begin(), a.end(), v) == a.end() &&
        std::find(b.begin(), b.end(), v) == b.end()) {
      return false;
    }
  }
  return true;
}

/// Mirrors AnalyzePlan's join fan-out rule for a hypothetical join.
double JoinEst(const PlanNode& join, double left, double right) {
  return left * right *
         (join.predicate->op() == algebra::CompareOp::kEq ? 0.1 : 0.5);
}

class JoinReorderPass : public Pass {
 public:
  const char* name() const override { return "join_reorder"; }

  Result<int> Run(PlanPtr* root, PlanAnalysis* analysis,
                  const OptimizerOptions&) override {
    return Walk(root, *analysis);
  }

 private:
  int Walk(PlanPtr* slot, const PlanAnalysis& analysis) {
    PlanNode* p = slot->get();
    if (p->kind == Kind::kJoin) {
      std::vector<std::string> pvars = InputVars(*p);
      // side 0: join_p(join_q(A,B), C) -> join_q(A, join_p(B,C));
      // side 1: join_p(A, join_q(B,C)) -> join_q(join_p(A,B), C).
      // B is q's input next to p's other input; it moves under p.
      for (int side = 0; side < 2; ++side) {
        PlanNode* q = p->children[side].get();
        if (q->kind != Kind::kJoin) continue;
        const NodeFacts& other = analysis.at(p->children[1 - side].get());
        const NodeFacts& b = analysis.at(q->children[1 - side].get());
        const NodeFacts& end = analysis.at(q->children[side].get());
        if (!AllIn(pvars, b.schema, other.schema) ||
            JoinEst(*p, b.fanout, other.fanout) >=
                0.75 * JoinEst(*q, end.fanout, b.fanout)) {
          continue;
        }
        PlanPtr p_owned = std::move(*slot);
        PlanPtr q_owned = std::move(p_owned->children[side]);
        p_owned->children[side] = std::move(q_owned->children[1 - side]);
        q_owned->children[1 - side] = std::move(p_owned);
        *slot = std::move(q_owned);
        return 1;
      }
    }
    for (PlanPtr& child : slot->get()->children) {
      int changes = Walk(&child, analysis);
      if (changes != 0) return changes;
    }
    return 0;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeJoinReorderPass() {
  return std::make_unique<JoinReorderPass>();
}

}  // namespace mix::mediator::passes
