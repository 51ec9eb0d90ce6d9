// Selections sink toward the sources: below the
// join side that binds all predicate variables, below getDescendants whose
// output the predicate ignores, and below groupBy when the predicate only
// reads group variables (those pass through unchanged, so filtering groups
// equals filtering bindings). Earlier filtering means lazier scans.
//
// Runs its own internal fixpoint: selections are schema-preserving, so a
// rotation invalidates no fact this pass reads (the moved select's own
// schema is patched in the side table).
#include <algorithm>

#include "mediator/passes/pass.h"

namespace mix::mediator::passes {

namespace {

using Kind = PlanNode::Kind;

bool Contains(const algebra::VarList& vars, const std::string& v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

bool AllIn(const std::vector<std::string>& vars,
           const algebra::VarList& schema) {
  for (const std::string& v : vars) {
    if (!Contains(schema, v)) return false;
  }
  return true;
}

class SelectPushdownPass : public Pass {
 public:
  const char* name() const override { return "select_pushdown"; }

  Result<int> Run(PlanPtr* root, PlanAnalysis* analysis,
                  const OptimizerOptions&) override {
    int total = 0;
    for (int i = 0; i < 64; ++i) {
      int changes = Walk(root, analysis);
      if (changes == 0) break;
      total += changes;
    }
    return total;
  }

 private:
  /// One top-down sweep; stops and restarts at each rotation (the reshaped
  /// subtree is revisited by the next sweep).
  int Walk(PlanPtr* slot, PlanAnalysis* analysis) {
    PlanNode* node = slot->get();
    if (node->kind == Kind::kSelect) {
      PlanNode* child = node->children[0].get();
      std::vector<std::string> vars = InputVars(*node);
      auto schema = [analysis](const PlanPtr& n) -> algebra::VarList& {
        return analysis->at(n.get()).schema;
      };
      // The input of `child` the select may move onto, -1 if none.
      int target = -1;
      if (child->kind == Kind::kJoin) {
        // Into whichever side binds every predicate variable.
        for (int side = 0; side < 2 && target < 0; ++side) {
          if (AllIn(vars, schema(child->children[side]))) target = side;
        }
      } else if ((child->kind == Kind::kGetDescendants &&
                  !Contains(vars, child->out_var)) ||
                 (child->kind == Kind::kGroupBy && AllIn(vars, child->vars))) {
        target = 0;
      }
      if (target >= 0) {
        // select(op(.., c, ..)) -> op(.., select(c), ..).
        PlanPtr select = std::move(*slot);
        PlanPtr op = std::move(select->children[0]);
        PlanPtr input = std::move(op->children[target]);
        schema(select) = schema(input);
        select->children[0] = std::move(input);
        op->children[target] = std::move(select);
        *slot = std::move(op);
        return 1;
      }
    }
    int changes = 0;
    for (PlanPtr& c : slot->get()->children) changes += Walk(&c, analysis);
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeSelectPushdownPass() {
  return std::make_unique<SelectPushdownPass>();
}

}  // namespace mix::mediator::passes
