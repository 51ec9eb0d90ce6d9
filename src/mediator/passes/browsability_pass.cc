// Browsability pass: a label-chain getDescendants whose anchoring value
// navigates a σ-capable source switches to σ sibling scans, which upgrades
// it from browsable to bounded browsable (paper Section 2, end).
// σ-capability is resolved per source by AnalyzePlan through variable
// provenance — a plan mixing relational and CSV legs only upgrades the
// legs whose wrapper answers σ. The analysis already classifies such a
// node as bounded (unless a fused filter keeps it browsable); this pass
// makes the plan say so.
#include "mediator/passes/pass.h"

namespace mix::mediator::passes {

namespace {

class BrowsabilityPass : public Pass {
 public:
  const char* name() const override { return "browsability"; }

  Result<int> Run(PlanPtr* root, PlanAnalysis* analysis,
                  const OptimizerOptions&) override {
    return Walk(root->get(), *analysis);
  }

 private:
  int Walk(PlanNode* node, const PlanAnalysis& analysis) {
    int changes = 0;
    if (node->kind == PlanNode::Kind::kGetDescendants && !node->use_sigma &&
        analysis.at(node).sigma_scan) {
      node->use_sigma = true;
      ++changes;
    }
    for (PlanPtr& c : node->children) changes += Walk(c.get(), analysis);
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeBrowsabilityPass() {
  return std::make_unique<BrowsabilityPass>();
}

}  // namespace mix::mediator::passes
