#include "mediator/browsability.h"

#include <algorithm>
#include <cstdio>

#include "pathexpr/path_expr.h"

namespace mix::mediator {

const char* BrowsabilityName(Browsability b) {
  switch (b) {
    case Browsability::kBoundedBrowsable:
      return "bounded browsable";
    case Browsability::kBrowsable:
      return "browsable";
    case Browsability::kUnbrowsable:
      return "unbrowsable";
  }
  return "?";
}

namespace {

std::string SelectReason(const algebra::BindingPredicate& predicate) {
  return "select[" + predicate.ToString() +
         "]: scan to the next satisfying binding is unbounded";
}

}  // namespace

Browsability ClassifyOperator(const PlanNode& node, bool sigma,
                              std::string* reason) {
  using Kind = PlanNode::Kind;
  std::string why;
  Browsability cls = Browsability::kBoundedBrowsable;
  switch (node.kind) {
    case Kind::kSource:
    case Kind::kConcatenate:
    case Kind::kCreateElement:
    case Kind::kUnion:
    case Kind::kProject:
    case Kind::kWrapList:
    case Kind::kConst:
    case Kind::kRename:
    case Kind::kCachedView:
    case Kind::kTupleDestroy:
      // Structural operators: output navigations map to a bounded number
      // of input navigations (Example 1's q_conc).
      break;
    case Kind::kGetDescendants: {
      auto path = pathexpr::PathExpr::Parse(node.path);
      bool chain = path.ok() && path.value().IsLabelChain();
      // One σ per level retrieves the next match: bounded (Section 2).
      if (!chain || !(node.use_sigma || sigma)) {
        cls = Browsability::kBrowsable;
        why = "getDescendants[" + node.path +
              "]: sibling scan length depends on the data" +
              (chain ? " (σ would make it bounded)" : "");
      }
      if (node.predicate.has_value()) {
        // A fused select keeps its cost: σ finds the next match, not the
        // next one that satisfies the filter.
        cls = Browsability::kBrowsable;
        if (!why.empty()) why += "; ";
        why += SelectReason(*node.predicate);
      }
      break;
    }
    case Kind::kSelect:
      cls = Browsability::kBrowsable;
      why = SelectReason(*node.predicate);
      break;
    case Kind::kJoin:
      cls = Browsability::kBrowsable;
      why = "join[" + node.predicate->ToString() +
            "]: inner scans per output binding are unbounded";
      break;
    case Kind::kGroupBy:
      cls = Browsability::kBrowsable;
      why = "groupBy: next_gb/next scans are unbounded";
      break;
    case Kind::kDistinct:
      cls = Browsability::kBrowsable;
      why = "distinct: scan past duplicates is unbounded";
      break;
    case Kind::kOrderBy:
      cls = Browsability::kUnbrowsable;
      why =
          "orderBy: requires the complete input list before the first "
          "result";
      break;
    case Kind::kMaterialize:
      cls = Browsability::kUnbrowsable;
      why = "materialize: intermediate eager step drains its whole input";
      break;
    case Kind::kDifference:
      cls = Browsability::kUnbrowsable;
      why =
          "difference: requires the complete right input before the "
          "first result";
      break;
  }
  if (reason != nullptr) *reason = std::move(why);
  return cls;
}

namespace {

Browsability Worse(Browsability a, Browsability b) {
  return static_cast<int>(a) < static_cast<int>(b) ? b : a;
}

bool IsLabelChain(const std::string& path) {
  auto parsed = pathexpr::PathExpr::Parse(path);
  return parsed.ok() && parsed.value().IsLabelChain();
}

Status Analyze(const PlanNode& n, const SourceCapabilities& caps,
               PlanAnalysis* table) {
  using Kind = PlanNode::Kind;
  std::vector<const NodeFacts*> kids;
  for (const PlanPtr& c : n.children) {
    Status s = Analyze(*c, caps, table);
    if (!s.ok()) return s;
    kids.push_back(&table->at(c.get()));
  }
  NodeFacts& f = (*table)[&n];

  // Schema (kTupleDestroy yields a document, not bindings: empty schema).
  if (n.kind != Kind::kTupleDestroy) {
    std::vector<algebra::VarList> child_schemas;
    for (const NodeFacts* k : kids) child_schemas.push_back(k->schema);
    auto s = SchemaTransition(n, child_schemas);
    if (!s.ok()) return s.status();
    f.schema = std::move(s).ValueOrDie();
  }

  // Provenance: merge children, apply the operator's own bindings, then
  // restrict to the output schema.
  for (const NodeFacts* k : kids) {
    f.var_source.insert(k->var_source.begin(), k->var_source.end());
  }
  auto source_of = [&f](const std::string& var) {
    auto it = f.var_source.find(var);
    return it == f.var_source.end() ? std::string() : it->second;
  };
  switch (n.kind) {
    case Kind::kSource:
      f.var_source[n.var] = n.source_name;
      break;
    case Kind::kGetDescendants:
      f.var_source[n.out_var] = source_of(n.parent_var);
      break;
    case Kind::kGroupBy:
    case Kind::kConcatenate:
    case Kind::kCreateElement:
    case Kind::kWrapList:
    case Kind::kConst:
      // Constructors synthesize their output value.
      f.var_source[n.out_var] = "";
      break;
    case Kind::kCachedView:
      // Snapshot values have no live σ-capable source behind them.
      f.var_source[n.var] = "";
      break;
    case Kind::kRename:
      f.var_source[n.out_var] = source_of(n.x_var);
      break;
    default:
      break;
  }
  for (auto it = f.var_source.begin(); it != f.var_source.end();) {
    bool in_schema = std::find(f.schema.begin(), f.schema.end(),
                               it->first) != f.schema.end();
    it = in_schema ? std::next(it) : f.var_source.erase(it);
  }

  // Source set.
  for (const NodeFacts* k : kids) {
    f.sources.insert(f.sources.end(), k->sources.begin(), k->sources.end());
  }
  if (n.kind == Kind::kSource) f.sources.push_back(n.source_name);
  std::sort(f.sources.begin(), f.sources.end());
  f.sources.erase(std::unique(f.sources.begin(), f.sources.end()),
                  f.sources.end());

  // Browsability, σ-capability resolved per source through provenance.
  bool sigma = false;
  if (n.kind == Kind::kGetDescendants) {
    auto v = kids[0]->var_source.find(n.parent_var);
    if (v != kids[0]->var_source.end()) {
      auto c = caps.find(v->second);
      sigma = c != caps.end() && c->second.sigma;
    }
  }
  f.sigma_scan = sigma && IsLabelChain(n.path);
  f.self_cls = ClassifyOperator(n, sigma, &f.reason);
  f.cls = f.self_cls;
  for (const NodeFacts* k : kids) f.cls = Worse(f.cls, k->cls);

  // Fan-out estimate.
  double in0 = kids.empty() ? 1.0 : kids[0]->fanout;
  double in1 = kids.size() > 1 ? kids[1]->fanout : 1.0;
  switch (n.kind) {
    case Kind::kSource:
      f.fanout = 1.0;
      break;
    case Kind::kGetDescendants:
      f.fanout = in0 * (IsLabelChain(n.path) ? 4.0 : 8.0);
      break;
    case Kind::kSelect:
      f.fanout = in0 * (n.predicate->is_var_var() ? 0.5 : 0.25);
      break;
    case Kind::kJoin:
      f.fanout = in0 * in1 *
                 (n.predicate->op() == algebra::CompareOp::kEq ? 0.1 : 0.5);
      break;
    case Kind::kGroupBy:
      f.fanout = in0 * 0.5;
      break;
    case Kind::kDistinct:
      f.fanout = in0 * 0.75;
      break;
    case Kind::kUnion:
      f.fanout = in0 + in1;
      break;
    default:
      f.fanout = in0;
      break;
  }
  return Status::OK();
}

void CollectReasons(const PlanNode& n, const PlanAnalysis& analysis,
                    BrowsabilityReport* report) {
  const NodeFacts& f = analysis.at(&n);
  if (f.self_cls != Browsability::kBoundedBrowsable) {
    report->cls = Worse(report->cls, f.self_cls);
    report->reasons.push_back(f.reason);
  }
  for (const PlanPtr& c : n.children) CollectReasons(*c, analysis, report);
}

}  // namespace

Result<PlanAnalysis> AnalyzePlan(const PlanNode& root,
                                 const SourceCapabilities& caps) {
  PlanAnalysis table;
  Status s = Analyze(root, caps, &table);
  if (!s.ok()) return s;
  return table;
}

Result<BrowsabilityReport> Classify(const PlanNode& plan,
                                    const SourceCapabilities& caps) {
  auto analysis = AnalyzePlan(plan, caps);
  if (!analysis.ok()) return analysis.status();
  BrowsabilityReport report;
  CollectReasons(plan, analysis.value(), &report);
  return report;
}

std::string DumpAnnotatedPlan(const PlanNode& plan,
                              const PlanAnalysis& analysis) {
  return plan.ToString([&analysis](const PlanNode& n) {
    const NodeFacts& f = analysis.at(&n);
    std::string schema = "{";
    for (size_t i = 0; i < f.schema.size(); ++i) {
      if (i > 0) schema += ",";
      schema += "$" + f.schema[i];
    }
    schema += "}";
    std::string src = "{";
    bool first = true;
    for (const auto& [var, source] : f.var_source) {
      if (!first) src += ",";
      first = false;
      src += var + ":" + (source.empty() ? "-" : source);
    }
    src += "}";
    char fanout[32];
    std::snprintf(fanout, sizeof(fanout), "%.3g", f.fanout);
    return " % schema=" + schema + " src=" + src +
           " cls=" + BrowsabilityName(f.cls) + " fanout=" + fanout;
  });
}

}  // namespace mix::mediator
