#include "mediator/reference_eval.h"

#include "pathexpr/path_expr.h"

namespace mix::mediator {

using algebra::reference::Evaluator;
using algebra::reference::Table;

Result<Table> EvaluateReferenceTable(const PlanNode& node,
                                     const ReferenceSources& sources,
                                     xml::Document* scratch) {
  using Kind = PlanNode::Kind;
  Evaluator eval(scratch);

  std::vector<Table> inputs;
  for (const PlanPtr& c : node.children) {
    auto t = EvaluateReferenceTable(*c, sources, scratch);
    if (!t.ok()) return t.status();
    inputs.push_back(std::move(t).ValueOrDie());
  }

  switch (node.kind) {
    case Kind::kSource: {
      auto it = sources.find(node.source_name);
      if (it == sources.end()) {
        return Status::NotFound("unknown source: " + node.source_name);
      }
      // Mirror the lazy side's document-node anchoring (super_root.h): the
      // source binding is a "#document" node whose child is (a copy of)
      // the root element, so source paths match root-inclusive.
      xml::Node* doc_node = scratch->NewElement("#document");
      scratch->AppendChild(
          doc_node, algebra::reference::CopyInto(scratch, it->second));
      return eval.Source(doc_node, node.var);
    }
    case Kind::kGetDescendants: {
      auto path = pathexpr::PathExpr::Parse(node.path);
      if (!path.ok()) return path.status();
      Table out = eval.GetDescendants(inputs[0], node.parent_var,
                                      path.value(), node.out_var);
      // A fused filter (fusion pass) is a selection on the gd's output.
      if (node.predicate.has_value()) return eval.Select(out, *node.predicate);
      return out;
    }
    case Kind::kSelect:
      return eval.Select(inputs[0], *node.predicate);
    case Kind::kJoin:
      return eval.Join(inputs[0], inputs[1], *node.predicate);
    case Kind::kGroupBy:
      return eval.GroupBy(inputs[0], node.vars, node.grouped_var, node.out_var);
    case Kind::kConcatenate:
      return eval.Concatenate(inputs[0], node.x_var, node.y_var, node.out_var);
    case Kind::kCreateElement:
      return eval.CreateElement(inputs[0], node.label_is_constant, node.label,
                                node.x_var, node.out_var);
    case Kind::kOrderBy:
      if (node.order_by_occurrence) {
        return eval.OrderByOccurrence(inputs[0], node.vars);
      }
      return eval.OrderBy(inputs[0], node.vars);
    case Kind::kMaterialize:
      return inputs[0];  // semantically the identity
    case Kind::kUnion:
      return eval.Union(inputs[0], inputs[1]);
    case Kind::kDifference:
      return eval.Difference(inputs[0], inputs[1]);
    case Kind::kDistinct:
      return eval.Distinct(inputs[0]);
    case Kind::kProject:
      return eval.Project(inputs[0], node.vars);
    case Kind::kWrapList: {
      // z = list[x]: express via the evaluator's concatenate machinery —
      // list[x] has exactly the items of a single non-list side.
      Table out = inputs[0];
      size_t xi = out.IndexOf(node.x_var);
      out.schema.push_back(node.out_var);
      for (auto& row : out.rows) {
        xml::Node* list = scratch->NewElement(algebra::kListLabel);
        scratch->AppendChild(
            list, algebra::reference::CopyInto(scratch, row[xi]));
        row.push_back(list);
      }
      return out;
    }
    case Kind::kConst: {
      Table out = inputs[0];
      out.schema.push_back(node.out_var);
      for (auto& row : out.rows) {
        row.push_back(scratch->NewText(node.text));
      }
      return out;
    }
    case Kind::kRename: {
      Table out = inputs[0];
      for (std::string& v : out.schema) {
        if (v == node.x_var) v = node.out_var;
      }
      return out;
    }
    case Kind::kCachedView:
      return Status::InvalidArgument(
          "cachedView is not supported by the reference evaluator");
    case Kind::kTupleDestroy:
      return Status::InvalidArgument(
          "tupleDestroy is not a binding-stream node");
  }
  return Status::Internal("unknown plan kind");
}

Result<const xml::Node*> EvaluateReference(const PlanNode& root,
                                           const ReferenceSources& sources,
                                           xml::Document* scratch) {
  if (root.kind != PlanNode::Kind::kTupleDestroy) {
    return Status::InvalidArgument("plan root must be tupleDestroy");
  }
  auto table = EvaluateReferenceTable(*root.children[0], sources, scratch);
  if (!table.ok()) return table.status();
  Evaluator eval(scratch);
  return eval.TupleDestroy(table.value(), root.var);
}

}  // namespace mix::mediator
