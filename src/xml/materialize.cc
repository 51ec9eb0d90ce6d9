#include "xml/materialize.h"

#include <utility>
#include <vector>

#include "core/check.h"

namespace mix::xml {

namespace {

struct Budget {
  int64_t remaining;
  bool unlimited;
  bool Take() {
    if (unlimited) return true;
    if (remaining <= 0) return false;
    --remaining;
    return true;
  }
};

Node* Copy(Navigable* nav, const NodeId& p, Document* doc, Budget* budget) {
  Label label = nav->Fetch(p);
  std::optional<NodeId> child = nav->Down(p);
  if (!child.has_value()) {
    return doc->NewText(std::move(label));
  }
  Node* element = doc->NewElement(std::move(label));
  while (child.has_value() && budget->Take()) {
    doc->AppendChild(element, Copy(nav, *child, doc, budget));
    child = nav->Right(*child);
  }
  return element;
}

}  // namespace

Node* BuildFromSubtreeEntries(const std::vector<SubtreeEntry>& entries,
                              Document* doc) {
  // Pre-order rebuild: an entry is a leaf iff its successor is not deeper;
  // stack[d] tracks the open element at each depth for parent linking.
  if (entries.empty() || doc == nullptr) return nullptr;
  std::vector<Node*> stack;
  Node* root = nullptr;
  int64_t prev_depth = -1;
  for (size_t i = 0; i < entries.size(); ++i) {
    const SubtreeEntry& e = entries[i];
    if (e.truncated) return nullptr;
    if (i == 0 ? e.depth != 0 : (e.depth < 1 || e.depth > prev_depth + 1)) {
      return nullptr;
    }
    prev_depth = e.depth;
    const bool has_children =
        i + 1 < entries.size() && entries[i + 1].depth > e.depth;
    Node* n = has_children ? doc->NewElement(std::string(e.label.name()))
                           : doc->NewText(std::string(e.label.name()));
    if (e.depth == 0) {
      root = n;
    } else {
      doc->AppendChild(stack[static_cast<size_t>(e.depth) - 1], n);
    }
    if (stack.size() <= static_cast<size_t>(e.depth)) {
      stack.resize(static_cast<size_t>(e.depth) + 1);
    }
    stack[static_cast<size_t>(e.depth)] = n;
  }
  return root;
}

Result<Node*> MaterializeInto(Navigable* nav, Document* doc) {
  MIX_CHECK(nav != nullptr && doc != nullptr);
  // One vectored fetch for the whole answer: the batch cascades through
  // every mediation layer instead of a d/r/f round per node.
  std::vector<SubtreeEntry> entries;
  nav->FetchSubtree(nav->Root(), -1, &entries);
  Node* root = BuildFromSubtreeEntries(entries, doc);
  if (root == nullptr) {
    return Status::Unavailable(
        "full-depth fetch returned an empty, truncated or malformed "
        "snapshot");
  }
  return root;
}

Node* MaterializeIntoNodeAtATime(Navigable* nav, Document* doc) {
  return MaterializePrefixInto(nav, doc, -1);
}

Result<std::unique_ptr<Document>> Materialize(Navigable* nav) {
  auto doc = std::make_unique<Document>();
  Result<Node*> root = MaterializeInto(nav, doc.get());
  if (!root.ok()) return root.status();
  doc->set_root(root.value());
  return doc;
}

Node* MaterializePrefixInto(Navigable* nav, Document* doc, int64_t max_nodes) {
  MIX_CHECK(nav != nullptr && doc != nullptr);
  Budget budget{max_nodes, max_nodes < 0};
  budget.Take();  // the root itself
  return Copy(nav, nav->Root(), doc, &budget);
}

}  // namespace mix::xml
