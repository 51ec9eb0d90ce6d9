// Shared helpers for the MIX test suite.
#ifndef MIX_TESTS_TEST_UTIL_H_
#define MIX_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>

#include "algebra/bindings_navigable.h"
#include "core/check.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/parser.h"
#include "xml/tree.h"

namespace mix::testing {

/// Parses the paper's term notation (e.g. "homes[home[zip[91220]]]") or
/// aborts — for quoting paper examples verbatim in tests.
inline std::unique_ptr<xml::Document> Doc(const std::string& term) {
  auto result = xml::ParseTerm(term);
  MIX_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).ValueOrDie();
}

/// Fully explores a navigable and renders the tree as a term string. A
/// failed export renders as its typed status ("Unavailable: ..."), which
/// never equals a term, so a comparison fails instead of the test aborting.
inline std::string MaterializeToTerm(Navigable* nav) {
  auto doc = xml::Materialize(nav);
  if (!doc.ok()) return doc.status().ToString();
  return xml::ToTerm(doc.value()->root());
}

/// Fully explores a binding stream's bs-tree and renders it as a term.
inline std::string StreamToTerm(algebra::BindingStream* stream) {
  algebra::BindingsNavigable nav(stream);
  return MaterializeToTerm(&nav);
}

/// An explicit in-memory binding stream. Lets tests reproduce the paper's
/// worked examples exactly — including *shared node identities* across
/// bindings (footnote 7), which grouping depends on.
class VectorBindingStream : public algebra::BindingStream {
 public:
  VectorBindingStream(algebra::VarList schema,
                      std::vector<std::vector<algebra::ValueRef>> rows)
      : schema_(std::move(schema)),
        rows_(std::move(rows)),
        instance_(algebra::NextOperatorInstance()) {
    for (const auto& row : rows_) {
      MIX_CHECK(row.size() == schema_.size());
    }
  }

  const algebra::VarList& schema() const override { return schema_; }

  std::optional<NodeId> FirstBinding() override {
    if (rows_.empty()) return std::nullopt;
    return NodeId("vb", {instance_, int64_t{0}});
  }

  std::optional<NodeId> NextBinding(const NodeId& b) override {
    int64_t next = b.IntAt(1) + 1;
    if (next >= static_cast<int64_t>(rows_.size())) return std::nullopt;
    return NodeId("vb", {instance_, next});
  }

  algebra::ValueRef Attr(const NodeId& b, const std::string& var) override {
    MIX_CHECK(b.valid() && b.tag() == "vb" && b.IntAt(0) == instance_);
    const auto& row = rows_[static_cast<size_t>(b.IntAt(1))];
    for (size_t i = 0; i < schema_.size(); ++i) {
      if (schema_[i] == var) return row[i];
    }
    MIX_CHECK_MSG(false, ("unknown variable: " + var).c_str());
    return {};
  }

 private:
  algebra::VarList schema_;
  std::vector<std::vector<algebra::ValueRef>> rows_;
  int64_t instance_;
};

/// Finds the node with the given term rendering among `doc`'s nodes and
/// returns a ValueRef into `nav` — convenience for building
/// VectorBindingStream rows from fixture documents.
inline algebra::ValueRef RefTo(xml::DocNavigable* nav, const xml::Node* node) {
  // DocNavigable ids are (instance, arena index); rebuild via navigation
  // is unnecessary — mint through the public API by walking from the root.
  // Simpler: DocNavigable::Resolve is the inverse; we reconstruct the id by
  // walking down/right from the root following the node's path.
  std::vector<int> path;
  for (const xml::Node* n = node; n->parent != nullptr; n = n->parent) {
    path.push_back(n->pos_in_parent);
  }
  NodeId id = nav->Root();
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    auto child = nav->Down(id);
    MIX_CHECK(child.has_value());
    id = *child;
    for (int i = 0; i < *it; ++i) {
      auto sibling = nav->Right(id);
      MIX_CHECK(sibling.has_value());
      id = *sibling;
    }
  }
  return algebra::ValueRef{nav, id};
}

}  // namespace mix::testing

#endif  // MIX_TESTS_TEST_UTIL_H_
