// Materialization: fully exploring a Navigable into a memory-resident tree.
//
// This is both a test oracle (a lazily navigated virtual answer must
// materialize to the same tree as the reference evaluation) and the "current
// mediator systems" baseline of Section 1, which computes and returns the
// result of the user query completely.
#ifndef MIX_XML_MATERIALIZE_H_
#define MIX_XML_MATERIALIZE_H_

#include <memory>

#include "core/navigable.h"
#include "core/status.h"
#include "xml/tree.h"

namespace mix::xml {

/// Fully explores `nav` from its root and copies the tree into `doc`,
/// returning the copied root. Leaves become text nodes (the abstraction
/// cannot distinguish empty elements from character data). Uses ONE
/// vectored FetchSubtree — the request cascades through the layered
/// mediators as batch calls instead of d/r/f per node. A fetch that fails
/// (empty, truncated or malformed snapshot — e.g. a remote session whose
/// command hit a fault or a deadline) returns kUnavailable; a navigable
/// with a status latch (client::FramedDocument::last_status) holds the
/// precise cause.
Result<Node*> MaterializeInto(Navigable* nav, Document* doc);

/// The node-at-a-time baseline: the same exploration driven by d/r/f per
/// node. Kept callable for the batched-vs-baseline benchmarks and the
/// byte-identical property tests.
Node* MaterializeIntoNodeAtATime(Navigable* nav, Document* doc);

/// Convenience: materializes into a fresh document.
Result<std::unique_ptr<Document>> Materialize(Navigable* nav);

/// Materializes only `max_nodes` nodes (depth-first prefix); used by
/// benchmarks that model a user who stops after browsing a few results.
/// A negative limit means no limit.
Node* MaterializePrefixInto(Navigable* nav, Document* doc, int64_t max_nodes);

/// Rebuilds a tree from a full-depth pre-order FetchSubtree export without
/// trusting it: returns nullptr (instead of aborting) when the export is
/// empty, contains truncated entries, or its depth sequence is not a valid
/// pre-order (first entry at depth 0, each later entry at most one level
/// deeper than its predecessor). The answer-view cache publishes snapshots
/// through this so hostile/partial exports are rejected, not fatal.
Node* BuildFromSubtreeEntries(const std::vector<SubtreeEntry>& entries,
                              Document* doc);

}  // namespace mix::xml

#endif  // MIX_XML_MATERIALIZE_H_
