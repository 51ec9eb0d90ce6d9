#include "script.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "xml/tree.h"

namespace navbench {

using mix::NodeId;
using mix::xml::Node;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

const char* OpName(Op op) {
  switch (op) {
    case Op::kDown: return "d";
    case Op::kRight: return "r";
    case Op::kFetch: return "f";
    case Op::kNth: return "nth";
    case Op::kDownAll: return "down_all";
    case Op::kNextSiblings: return "next_siblings";
    case Op::kUp: return "up";
    case Op::kSubtreeOfChild: return "subtree";
    case Op::kWalkToEnd: return "walk";
    case Op::kFullAnswer: return "full_answer";
  }
  return "?";
}

/// A client-held node and the reference node at the same child-index path.
struct Cursor {
  NodeId id;
  const Node* ref;
};

class Runner {
 public:
  Runner(mix::Navigable* doc, const PoolQuery& reference,
         const StatusProbe& probe, const CommandSink& sink,
         ScriptResult* result)
      : doc_(doc),
        reference_(reference),
        probe_(probe),
        sink_(sink),
        result_(result) {}

  void Run(const std::vector<Step>& steps) {
    NodeId root;
    if (!Cmd([&] { root = doc_->Root(); })) return;
    if (!root.valid()) {
      Mismatch("root", "invalid root id");
      return;
    }
    std::string label;
    if (!Cmd([&] { label = doc_->Fetch(root); })) return;
    result_->first_node_ns = NowNs();
    if (!SameLabel(label, reference_.answer, "f(root)")) return;
    stack_.push_back({root, reference_.answer});
    for (size_t i = 0; i < steps.size(); ++i) {
      step_ = i;
      if (!Execute(steps[i])) return;
    }
  }

 private:
  /// Issues one timed navigation command; false on a typed error.
  template <typename F>
  bool Cmd(F&& command) {
    int64_t t0 = NowNs();
    command();
    int64_t dt = NowNs() - t0;
    ++result_->commands;
    if (sink_.latency_ns != nullptr) sink_.latency_ns->push_back(dt);
    if (sink_.total_ns != nullptr) *sink_.total_ns += dt;
    if (probe_) {
      mix::Status s = probe_();
      if (!s.ok()) {
        result_->ok = false;
        result_->error = s.ToString();
        return false;
      }
    }
    return true;
  }

  bool Mismatch(const std::string& what, const std::string& detail) {
    result_->mismatch = "step " + std::to_string(step_) + " " + what + ": " +
                        detail;
    return false;
  }

  void Note(const std::string& s) {
    if (sink_.transcript != nullptr) {
      *sink_.transcript += s;
      *sink_.transcript += '\n';
    }
  }

  bool SameLabel(const std::string& got, const Node* want,
                 const char* what) {
    Note(got);
    if (got == want->label) return true;
    return Mismatch(what, "label '" + got + "', reference '" + want->label +
                              "'");
  }

  bool SamePresence(bool got, const Node* want, const char* what) {
    Note(got ? "1" : "0");
    if (got == (want != nullptr)) return true;
    return Mismatch(what, got ? "node where the reference has none"
                              : "no node where the reference has one");
  }

  bool SameCount(size_t got, size_t want, const char* what) {
    Note(std::to_string(got));
    if (got == want) return true;
    return Mismatch(what, std::to_string(got) + " nodes, reference " +
                              std::to_string(want));
  }

  /// Compares an export with the reference subtree; the rendered term is
  /// built only for a transcript or to describe a mismatch.
  bool SameExport(const std::vector<mix::SubtreeEntry>& entries,
                  const Node* want, const char* what) {
    const bool same = ExportMatches(entries, want);
    if (sink_.transcript != nullptr) Note(EntriesToTerm(entries));
    if (same) return true;
    return Mismatch(what, "term differs from the reference (" +
                              std::to_string(EntriesToTerm(entries).size()) +
                              " vs " +
                              std::to_string(mix::xml::ToTerm(want).size()) +
                              " bytes)");
  }

  bool Execute(const Step& step) {
    Cursor& top = stack_.back();
    const Node* ref = top.ref;
    const size_t children = ref->children.size();
    const char* what = OpName(step.op);
    switch (step.op) {
      case Op::kDown: {
        std::optional<NodeId> r;
        if (!Cmd([&] { r = doc_->Down(top.id); })) return false;
        const Node* want = ref->first_child();
        if (!SamePresence(r.has_value(), want, what)) return false;
        if (r) stack_.push_back({*r, want});
        return true;
      }
      case Op::kRight: {
        std::optional<NodeId> r;
        if (!Cmd([&] { r = doc_->Right(top.id); })) return false;
        const Node* want = ref->parent == nullptr ? nullptr
                                                  : ref->right_sibling();
        if (!SamePresence(r.has_value(), want, what)) return false;
        if (r) {
          top = {*r, want};
        } else if (stack_.size() > 1) {
          stack_.pop_back();
        }
        return true;
      }
      case Op::kFetch: {
        std::string label;
        if (!Cmd([&] { label = doc_->Fetch(top.id); })) return false;
        return SameLabel(label, ref, what);
      }
      case Op::kNth: {
        const size_t k = step.arg % (children + 1);
        std::optional<NodeId> r;
        if (!Cmd([&] {
              r = doc_->NthChild(top.id, static_cast<int64_t>(k));
            })) {
          return false;
        }
        const Node* want = k < children ? ref->children[k] : nullptr;
        if (!SamePresence(r.has_value(), want, what)) return false;
        if (r) stack_.push_back({*r, want});
        return true;
      }
      case Op::kDownAll: {
        std::vector<NodeId> out;
        if (!Cmd([&] { doc_->DownAll(top.id, &out); })) return false;
        if (!SameCount(out.size(), children, what)) return false;
        if (children > 0) {
          const size_t k = step.arg % children;
          stack_.push_back({out[k], ref->children[k]});
        }
        return true;
      }
      case Op::kNextSiblings: {
        const int64_t limit = 1 + static_cast<int64_t>(step.arg % 4);
        std::vector<NodeId> out;
        if (!Cmd([&] { doc_->NextSiblings(top.id, limit, &out); })) {
          return false;
        }
        const Node* parent = ref->parent;
        const size_t after =
            parent == nullptr
                ? 0
                : parent->children.size() - 1 -
                      static_cast<size_t>(ref->pos_in_parent);
        const size_t want = std::min(static_cast<size_t>(limit), after);
        if (!SameCount(out.size(), want, what)) return false;
        if (want > 0) {
          top = {out.back(),
                 parent->children[static_cast<size_t>(ref->pos_in_parent) +
                                  want]};
        }
        return true;
      }
      case Op::kUp:
        if (stack_.size() > 1) stack_.pop_back();
        return true;
      case Op::kSubtreeOfChild: {
        const Cursor root = stack_.front();
        const size_t items = root.ref->children.size();
        if (items == 0) return true;
        const size_t k = step.arg % items;
        std::optional<NodeId> item;
        if (!Cmd([&] {
              item = doc_->NthChild(root.id, static_cast<int64_t>(k));
            })) {
          return false;
        }
        if (!SamePresence(item.has_value(), root.ref->children[k], what)) {
          return false;
        }
        std::vector<mix::SubtreeEntry> entries;
        if (!Cmd([&] { doc_->FetchSubtree(*item, -1, &entries); })) {
          return false;
        }
        return SameExport(entries, root.ref->children[k], what);
      }
      case Op::kWalkToEnd: {
        const Cursor root = stack_.front();
        std::optional<NodeId> cur;
        if (!Cmd([&] { cur = doc_->Down(root.id); })) return false;
        const Node* want = root.ref->first_child();
        if (!SamePresence(cur.has_value(), want, what)) return false;
        while (cur) {
          std::string label;
          if (!Cmd([&] { label = doc_->Fetch(*cur); })) return false;
          if (!SameLabel(label, want, what)) return false;
          const NodeId at = *cur;
          if (!Cmd([&] { cur = doc_->Right(at); })) return false;
          want = want->right_sibling();
          if (!SamePresence(cur.has_value(), want, what)) return false;
        }
        return true;
      }
      case Op::kFullAnswer: {
        std::vector<mix::SubtreeEntry> entries;
        if (!Cmd([&] {
              doc_->FetchSubtree(stack_.front().id, -1, &entries);
            })) {
          return false;
        }
        return SameExport(entries, reference_.answer, what);
      }
    }
    return true;
  }

  mix::Navigable* doc_;
  const PoolQuery& reference_;
  const StatusProbe& probe_;
  const CommandSink& sink_;
  ScriptResult* result_;
  std::vector<Cursor> stack_;
  size_t step_ = 0;
};

}  // namespace

ScriptResult RunScript(mix::Navigable* doc, const std::vector<Step>& steps,
                       const PoolQuery& reference, const StatusProbe& probe,
                       const CommandSink& sink) {
  ScriptResult result;
  Runner(doc, reference, probe, sink, &result).Run(steps);
  return result;
}

ScriptResult RunClientSession(
    mix::Result<std::unique_ptr<mix::client::FramedDocument>> opened,
    const std::vector<Step>& steps, const PoolQuery& reference,
    const CommandSink& sink) {
  if (!opened.ok()) {
    ScriptResult failed;
    failed.ok = false;
    failed.error = opened.status().ToString();
    return failed;
  }
  mix::client::FramedDocument* doc = opened.value().get();
  ScriptResult result = RunScript(
      doc, steps, reference,
      [doc] {
        mix::Status s = doc->last_status();
        doc->clear_last_status();
        return s;
      },
      sink);
  mix::Status closed = doc->Close();
  if (result.ok && !closed.ok()) {
    result.ok = false;
    result.error = closed.ToString();
  }
  return result;
}

}  // namespace navbench
