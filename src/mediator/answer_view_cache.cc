#include "mediator/answer_view_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>

#include "core/check.h"

namespace mix::mediator {

namespace {

using Kind = PlanNode::Kind;
using Op = algebra::CompareOp;

/// Label the buffer splices in for holes that exhausted their retries
/// (buffer.h); answers containing it are partial and must not be shared.
const Atom kUnavailableLabel = Atom::Intern("#unavailable");

void CollectSources(const PlanNode& n, std::vector<std::string>* out) {
  if (n.kind == Kind::kSource) out->push_back(n.source_name);
  for (const PlanPtr& c : n.children) CollectSources(*c, out);
}

/// The node binding `var` in a binding-stream subtree, or nullptr.
const PlanNode* FindProducer(const PlanNode& n, const std::string& var) {
  switch (n.kind) {
    case Kind::kSource:
    case Kind::kCachedView:
      if (n.var == var) return &n;
      break;
    case Kind::kGetDescendants:
    case Kind::kGroupBy:
    case Kind::kConcatenate:
    case Kind::kCreateElement:
    case Kind::kWrapList:
    case Kind::kConst:
    case Kind::kRename:
      if (n.out_var == var) return &n;
      break;
    default:
      break;
  }
  for (const PlanPtr& c : n.children) {
    if (const PlanNode* p = FindProducer(*c, var)) return p;
  }
  return nullptr;
}

bool Contains(const algebra::VarList& vars, const std::string& v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

/// Same full-literal numeric parse as algebra::CompareAtoms.
bool ParseNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

/// (v oi a) ⇒ (v oc b) given cmp = sign(compare(a, b)), for one fixed
/// total order.
bool ImpliesWithOrder(Op oi, Op oc, int cmp) {
  switch (oc) {
    case Op::kEq:
      return oi == Op::kEq && cmp == 0;
    case Op::kNe:
      switch (oi) {
        case Op::kEq:
          return cmp != 0;
        case Op::kNe:
          return cmp == 0;
        case Op::kLt:  // v < a and a <= b  ⇒  v < b  ⇒  v != b
          return cmp <= 0;
        case Op::kLe:
          return cmp < 0;
        case Op::kGt:
          return cmp >= 0;
        case Op::kGe:
          return cmp > 0;
      }
      return false;
    case Op::kLt:
      return (oi == Op::kLt && cmp <= 0) || (oi == Op::kLe && cmp < 0) ||
             (oi == Op::kEq && cmp < 0);
    case Op::kLe:
      return (oi == Op::kLt || oi == Op::kLe || oi == Op::kEq) && cmp <= 0;
    case Op::kGt:
      return (oi == Op::kGt && cmp >= 0) || (oi == Op::kGe && cmp > 0) ||
             (oi == Op::kEq && cmp > 0);
    case Op::kGe:
      return (oi == Op::kGt || oi == Op::kGe || oi == Op::kEq) && cmp >= 0;
  }
  return false;
}

std::vector<ViewPredicate> SortedPreds(std::vector<ViewPredicate> preds) {
  std::sort(preds.begin(), preds.end(),
            [](const ViewPredicate& a, const ViewPredicate& b) {
              if (a.var != b.var) return a.var < b.var;
              if (a.op != b.op) return a.op < b.op;
              return a.constant < b.constant;
            });
  return preds;
}

bool SamePredSet(const std::vector<ViewPredicate>& a,
                 const std::vector<ViewPredicate>& b) {
  return SortedPreds(a) == SortedPreds(b);
}

/// Every cached conjunct implied by some incoming conjunct (Pi ⇒ Pc).
bool AllImplied(const std::vector<ViewPredicate>& cached,
                const std::vector<ViewPredicate>& incoming) {
  for (const ViewPredicate& want : cached) {
    bool ok = false;
    for (const ViewPredicate& have : incoming) {
      if (PredicateImplies(have, want)) {
        ok = true;
        break;
      }
    }
    if (!ok) return false;
  }
  return true;
}

/// Serving plan for an exact match: replay the snapshot document.
PlanPtr BuildDocServingPlan(const ViewShape& shape) {
  std::string var = shape.create_out.empty() ? "view" : shape.create_out;
  return PlanNode::TupleDestroy(
      PlanNode::CachedView(kAnswerViewSourceName, var, /*children=*/false),
      var);
}

/// Serving plan for a predicate-subsumed match: re-filter the snapshot
/// root's children with the FULL incoming select chain, then rebuild the
/// crown with the incoming plan's own variable names.
PlanPtr BuildChildrenServingPlan(const ViewShape& shape) {
  PlanPtr inner = PlanNode::CachedView(kAnswerViewSourceName,
                                       shape.grouped_var, /*children=*/true);
  for (auto it = shape.preds.rbegin(); it != shape.preds.rend(); ++it) {
    inner = PlanNode::Select(std::move(inner),
                             algebra::BindingPredicate::VarConst(
                                 it->var, it->op, it->constant));
  }
  inner = PlanNode::GroupBy(std::move(inner), {}, shape.grouped_var,
                            shape.group_out);
  inner = PlanNode::CreateElement(std::move(inner), /*label_is_constant=*/true,
                                  shape.root_label, shape.group_out,
                                  shape.create_out);
  return PlanNode::TupleDestroy(std::move(inner), shape.create_out);
}

const Atom kFlatViewTag = Atom::Intern("fv");

int64_t NextTreeInstance() {
  static std::atomic<int64_t> counter{1};
  return counter.fetch_add(1);
}

}  // namespace

FlatAnswerTree::FlatAnswerTree() : instance_(NextTreeInstance()) {}

std::unique_ptr<FlatAnswerTree> FlatAnswerTree::Build(
    const std::vector<SubtreeEntry>& entries) {
  if (entries.empty() ||
      entries.size() >
          static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return nullptr;
  }
  std::unique_ptr<FlatAnswerTree> tree(new FlatAnswerTree());
  // Exact reservations: the charge is the arrays' capacity, which then
  // equals what the tree holds.
  tree->labels_.reserve(entries.size());
  tree->ends_.reserve(entries.size());
  // open[d] is the index of the open node at depth d; an entry at depth d
  // closes every open node at depth >= d.
  std::vector<int32_t> open;
  for (size_t i = 0; i < entries.size(); ++i) {
    const SubtreeEntry& e = entries[i];
    if (e.truncated) return nullptr;
    if (i == 0 ? e.depth != 0
               : (e.depth < 1 || static_cast<size_t>(e.depth) > open.size())) {
      return nullptr;
    }
    const int32_t index = static_cast<int32_t>(i);
    while (open.size() > static_cast<size_t>(e.depth)) {
      tree->ends_[static_cast<size_t>(open.back())] = index;
      open.pop_back();
    }
    tree->labels_.push_back(e.label);
    tree->ends_.push_back(0);
    tree->label_bytes_ += static_cast<int64_t>(e.label.name().size());
    open.push_back(index);
  }
  const int32_t n = static_cast<int32_t>(entries.size());
  for (int32_t index : open) tree->ends_[static_cast<size_t>(index)] = n;
  return tree;
}

NodeId FlatAnswerTree::MakeId(int32_t index, int32_t limit) const {
  return NodeId(kFlatViewTag, instance_, int64_t{index}, int64_t{limit});
}

FlatAnswerTree::Pos FlatAnswerTree::Resolve(const NodeId& p) const {
  MIX_CHECK_MSG(p.valid() && p.tag_atom() == kFlatViewTag &&
                    p.arity() == 3 && p.IntAt(0) == instance_,
                "foreign node-id passed to FlatAnswerTree");
  const int64_t index = p.IntAt(1);
  const int64_t limit = p.IntAt(2);
  MIX_CHECK_MSG(index >= 0 && index < limit && limit <= node_count() &&
                    ends_[static_cast<size_t>(index)] <= limit,
                "malformed FlatAnswerTree node-id");
  return Pos{static_cast<int32_t>(index), static_cast<int32_t>(limit)};
}

FlatAnswerTree::Pos FlatAnswerTree::FirstChild(int32_t i) const {
  const int32_t end = ends_[static_cast<size_t>(i)];
  return end > i + 1 ? Pos{i + 1, end} : Pos{-1, end};
}

NodeId FlatAnswerTree::Root() {
  return MakeId(0, static_cast<int32_t>(node_count()));
}

std::optional<NodeId> FlatAnswerTree::Down(const NodeId& p) {
  Pos c = FirstChild(Resolve(p).index);
  if (c.index < 0) return std::nullopt;
  return MakeId(c.index, c.limit);
}

std::optional<NodeId> FlatAnswerTree::Right(const NodeId& p) {
  Pos s = Resolve(p);
  const int32_t next = ends_[static_cast<size_t>(s.index)];
  if (next >= s.limit) return std::nullopt;
  return MakeId(next, s.limit);
}

Label FlatAnswerTree::Fetch(const NodeId& p) {
  return labels_[static_cast<size_t>(Resolve(p).index)].name();
}

Atom FlatAnswerTree::FetchAtom(const NodeId& p) {
  return labels_[static_cast<size_t>(Resolve(p).index)];
}

std::optional<NodeId> FlatAnswerTree::SelectSibling(
    const NodeId& p, const LabelPredicate& pred) {
  Pos s = Resolve(p);
  for (int32_t j = ends_[static_cast<size_t>(s.index)]; j < s.limit;
       j = ends_[static_cast<size_t>(j)]) {
    const Atom label = labels_[static_cast<size_t>(j)];
    if (pred.is_equality() ? label == pred.equals_atom()
                           : pred.Matches(label.name())) {
      return MakeId(j, s.limit);
    }
  }
  return std::nullopt;
}

std::optional<NodeId> FlatAnswerTree::NthChild(const NodeId& p,
                                               int64_t index) {
  Pos c = FirstChild(Resolve(p).index);
  if (index < 0 || c.index < 0) return std::nullopt;
  for (int64_t k = 0; k < index; ++k) {
    c.index = ends_[static_cast<size_t>(c.index)];
    if (c.index >= c.limit) return std::nullopt;
  }
  return MakeId(c.index, c.limit);
}

void FlatAnswerTree::DownAll(const NodeId& p, std::vector<NodeId>* out) {
  Pos c = FirstChild(Resolve(p).index);
  if (c.index < 0) return;
  for (int32_t j = c.index; j < c.limit; j = ends_[static_cast<size_t>(j)]) {
    out->push_back(MakeId(j, c.limit));
  }
}

void FlatAnswerTree::NextSiblings(const NodeId& p, int64_t limit,
                                  std::vector<NodeId>* out) {
  Pos s = Resolve(p);
  for (int32_t j = ends_[static_cast<size_t>(s.index)];
       j < s.limit && limit != 0; j = ends_[static_cast<size_t>(j)]) {
    out->push_back(MakeId(j, s.limit));
    if (limit > 0) --limit;
  }
}

void FlatAnswerTree::FetchSubtree(const NodeId& p, int64_t depth,
                                  std::vector<SubtreeEntry>* out) {
  // A slice of the pre-order array. The depth of each node relative to
  // `p` is the number of its still-open ancestors inside the slice, whose
  // subtree ends `open` holds innermost last; the innermost one is also
  // the parent end a truncated entry's resume id needs.
  const Pos s = Resolve(p);
  const int32_t stop = ends_[static_cast<size_t>(s.index)];
  if (depth < 0) out->reserve(out->size() + static_cast<size_t>(stop - s.index));
  std::vector<int32_t> open;
  for (int32_t k = s.index; k < stop;) {
    while (!open.empty() && open.back() <= k) open.pop_back();
    const int32_t end = ends_[static_cast<size_t>(k)];
    const bool cut = depth >= 0 && static_cast<int64_t>(open.size()) >= depth &&
                     end > k + 1;
    out->push_back(SubtreeEntry{
        labels_[static_cast<size_t>(k)], static_cast<int32_t>(open.size()),
        cut, cut ? MakeId(k, open.empty() ? s.limit : open.back())
                 : NodeId()});
    if (cut) {
      k = end;
      continue;
    }
    if (end > k + 1) open.push_back(end);
    ++k;
  }
}

int64_t SnapshotCharge(const FlatAnswerTree& tree) {
  return static_cast<int64_t>(tree.labels().capacity() * sizeof(Atom) +
                              tree.subtree_ends().capacity() *
                                  sizeof(int32_t)) +
         tree.label_bytes() + kSnapshotFixedBytes;
}

bool PredicateImplies(const ViewPredicate& have, const ViewPredicate& want) {
  if (have.var != want.var) return false;
  double na = 0;
  double nb = 0;
  bool have_num = ParseNumber(have.constant, &na);
  bool want_num = ParseNumber(want.constant, &nb);
  // Mixed numeric-ness: a value that parses as a number compares
  // numerically against one constant and lexicographically against the
  // other — no single order covers both, so claim nothing.
  if (have_num != want_num) return false;
  int raw = have.constant.compare(want.constant);
  int lex = raw < 0 ? -1 : (raw > 0 ? 1 : 0);
  if (!have_num) return ImpliesWithOrder(have.op, want.op, lex);
  int num = na < nb ? -1 : (na > nb ? 1 : 0);
  // Numeric values see the numeric order, non-numeric values the
  // lexicographic one; implication must hold under both.
  return ImpliesWithOrder(have.op, want.op, num) &&
         ImpliesWithOrder(have.op, want.op, lex);
}

ViewShape ComputeViewShape(const PlanNode& raw_plan) {
  ViewShape shape;
  if (raw_plan.kind != Kind::kTupleDestroy || raw_plan.children.size() != 1) {
    return shape;
  }
  CollectSources(raw_plan, &shape.sources);
  std::sort(shape.sources.begin(), shape.sources.end());
  shape.sources.erase(
      std::unique(shape.sources.begin(), shape.sources.end()),
      shape.sources.end());

  PlanPtr work = raw_plan.Clone();
  // Strip a transparent project under tupleDestroy: it only narrows the
  // binding schema, and tupleDestroy reads a single variable.
  while (work->children[0]->kind == Kind::kProject) {
    PlanNode* proj = work->children[0].get();
    std::string destroyed = work->var;
    if (destroyed.empty()) {
      if (proj->vars.size() != 1) break;
      destroyed = proj->vars[0];
    }
    if (!Contains(proj->vars, destroyed)) break;
    PlanPtr inner = std::move(proj->children[0]);
    work->children[0] = std::move(inner);
    work->var = destroyed;
  }

  PlanNode* ce = work->children[0].get();
  if (ce->kind == Kind::kCreateElement && ce->label_is_constant &&
      ce->children.size() == 1) {
    PlanNode* gb = ce->children[0].get();
    if (gb->kind == Kind::kGroupBy && gb->vars.empty() &&
        ce->x_var == gb->out_var &&
        (work->var.empty() || work->var == ce->out_var)) {
      // Re-grouping is only sound when the grouped values cannot be list
      // nodes (createElement flattens lists, so a second grouping pass
      // would flatten one level deeper). Accept only plain tree
      // producers; anything else stays exact-match-only.
      const PlanNode* producer =
          FindProducer(*gb->children[0], gb->grouped_var);
      if (producer != nullptr && (producer->kind == Kind::kSource ||
                                  producer->kind == Kind::kGetDescendants ||
                                  producer->kind == Kind::kCreateElement ||
                                  producer->kind == Kind::kConst)) {
        shape.factored = true;
        shape.root_label = ce->label;
        shape.create_out = ce->out_var;
        shape.group_out = gb->out_var;
        shape.grouped_var = gb->grouped_var;
        // Strip the chain of var-constant selects on the grouped var.
        PlanPtr* cur = &gb->children[0];
        while ((*cur)->kind == Kind::kSelect) {
          const algebra::BindingPredicate& p = *(*cur)->predicate;
          if (p.is_var_var() || p.left_var() != gb->grouped_var) break;
          shape.preds.push_back({p.left_var(), p.op(), p.constant()});
          PlanPtr inner = std::move((*cur)->children[0]);
          *cur = std::move(inner);
        }
      }
    }
  }

  shape.base_key = work->ToString();
  shape.valid = true;
  return shape;
}

AnswerViewCache::Match AnswerViewCache::TryMatch(const ViewShape& shape) {
  Match m;
  if (!enabled()) return m;
  std::lock_guard<std::mutex> lock(mu_);
  if (!shape.valid) {
    ++misses_;
    ++rejects_["shape"];
    return m;
  }
  auto range = index_.equal_range(shape.base_key);
  if (range.first == range.second) {
    ++misses_;
    ++rejects_["absent"];
    return m;
  }
  bool saw_pred_mismatch = false;
  for (auto it = range.first; it != range.second; ++it) {
    LruList::iterator entry = it->second;
    const AnswerSnapshot& snap = **entry;
    if (!GenerationsCurrentLocked(snap)) continue;
    if (SamePredSet(snap.shape.preds, shape.preds)) {
      m.snapshot = *entry;
      m.plan = BuildDocServingPlan(shape);
    } else if (shape.factored && snap.shape.factored &&
               AllImplied(snap.shape.preds, shape.preds)) {
      m.snapshot = *entry;
      m.plan = BuildChildrenServingPlan(shape);
    } else {
      saw_pred_mismatch = true;
      continue;
    }
    lru_.splice(lru_.begin(), lru_, entry);
    ++hits_;
    return m;
  }
  ++misses_;
  ++rejects_[saw_pred_mismatch ? "predicate" : "stale"];
  return m;
}

void AnswerViewCache::Publish(
    const ViewShape& shape, const std::vector<SubtreeEntry>& entries,
    const std::map<std::string, int64_t>& pinned_generations) {
  if (!enabled()) return;
  auto reject = [this](const char* reason) {
    std::lock_guard<std::mutex> lock(mu_);
    ++rejects_[reason];
  };
  if (!shape.valid) return reject("shape");
  for (const SubtreeEntry& e : entries) {
    if (e.truncated) return reject("truncated");
    if (e.label == kUnavailableLabel) return reject("degraded");
  }
  if (shape.factored && !entries.empty() &&
      entries[0].label.name() != shape.root_label) {
    return reject("shape");
  }

  // Build the snapshot outside the lock; a losing duplicate is dropped.
  auto snap = std::make_shared<AnswerSnapshot>();
  snap->tree = FlatAnswerTree::Build(entries);
  if (snap->tree == nullptr) return reject("malformed");
  const int64_t bytes = SnapshotCharge(*snap->tree);
  if (bytes > options_.byte_budget) return reject("budget");
  snap->bytes = bytes;
  snap->shape = shape;
  snap->generations = pinned_generations;

  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& src : shape.sources) {
    auto pinned = pinned_generations.find(src);
    auto current = generations_.find(src);
    int64_t cur = current == generations_.end() ? 0 : current->second;
    if (pinned == pinned_generations.end() || pinned->second != cur) {
      ++rejects_["stale"];
      return;
    }
  }
  auto range = index_.equal_range(shape.base_key);
  for (auto it = range.first; it != range.second; ++it) {
    if (SamePredSet((**it->second).shape.preds, shape.preds)) {
      ++rejects_["duplicate"];
      return;
    }
  }
  while (bytes_ + bytes > options_.byte_budget && !lru_.empty()) {
    DropLocked(std::prev(lru_.end()));
    ++evictions_;
  }
  lru_.push_front(std::move(snap));
  index_.emplace(shape.base_key, lru_.begin());
  bytes_ += bytes;
  ++publishes_;
}

std::map<std::string, int64_t> AnswerViewCache::PinGenerations(
    const std::vector<std::string>& sources) const {
  std::map<std::string, int64_t> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& src : sources) {
    auto it = generations_.find(src);
    out[src] = it == generations_.end() ? 0 : it->second;
  }
  return out;
}

void AnswerViewCache::InvalidateSource(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  ++generations_[source];
  ++invalidations_;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    const std::vector<std::string>& deps = (**it).shape.sources;
    if (std::find(deps.begin(), deps.end(), source) != deps.end()) {
      DropLocked(it);
    }
    it = next;
  }
}

AnswerViewCache::Stats AnswerViewCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.publishes = publishes_;
  s.evictions = evictions_;
  s.invalidations = invalidations_;
  s.bytes = bytes_;
  s.entries = static_cast<int64_t>(lru_.size());
  s.rejects = rejects_;
  return s;
}

bool AnswerViewCache::GenerationsCurrentLocked(
    const AnswerSnapshot& snap) const {
  for (const auto& [src, gen] : snap.generations) {
    auto it = generations_.find(src);
    int64_t cur = it == generations_.end() ? 0 : it->second;
    if (cur != gen) return false;
  }
  return true;
}

void AnswerViewCache::DropLocked(LruList::iterator it) {
  auto range = index_.equal_range((**it).shape.base_key);
  for (auto idx = range.first; idx != range.second; ++idx) {
    if (idx->second == it) {
      index_.erase(idx);
      break;
    }
  }
  bytes_ -= (**it).bytes;
  lru_.erase(it);
}

}  // namespace mix::mediator
