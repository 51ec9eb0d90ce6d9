#include "algebra/group_by_op.h"

#include <algorithm>
#include <unordered_map>

namespace mix::algebra {

namespace {
/// Sentinel handle for the empty list of a no-group-vars groupBy over empty
/// input.
constexpr int64_t kEmptyGroupHandle = -1;
/// Handle of the one group of a no-group-vars groupBy, before its list has
/// been navigated (ListHandle resolves it).
constexpr int64_t kSoleGroupHandle = -2;

const Atom kGbBTag = Atom::Intern("gb_b");
const Atom kGbListTag = Atom::Intern("gb_list");
const Atom kGbItemTag = Atom::Intern("gb_item");
const Atom kGbListLabel = Atom::Intern(kListLabel);
}  // namespace

GroupByOp::GroupByOp(BindingStream* input, VarList group_vars,
                     std::string grouped_var, std::string out_var,
                     Options options)
    : input_(input),
      group_vars_(std::move(group_vars)),
      grouped_var_(std::move(grouped_var)),
      out_var_(std::move(out_var)),
      options_(options) {
  MIX_CHECK(input_ != nullptr);
  const VarList& in = input_->schema();
  for (const std::string& v : group_vars_) {
    MIX_CHECK_MSG(std::find(in.begin(), in.end(), v) != in.end(),
                  "group-by variable not bound by input");
    schema_.push_back(v);
  }
  MIX_CHECK_MSG(std::find(in.begin(), in.end(), grouped_var_) != in.end(),
                "grouped variable not bound by input");
  MIX_CHECK_MSG(std::find(schema_.begin(), schema_.end(), out_var_) ==
                    schema_.end(),
                "groupBy output variable collides with a group-by variable");
  schema_.push_back(out_var_);
  // cache_input=false is the cache-less ablation; it must stay cache-less,
  // so the navigation memo follows the same switch.
  if (options_.cache_input) EnableNavMemo();
}

GroupByOp::Key GroupByOp::KeyOf(const NodeId& ib) {
  Key key;
  key.reserve(group_vars_.size());
  for (const std::string& v : group_vars_) {
    key.push_back(input_->Attr(ib, v).id);
  }
  return key;
}

bool GroupByOp::KeyEquals(const Key& a, const Key& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

bool GroupByOp::PrevContains(const PrevSet& set, const Key& key) {
  for (const PrevNode* n = set.get(); n != nullptr; n = n->parent.get()) {
    if (KeyEquals(n->key, key)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Input enumeration cache (Fig. 10's list-caching optimization).
// ---------------------------------------------------------------------------

const GroupByOp::SeqEntry* GroupByOp::SeqAt(size_t i) {
  while (seq_.size() <= i && !seq_complete_) {
    std::optional<NodeId> next = seq_.empty()
                                     ? input_->FirstBinding()
                                     : input_->NextBinding(seq_.back().ib);
    if (!next.has_value()) {
      seq_complete_ = true;
      break;
    }
    seq_index_[*next] = seq_.size();
    seq_.push_back(SeqEntry{*next, KeyOf(*next)});
  }
  if (i >= seq_.size()) return nullptr;
  return &seq_[i];
}

size_t GroupByOp::SeqIndexOf(const NodeId& ib) {
  // Ids handed around by this operator come from its own forward scans, so
  // they are either memoized already or about to be appended.
  for (;;) {
    auto it = seq_index_.find(ib);
    if (it != seq_index_.end()) return it->second;
    const SeqEntry* entry = SeqAt(seq_.size());
    MIX_CHECK_MSG(entry != nullptr, "binding id not part of the input stream");
  }
}

// ---------------------------------------------------------------------------
// The Fig. 10 scans, with and without the enumeration cache.
// ---------------------------------------------------------------------------

std::optional<NodeId> GroupByOp::NextGroupLeader(std::optional<NodeId> ib,
                                                 const PrevSet& prev) {
  if (!ib.has_value()) return std::nullopt;
  if (options_.cache_input) {
    for (size_t i = SeqIndexOf(*ib);; ++i) {
      const SeqEntry* entry = SeqAt(i);
      if (entry == nullptr) return std::nullopt;
      if (!PrevContains(prev, entry->key)) return entry->ib;
    }
  }
  while (ib.has_value()) {
    if (!PrevContains(prev, KeyOf(*ib))) return ib;
    ib = input_->NextBinding(*ib);
  }
  return std::nullopt;
}

std::optional<NodeId> GroupByOp::NextInGroup(const NodeId& pb,
                                             const NodeId& pg) {
  if (options_.cache_input) {
    const Key group_key = seq_[SeqIndexOf(pg)].key;
    for (size_t i = SeqIndexOf(pb) + 1;; ++i) {
      const SeqEntry* entry = SeqAt(i);
      if (entry == nullptr) return std::nullopt;
      if (KeyEquals(entry->key, group_key)) return entry->ib;
    }
  }
  Key group_key = KeyOf(pg);
  std::optional<NodeId> ib = input_->NextBinding(pb);
  while (ib.has_value()) {
    if (KeyEquals(KeyOf(*ib), group_key)) return ib;
    ib = input_->NextBinding(*ib);
  }
  return std::nullopt;
}

NodeId GroupByOp::StoreState(GroupState state) {
  states_.push_back(std::move(state));
  return NodeId(kGbBTag, instance_, static_cast<int64_t>(states_.size() - 1));
}

std::optional<NodeId> GroupByOp::FirstInput() {
  if (!options_.cache_input) return input_->FirstBinding();
  if (SeqAt(0) == nullptr) return std::nullopt;
  return seq_[0].ib;
}

int64_t GroupByOp::ListHandle(const NodeId& list) {
  MIX_CHECK(list.IntAt(0) == instance_);
  const int64_t handle = list.IntAt(1);
  if (handle != kSoleGroupHandle) return handle;
  if (sole_group_ == kSoleGroupHandle) {
    // First navigation of the sole group's list: the one input probe that
    // decides between a real leader and the empty list.
    std::optional<NodeId> first = FirstInput();
    sole_group_ = first.has_value()
                      ? StoreState(GroupState{*first, nullptr}).IntAt(1)
                      : kEmptyGroupHandle;
  }
  return sole_group_;
}

const GroupByOp::GroupState& GroupByOp::StateOf(int64_t handle) const {
  MIX_CHECK(handle >= 0 && handle < static_cast<int64_t>(states_.size()));
  return states_[static_cast<size_t>(handle)];
}

std::optional<NodeId> GroupByOp::FirstBinding() {
  if (group_vars_.empty()) {
    // "create one answer element (= for each {})": exactly one group,
    // whatever the input, so its binding costs no input navigation. Its
    // list probes the input when first navigated (ListHandle).
    return NodeId(kGbBTag, instance_, kSoleGroupHandle);
  }
  std::optional<NodeId> first = FirstInput();
  if (!first.has_value()) return std::nullopt;
  NodeId leader = StoreState(GroupState{*first, nullptr});
  memo_.SetFrontier(NavMemo::Command::kNextBinding, leader);
  return leader;
}

std::optional<NodeId> GroupByOp::NextBinding(const NodeId& b) {
  CheckOwn(b, kGbBTag);
  int64_t handle = b.IntAt(1);
  if (handle == kSoleGroupHandle) return std::nullopt;  // the only group
  // Memoized for revisits: the next_gb scan from a given group leader is
  // deterministic, so revisits (second materialization pass, sibling
  // re-walks) become pure lookups instead of re-driving the input stream.
  // The forward scan bypasses the memo via the frontier.
  const bool frontier = memo_.IsFrontier(NavMemo::Command::kNextBinding, b);
  if (!frontier) {
    if (const auto* hit = memo_.Lookup(NavMemo::Command::kNextBinding, b)) {
      return *hit;
    }
  }
  const GroupState& state = StateOf(handle);
  auto new_prev =
      std::make_shared<PrevNode>(PrevNode{KeyOf(state.pg), state.prev});
  std::optional<NodeId> after = options_.cache_input
                                    ? [&]() -> std::optional<NodeId> {
    const SeqEntry* entry = SeqAt(SeqIndexOf(state.pg) + 1);
    return entry == nullptr ? std::nullopt
                            : std::optional<NodeId>(entry->ib);
  }()
                                    : input_->NextBinding(state.pg);
  std::optional<NodeId> leader = NextGroupLeader(after, new_prev);
  std::optional<NodeId> next;
  if (leader.has_value()) {
    next = StoreState(GroupState{*leader, std::move(new_prev)});
  }
  if (frontier) {
    memo_.SetFrontier(NavMemo::Command::kNextBinding, next);
  } else {
    memo_.Insert(NavMemo::Command::kNextBinding, b, next);
  }
  return next;
}

ValueRef GroupByOp::Attr(const NodeId& b, const std::string& var) {
  CheckOwn(b, kGbBTag);
  int64_t handle = b.IntAt(1);
  if (var == out_var_) {
    return ValueRef{this, NodeId(kGbListTag, instance_, handle)};
  }
  MIX_CHECK_MSG(handle != kSoleGroupHandle,
                "the sole group's binding has only the list variable");
  MIX_CHECK_MSG(std::find(group_vars_.begin(), group_vars_.end(), var) !=
                    group_vars_.end(),
                "unknown variable requested from groupBy");
  return input_->Attr(StateOf(handle).pg, var);
}

std::optional<NodeId> GroupByOp::Down(const NodeId& p) {
  if (space_.Owns(p)) return space_.Down(p);
  if (p.tag_atom() == kGbListTag) {
    int64_t handle = ListHandle(p);
    if (handle == kEmptyGroupHandle) return std::nullopt;
    const GroupState& state = StateOf(handle);
    // First grouped value: the group leader's own v value.
    NodeId first(kGbItemTag, instance_, handle, state.pg);
    memo_.SetFrontier(NavMemo::Command::kRight, first);
    return first;
  }
  MIX_CHECK_MSG(p.tag_atom() == kGbItemTag,
                "foreign value id passed to groupBy");
  MIX_CHECK(p.IntAt(0) == instance_);
  ValueRef value = input_->Attr(p.IdAt(2), grouped_var_);
  std::optional<NodeId> child = value.nav->Down(value.id);
  if (!child.has_value()) return std::nullopt;
  return space_.Wrap(ValueRef{value.nav, *child});
}

std::optional<NodeId> GroupByOp::Right(const NodeId& p) {
  if (space_.Owns(p)) return space_.Right(p);
  if (p.tag_atom() == kGbListTag) {
    // A synthesized list is a value root; it has no siblings of its own.
    return std::nullopt;
  }
  MIX_CHECK_MSG(p.tag_atom() == kGbItemTag,
                "foreign value id passed to groupBy");
  MIX_CHECK(p.IntAt(0) == instance_);
  // Memoized for revisits: r over grouped items replays the (deterministic)
  // next-in-group scan; a re-walk of the same group's list never
  // re-navigates. The first walk bypasses the memo via the frontier.
  const bool frontier = memo_.IsFrontier(NavMemo::Command::kRight, p);
  if (!frontier) {
    if (const auto* hit = memo_.Lookup(NavMemo::Command::kRight, p)) {
      return *hit;
    }
  }
  int64_t handle = p.IntAt(1);
  const GroupState& state = StateOf(handle);
  std::optional<NodeId> next = NextInGroup(p.IdAt(2), state.pg);
  std::optional<NodeId> result;
  if (next.has_value()) {
    result = NodeId(kGbItemTag, instance_, handle, *next);
  }
  if (frontier) {
    memo_.SetFrontier(NavMemo::Command::kRight, result);
  } else {
    memo_.Insert(NavMemo::Command::kRight, p, result);
  }
  return result;
}

Label GroupByOp::Fetch(const NodeId& p) {
  if (space_.Owns(p)) return space_.Fetch(p);
  if (p.tag_atom() == kGbListTag) return kListLabel;
  MIX_CHECK_MSG(p.tag_atom() == kGbItemTag,
                "foreign value id passed to groupBy");
  MIX_CHECK(p.IntAt(0) == instance_);
  ValueRef value = input_->Attr(p.IdAt(2), grouped_var_);
  return value.nav->Fetch(value.id);
}

void GroupByOp::DownAll(const NodeId& p, std::vector<NodeId>* out) {
  if (space_.Owns(p)) {
    space_.DownAll(p, out);
    return;
  }
  if (p.tag_atom() == kGbListTag) {
    int64_t handle = ListHandle(p);
    if (handle == kEmptyGroupHandle) return;
    const GroupState& state = StateOf(handle);
    NodeId cur = state.pg;
    out->push_back(NodeId(kGbItemTag, instance_, handle, cur));
    for (std::optional<NodeId> next = NextInGroup(cur, state.pg);
         next.has_value(); next = NextInGroup(cur, state.pg)) {
      cur = *next;
      out->push_back(NodeId(kGbItemTag, instance_, handle, cur));
    }
    return;
  }
  MIX_CHECK_MSG(p.tag_atom() == kGbItemTag,
                "foreign value id passed to groupBy");
  MIX_CHECK(p.IntAt(0) == instance_);
  ValueRef value = input_->Attr(p.IdAt(2), grouped_var_);
  const size_t before = out->size();
  value.nav->DownAll(value.id, out);
  for (size_t i = before; i < out->size(); ++i) {
    (*out)[i] = space_.Wrap(ValueRef{value.nav, (*out)[i]});
  }
}

void GroupByOp::NextSiblings(const NodeId& p, int64_t limit,
                             std::vector<NodeId>* out) {
  if (space_.Owns(p)) {
    space_.NextSiblings(p, limit, out);
    return;
  }
  if (p.tag_atom() == kGbListTag) return;  // value root: no siblings
  MIX_CHECK_MSG(p.tag_atom() == kGbItemTag,
                "foreign value id passed to groupBy");
  MIX_CHECK(p.IntAt(0) == instance_);
  if (limit == 0) return;
  int64_t handle = p.IntAt(1);
  const GroupState& state = StateOf(handle);
  NodeId cur = p.IdAt(2);
  int64_t taken = 0;
  for (std::optional<NodeId> next = NextInGroup(cur, state.pg);
       next.has_value(); next = NextInGroup(cur, state.pg)) {
    cur = *next;
    out->push_back(NodeId(kGbItemTag, instance_, handle, cur));
    if (limit >= 0 && ++taken >= limit) return;
  }
}

void GroupByOp::FetchSubtree(const NodeId& p, int64_t depth,
                             std::vector<SubtreeEntry>* out) {
  if (space_.Owns(p)) {
    space_.FetchSubtree(p, depth, out);
    return;
  }
  if (p.tag_atom() == kGbListTag) {
    int64_t handle = ListHandle(p);
    const bool has_items = handle != kEmptyGroupHandle;
    if (depth == 0) {
      out->push_back(SubtreeEntry{kGbListLabel, 0, has_items,
                                  has_items ? p : NodeId()});
      return;
    }
    out->push_back(SubtreeEntry{kGbListLabel, 0, false, NodeId()});
    if (!has_items) return;
    std::vector<NodeId> items;
    DownAll(p, &items);
    for (const NodeId& item : items) {
      const size_t from = out->size();
      FetchSubtree(item, depth < 0 ? -1 : depth - 1, out);
      ShiftSubtreeDepths(out, from, 1);
    }
    return;
  }
  MIX_CHECK_MSG(p.tag_atom() == kGbItemTag,
                "foreign value id passed to groupBy");
  MIX_CHECK(p.IntAt(0) == instance_);
  // A grouped item is an alias of the underlying value: same label, same
  // children. Forward the whole fetch, rewrapping only truncated resume ids.
  ValueRef value = input_->Attr(p.IdAt(2), grouped_var_);
  const size_t from = out->size();
  value.nav->FetchSubtree(value.id, depth, out);
  for (size_t i = from; i < out->size(); ++i) {
    SubtreeEntry& e = (*out)[i];
    if (e.truncated) e.id = space_.Wrap(ValueRef{value.nav, e.id});
  }
}

}  // namespace mix::algebra
