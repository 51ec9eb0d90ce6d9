// Tests for the cross-session answer-view cache (DESIGN.md §4 "Answer-view
// cache"): view-shape computation (select-chain factoring, transparent
// project stripping), the conservative predicate-implication test, publish
// rejection of degraded/truncated exports, LRU eviction under a byte
// budget, generation-bump invalidation, and the end-to-end service path —
// a subsumed warm Open is served from the snapshot with ZERO wrapper
// exchanges at byte-identical answers — plus the flat snapshot navigable
// (differential against DocNavigable) and its exact byte charge.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "buffer/lxp.h"
#include "client/framed_document.h"
#include "mediator/answer_view_cache.h"
#include "mediator/instantiate.h"
#include "mediator/reference_eval.h"
#include "mediator/translate.h"
#include "service/service.h"
#include "service/session.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace mix::mediator {
namespace {

using algebra::CompareOp;
using service::MediatorService;
using service::SessionEnvironment;

// The Fig. 3 running example (same fixture as tests/service_test.cc).
const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

/// Base view: all zip values. The narrowed variants put a var-constant
/// select directly on the grouped variable, so their shapes share the base
/// key and differ only in the stripped predicate set — the case-2
/// subsumption target.
const char* kZipsBase = R"(
CONSTRUCT <answer> $V {$V} </answer> {}
WHERE homesSrc homes.home.zip._ $V
)";
const char* kZipsEq = R"(
CONSTRUCT <answer> $V {$V} </answer> {}
WHERE homesSrc homes.home.zip._ $V AND $V = '91220'
)";
const char* kZipsLt = R"(
CONSTRUCT <answer> $V {$V} </answer> {}
WHERE homesSrc homes.home.zip._ $V AND $V < '91225'
)";

/// A predicate on a variable that is NOT the grouped one cannot be
/// factored out of the base key (the snapshot does not retain $V per $H):
/// such plans stay exact-match-only.
const char* kHomesByZip = R"(
CONSTRUCT <answer> $H {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V AND $V = '91220'
)";

const char* kHomes =
    "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]],"
    "home[addr[Nowhere],zip[99999]]]";
const char* kSchools =
    "schools[school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]],"
    "school[dir[Hart],zip[91223]]]";

ViewShape ShapeOf(const char* query) {
  auto plan = CompileXmas(query);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return ComputeViewShape(*plan.value());
}

// ---------------------------------------------------------------------------
// View-shape computation.
// ---------------------------------------------------------------------------

TEST(ViewShapeTest, SelectChainOnGroupedVarIsFactored) {
  ViewShape base = ShapeOf(kZipsBase);
  ViewShape eq = ShapeOf(kZipsEq);
  ViewShape lt = ShapeOf(kZipsLt);

  ASSERT_TRUE(base.valid && eq.valid && lt.valid);
  EXPECT_TRUE(base.factored && eq.factored && lt.factored);
  // All three collapse to the same predicate-free base key...
  EXPECT_EQ(base.base_key, eq.base_key);
  EXPECT_EQ(base.base_key, lt.base_key);
  EXPECT_EQ(base.base_key.find("select"), std::string::npos);
  // ...with the stripped conjuncts recorded on the grouped variable.
  EXPECT_TRUE(base.preds.empty());
  ASSERT_EQ(eq.preds.size(), 1u);
  EXPECT_EQ(eq.preds[0].var, base.grouped_var);
  EXPECT_EQ(eq.preds[0].op, CompareOp::kEq);
  EXPECT_EQ(eq.preds[0].constant, "91220");
  ASSERT_EQ(lt.preds.size(), 1u);
  EXPECT_EQ(lt.preds[0].op, CompareOp::kLt);
  EXPECT_EQ(base.sources, std::vector<std::string>{"homesSrc"});
}

TEST(ViewShapeTest, PredicateOnForeignVarStaysInBaseKey) {
  // σ is on $V while the grouped variable is $H: the select cannot move
  // out of the base key, so this shape only ever matches itself.
  ViewShape s = ShapeOf(kHomesByZip);
  ASSERT_TRUE(s.valid);
  EXPECT_TRUE(s.preds.empty());
  EXPECT_NE(s.base_key.find("select"), std::string::npos);
}

TEST(ViewShapeTest, Fig3IsFactoredWithoutPredicates) {
  ViewShape s = ShapeOf(kFig3);
  ASSERT_TRUE(s.valid);
  EXPECT_TRUE(s.factored);
  EXPECT_TRUE(s.preds.empty());
  EXPECT_EQ(s.root_label, "answer");
  EXPECT_EQ(s.sources,
            (std::vector<std::string>{"homesSrc", "schoolsSrc"}));
}

TEST(ViewShapeTest, TransparentProjectUnderTupleDestroyIsStripped) {
  auto compiled = CompileXmas(kZipsBase);
  ASSERT_TRUE(compiled.ok());
  ViewShape plain = ComputeViewShape(*compiled.value());

  // Wrap the same crown in project[{create_out}] under tupleDestroy — a
  // schema-only narrowing the descriptor must see through.
  PlanPtr clone = compiled.value()->Clone();
  std::string out = clone->var;
  PlanPtr inner = std::move(clone->children[0]);
  PlanPtr wrapped = PlanNode::TupleDestroy(
      PlanNode::Project(std::move(inner), {out}), out);
  ViewShape projected = ComputeViewShape(*wrapped);

  ASSERT_TRUE(plain.valid && projected.valid);
  EXPECT_EQ(plain.base_key, projected.base_key);
  EXPECT_EQ(plain.factored, projected.factored);
}

TEST(ViewShapeTest, NonTupleDestroyRootIsInvalid) {
  PlanPtr leaf = PlanNode::Source("homesSrc", "H");
  EXPECT_FALSE(ComputeViewShape(*leaf).valid);
}

// ---------------------------------------------------------------------------
// Predicate implication (conservative, dual-order).
// ---------------------------------------------------------------------------

ViewPredicate P(const char* var, CompareOp op, const char* c) {
  return ViewPredicate{var, op, c};
}

TEST(PredicateImpliesTest, TruthTableAndConservatism) {
  using Op = CompareOp;
  // Reflexive / strengthening rows.
  EXPECT_TRUE(PredicateImplies(P("V", Op::kEq, "91220"), P("V", Op::kEq, "91220")));
  EXPECT_FALSE(PredicateImplies(P("V", Op::kEq, "91220"), P("V", Op::kEq, "91223")));
  EXPECT_TRUE(PredicateImplies(P("V", Op::kLt, "91220"), P("V", Op::kLe, "91220")));
  EXPECT_FALSE(PredicateImplies(P("V", Op::kLe, "91220"), P("V", Op::kLt, "91220")));
  EXPECT_TRUE(PredicateImplies(P("V", Op::kGt, "91223"), P("V", Op::kGe, "91220")));
  // Numeric constants where BOTH orders agree: eq ⇒ lt holds.
  EXPECT_TRUE(PredicateImplies(P("V", Op::kEq, "91220"), P("V", Op::kLt, "91225")));
  EXPECT_TRUE(PredicateImplies(P("V", Op::kEq, "91220"), P("V", Op::kNe, "91223")));
  // Numeric and lexicographic orders DISAGREE (9 < 10 but "9" > "10"):
  // CompareAtoms would sort mixed values inconsistently, so claim nothing.
  EXPECT_FALSE(PredicateImplies(P("V", Op::kEq, "9"), P("V", Op::kLt, "10")));
  // Mixed numeric-ness is never claimed.
  EXPECT_FALSE(PredicateImplies(P("V", Op::kEq, "10"), P("V", Op::kNe, "abc")));
  // Pure lexicographic (non-numeric) constants use the lex order alone.
  EXPECT_TRUE(PredicateImplies(P("V", Op::kEq, "apple"), P("V", Op::kLt, "banana")));
  // Different variables never imply.
  EXPECT_FALSE(PredicateImplies(P("V", Op::kEq, "x"), P("W", Op::kEq, "x")));
}

// ---------------------------------------------------------------------------
// Cache mechanics (direct, no service).
// ---------------------------------------------------------------------------

std::vector<SubtreeEntry> Export(const char* term) {
  auto doc = testing::Doc(term);
  xml::DocNavigable nav(doc.get());
  std::vector<SubtreeEntry> entries;
  nav.FetchSubtree(nav.Root(), -1, &entries);
  return entries;
}

ViewShape HandShape(const std::string& key,
                    std::vector<std::string> sources = {"homesSrc"}) {
  ViewShape s;
  s.valid = true;
  s.base_key = key;
  s.sources = std::move(sources);
  return s;
}

TEST(AnswerViewCacheTest, DegradedAndTruncatedExportsAreNeverPublished) {
  AnswerViewCache cache(AnswerViewCache::Options{1 << 20});

  cache.Publish(HandShape("k1"), Export("answer[a,#unavailable]"), {{"homesSrc", 0}});
  std::vector<SubtreeEntry> cut = Export("answer[a,b]");
  cut[1].truncated = true;
  cache.Publish(HandShape("k2"), cut, {{"homesSrc", 0}});
  std::vector<SubtreeEntry> malformed = Export("answer[a,b]");
  malformed[2].depth = 5;  // depth can grow by at most 1 per entry
  cache.Publish(HandShape("k3"), malformed, {{"homesSrc", 0}});
  std::vector<SubtreeEntry> two_roots = Export("answer[a,b]");
  two_roots[2].depth = 0;
  cache.Publish(HandShape("k4"), two_roots, {{"homesSrc", 0}});
  std::vector<SubtreeEntry> deep_root = Export("answer[a]");
  deep_root[0].depth = 1;
  cache.Publish(HandShape("k5"), deep_root, {{"homesSrc", 0}});
  cache.Publish(HandShape("k6"), {}, {{"homesSrc", 0}});

  AnswerViewCache::Stats s = cache.stats();
  EXPECT_EQ(s.publishes, 0);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.rejects["degraded"], 1);
  EXPECT_EQ(s.rejects["truncated"], 1);
  EXPECT_EQ(s.rejects["malformed"], 4);
}

TEST(AnswerViewCacheTest, LruEvictsUnderByteBudgetAndMatchReplays) {
  // Budget sized for roughly one snapshot: the second publish evicts the
  // first (LRU), and the byte account stays within budget throughout.
  std::vector<SubtreeEntry> a = Export("answer[aaaa,bbbb]");
  const int64_t one = SnapshotCharge(*FlatAnswerTree::Build(a));
  AnswerViewCache cache(AnswerViewCache::Options{one + one / 2});
  cache.Publish(HandShape("k1"), a, {{"homesSrc", 0}});
  EXPECT_EQ(cache.stats().entries, 1);

  AnswerViewCache::Match m = cache.TryMatch(HandShape("k1"));
  ASSERT_NE(m.snapshot, nullptr);
  ASSERT_NE(m.plan, nullptr);
  EXPECT_EQ(testing::MaterializeToTerm(m.snapshot->tree.get()),
            "answer[aaaa,bbbb]");

  cache.Publish(HandShape("k2"), Export("answer[cccc,dddd]"), {{"homesSrc", 0}});
  AnswerViewCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_LE(s.bytes, one + one / 2);
  // k1 was evicted; the pinned shared_ptr from the earlier match stays
  // valid (eviction never invalidates an in-flight reader).
  EXPECT_EQ(cache.TryMatch(HandShape("k1")).snapshot, nullptr);
  EXPECT_EQ(testing::MaterializeToTerm(m.snapshot->tree.get()),
            "answer[aaaa,bbbb]");
}

TEST(AnswerViewCacheTest, InvalidateSourceDropsDependentsAndStalePins) {
  AnswerViewCache cache(AnswerViewCache::Options{1 << 20});
  cache.Publish(HandShape("homes", {"homesSrc"}), Export("answer[a]"),
                {{"homesSrc", 0}});
  cache.Publish(HandShape("schools", {"schoolsSrc"}), Export("answer[b]"),
                {{"schoolsSrc", 0}});
  EXPECT_EQ(cache.stats().entries, 2);

  cache.InvalidateSource("homesSrc");
  AnswerViewCache::Stats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1);
  EXPECT_EQ(s.entries, 1);  // only the schools view survives
  EXPECT_EQ(cache.TryMatch(HandShape("homes", {"homesSrc"})).snapshot, nullptr);
  EXPECT_NE(cache.TryMatch(HandShape("schools", {"schoolsSrc"})).snapshot,
            nullptr);

  // A donor that pinned the pre-bump generation publishes into the void.
  cache.Publish(HandShape("homes", {"homesSrc"}), Export("answer[a]"),
                {{"homesSrc", 0}});
  EXPECT_EQ(cache.stats().rejects["stale"], 1);
  // Pinning afresh picks up the bumped generation and publishes cleanly.
  cache.Publish(HandShape("homes", {"homesSrc"}), Export("answer[a]"),
                cache.PinGenerations({"homesSrc"}));
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(AnswerViewCacheTest, DisabledCacheIsInert) {
  AnswerViewCache cache(AnswerViewCache::Options{0});
  EXPECT_FALSE(cache.enabled());
  cache.Publish(HandShape("k"), Export("answer[a]"), {{"homesSrc", 0}});
  EXPECT_EQ(cache.TryMatch(HandShape("k")).snapshot, nullptr);
  AnswerViewCache::Stats s = cache.stats();
  EXPECT_EQ(s.publishes, 0);
  EXPECT_EQ(s.hits + s.misses, 0);
}

// ---------------------------------------------------------------------------
// Flat snapshot navigable: differential against DocNavigable, byte charge.
// ---------------------------------------------------------------------------

xml::Node* CopyInto(const xml::Node* n, xml::Document* doc) {
  if (n->children.empty()) return doc->NewText(n->label);
  xml::Node* e = doc->NewElement(n->label);
  for (const xml::Node* c : n->children) doc->AppendChild(e, CopyInto(c, doc));
  return e;
}

/// The Fig. 3 answer over 48 homes and 48 schools (12 zips), from the
/// reference evaluator.
std::unique_ptr<xml::Document> Fig3Answer() {
  auto homes = xml::MakeHomesDoc(48, 12);
  auto schools = xml::MakeSchoolsDoc(48, 12);
  auto plan = CompileXmas(kFig3).ValueOrDie();
  ReferenceSources ref{{"homesSrc", homes->root()},
                       {"schoolsSrc", schools->root()}};
  xml::Document scratch;
  const xml::Node* answer =
      EvaluateReference(*plan, ref, &scratch).ValueOrDie();
  auto doc = std::make_unique<xml::Document>();
  doc->set_root(CopyInto(answer, doc.get()));
  return doc;
}

/// Random trees of several shapes plus the Fig. 3 answer and a lone leaf.
std::vector<std::unique_ptr<xml::Document>> DifferentialTrees() {
  std::vector<std::unique_ptr<xml::Document>> trees;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    xml::RandomTreeOptions o;
    o.seed = seed;
    o.max_depth = 4 + static_cast<int>(seed % 3);
    o.max_fanout = 4 + static_cast<int>(seed % 4);
    o.element_percent = 75;
    o.label_alphabet = 3;
    trees.push_back(xml::RandomTree(o));
  }
  trees.push_back(Fig3Answer());
  trees.push_back(testing::Doc("leaf"));
  return trees;
}

/// Pairs a DocNavigable with the FlatAnswerTree built from its full export
/// and names every node by its pre-order ordinal on each side, so results
/// of the two implementations compare position by position.
class FlatDifferential {
 public:
  explicit FlatDifferential(const xml::Document* doc) : doc_(doc) {
    std::vector<SubtreeEntry> entries;
    doc_.FetchSubtree(doc_.Root(), -1, &entries);
    flat_ = FlatAnswerTree::Build(entries);
    MIX_CHECK(flat_ != nullptr);
    Number(&doc_, &doc_ids_, &doc_ord_);
    Number(flat_.get(), &flat_ids_, &flat_ord_);
  }

  size_t size() const { return doc_ids_.size(); }

  /// Runs every command from node `i` on both sides.
  void CheckNode(size_t i) {
    const NodeId& d = doc_ids_[i];
    const NodeId& f = flat_ids_[i];
    EXPECT_EQ(doc_.Fetch(d), flat_->Fetch(f));
    EXPECT_EQ(doc_.FetchAtom(d), flat_->FetchAtom(f));
    EXPECT_EQ(Ord(doc_.Down(d), doc_ord_), Ord(flat_->Down(f), flat_ord_));
    EXPECT_EQ(Ord(doc_.Right(d), doc_ord_), Ord(flat_->Right(f), flat_ord_));

    std::vector<NodeId> dk;
    std::vector<NodeId> fk;
    doc_.DownAll(d, &dk);
    flat_->DownAll(f, &fk);
    EXPECT_EQ(Ords(dk, doc_ord_), Ords(fk, flat_ord_));
    for (int64_t k = -1; k <= static_cast<int64_t>(dk.size()) + 1; ++k) {
      EXPECT_EQ(Ord(doc_.NthChild(d, k), doc_ord_),
                Ord(flat_->NthChild(f, k), flat_ord_))
          << "NthChild " << k;
    }
    for (int64_t limit : {-1, 0, 1, 2}) {
      std::vector<NodeId> ds;
      std::vector<NodeId> fs;
      doc_.NextSiblings(d, limit, &ds);
      flat_->NextSiblings(f, limit, &fs);
      EXPECT_EQ(Ords(ds, doc_ord_), Ords(fs, flat_ord_))
          << "NextSiblings " << limit;
    }
    const std::string own = doc_.Fetch(d);
    for (const LabelPredicate& pred :
         {LabelPredicate::Equals(own), LabelPredicate::Equals("a1"),
          LabelPredicate::Any(),
          LabelPredicate::Fn(
              [](const Label& l) { return !l.empty() && l.back() == '2'; },
              "ends in 2")}) {
      EXPECT_EQ(Ord(doc_.SelectSibling(d, pred), doc_ord_),
                Ord(flat_->SelectSibling(f, pred), flat_ord_))
          << "SelectSibling " << pred.description();
    }
    for (int64_t depth : {0, 1, 2, 3, -1}) CheckSubtree(d, f, depth);
  }

 private:
  static void Number(Navigable* nav, std::vector<NodeId>* ids,
                     std::unordered_map<NodeId, int64_t, NodeIdHash>* ord) {
    std::vector<NodeId> stack{nav->Root()};
    while (!stack.empty()) {
      NodeId p = stack.back();
      stack.pop_back();
      (*ord)[p] = static_cast<int64_t>(ids->size());
      ids->push_back(p);
      std::vector<NodeId> kids;
      for (auto c = nav->Down(p); c.has_value(); c = nav->Right(*c)) {
        kids.push_back(*c);
      }
      stack.insert(stack.end(), kids.rbegin(), kids.rend());
    }
  }

  /// Ordinal of `p` (-1 for ⊥); an id the numbering never saw reads -2.
  static int64_t Ord(const std::optional<NodeId>& p,
                     const std::unordered_map<NodeId, int64_t, NodeIdHash>& ord) {
    if (!p.has_value()) return -1;
    auto it = ord.find(*p);
    return it == ord.end() ? -2 : it->second;
  }
  static std::vector<int64_t> Ords(
      const std::vector<NodeId>& ps,
      const std::unordered_map<NodeId, int64_t, NodeIdHash>& ord) {
    std::vector<int64_t> out;
    for (const NodeId& p : ps) out.push_back(Ord(p, ord));
    return out;
  }

  /// FetchSubtree on both sides; then navigates on from every truncation
  /// resume id (d/r/f and a full-depth fetch).
  void CheckSubtree(const NodeId& d, const NodeId& f, int64_t depth) {
    std::vector<SubtreeEntry> de;
    std::vector<SubtreeEntry> fe;
    doc_.FetchSubtree(d, depth, &de);
    flat_->FetchSubtree(f, depth, &fe);
    ASSERT_EQ(de.size(), fe.size()) << "FetchSubtree depth " << depth;
    for (size_t k = 0; k < de.size(); ++k) {
      EXPECT_EQ(de[k].label, fe[k].label);
      EXPECT_EQ(de[k].depth, fe[k].depth);
      EXPECT_EQ(de[k].truncated, fe[k].truncated);
      EXPECT_EQ(de[k].id.valid(), fe[k].id.valid());
      if (!de[k].truncated || !fe[k].truncated) continue;
      const NodeId& dr = de[k].id;
      const NodeId& fr = fe[k].id;
      EXPECT_EQ(Ord(dr, doc_ord_), Ord(fr, flat_ord_));
      EXPECT_EQ(doc_.Fetch(dr), flat_->Fetch(fr));
      EXPECT_EQ(Ord(doc_.Down(dr), doc_ord_), Ord(flat_->Down(fr), flat_ord_));
      EXPECT_EQ(Ord(doc_.Right(dr), doc_ord_),
                Ord(flat_->Right(fr), flat_ord_));
      if (depth >= 0) CheckSubtree(dr, fr, -1);
    }
  }

  xml::DocNavigable doc_;
  std::unique_ptr<FlatAnswerTree> flat_;
  std::vector<NodeId> doc_ids_;
  std::vector<NodeId> flat_ids_;
  std::unordered_map<NodeId, int64_t, NodeIdHash> doc_ord_;
  std::unordered_map<NodeId, int64_t, NodeIdHash> flat_ord_;
};

TEST(FlatAnswerTreeTest, EveryCommandMatchesDocNavigable) {
  for (const auto& doc : DifferentialTrees()) {
    FlatDifferential diff(doc.get());
    ASSERT_EQ(static_cast<int64_t>(diff.size()), doc->node_count());
    for (size_t i = 0; i < diff.size(); ++i) {
      diff.CheckNode(i);
      if (::testing::Test::HasFailure()) {
        FAIL() << "first mismatch at pre-order node " << i << " of "
               << xml::ToTerm(doc->root()).substr(0, 200);
      }
    }
  }
}

TEST(FlatAnswerTreeTest, ChargeIsTheArraysPlusLabelBytes) {
  for (const auto& doc : DifferentialTrees()) {
    std::vector<SubtreeEntry> entries;
    xml::DocNavigable nav(doc.get());
    nav.FetchSubtree(nav.Root(), -1, &entries);
    std::unique_ptr<FlatAnswerTree> tree = FlatAnswerTree::Build(entries);
    ASSERT_NE(tree, nullptr);
    int64_t labels = 0;
    for (const SubtreeEntry& e : entries) {
      labels += static_cast<int64_t>(e.label.name().size());
    }
    const int64_t n = tree->node_count();
    const int64_t arrays = static_cast<int64_t>(
        tree->labels().capacity() * sizeof(Atom) +
        tree->subtree_ends().capacity() * sizeof(int32_t));
    EXPECT_EQ(tree->label_bytes(), labels);
    EXPECT_EQ(SnapshotCharge(*tree), arrays + labels + kSnapshotFixedBytes);
    EXPECT_EQ(arrays, 8 * n);
    // The fixed part spreads to at most 4 B per node once a tree has 128
    // nodes, which every answer worth caching has.
    if (n >= kSnapshotFixedBytes / 4) {
      EXPECT_LE(SnapshotCharge(*tree), 12 * n + labels) << n << " nodes";
    }
  }
  // The Fig. 3 answer fits well inside one 64 KiB backend budget, and the
  // cache accounts exactly its charge.
  std::unique_ptr<xml::Document> fig3 = Fig3Answer();
  xml::DocNavigable nav(fig3.get());
  std::vector<SubtreeEntry> entries;
  nav.FetchSubtree(nav.Root(), -1, &entries);
  std::unique_ptr<FlatAnswerTree> tree = FlatAnswerTree::Build(entries);
  const int64_t charge = SnapshotCharge(*tree);
  EXPECT_LT(charge, 32 << 10);
  AnswerViewCache cache(AnswerViewCache::Options{64 << 10});
  cache.Publish(HandShape("fig3"), entries, {{"homesSrc", 0}});
  AnswerViewCache::Stats s = cache.stats();
  EXPECT_EQ(s.publishes, 1);
  EXPECT_EQ(s.bytes, charge);
}

// ---------------------------------------------------------------------------
// End-to-end service path.
// ---------------------------------------------------------------------------

/// Wrapper decorator counting LXP exchanges — the "zero wrapper exchanges"
/// acceptance reads this.
class CountingWrapper : public buffer::LxpWrapper {
 public:
  CountingWrapper(std::unique_ptr<buffer::LxpWrapper> inner,
                  std::atomic<int64_t>* exchanges)
      : inner_(std::move(inner)), exchanges_(exchanges) {}

  std::string GetRoot(const std::string& uri) override {
    ++*exchanges_;
    return inner_->GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    ++*exchanges_;
    return inner_->Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    ++*exchanges_;
    return inner_->FillMany(holes, budget);
  }

 private:
  std::unique_ptr<buffer::LxpWrapper> inner_;
  std::atomic<int64_t>* exchanges_;
};

class ViewServiceFixture {
 public:
  ViewServiceFixture()
      : homes_(testing::Doc(kHomes)), schools_(testing::Doc(kSchools)) {
    env_.RegisterWrapperFactory(
        "homesSrc",
        [this] {
          return std::make_unique<CountingWrapper>(
              std::make_unique<wrappers::XmlLxpWrapper>(homes_.get()),
              &exchanges_);
        },
        "homes.xml");
    env_.RegisterWrapperFactory(
        "schoolsSrc",
        [this] {
          return std::make_unique<CountingWrapper>(
              std::make_unique<wrappers::XmlLxpWrapper>(schools_.get()),
              &exchanges_);
        },
        "schools.xml");
  }

  SessionEnvironment& env() { return env_; }
  int64_t exchanges() const { return exchanges_.load(); }

  /// In-process, cache-free evaluation — the fidelity oracle.
  std::string Reference(const char* query) {
    xml::DocNavigable homes_nav(homes_.get());
    xml::DocNavigable schools_nav(schools_.get());
    SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    sources.Register("schoolsSrc", &schools_nav);
    auto plan = CompileXmas(query).ValueOrDie();
    auto med = LazyMediator::Build(*plan, sources).ValueOrDie();
    return testing::MaterializeToTerm(med->document());
  }

 private:
  std::unique_ptr<xml::Document> homes_;
  std::unique_ptr<xml::Document> schools_;
  std::atomic<int64_t> exchanges_{0};
  SessionEnvironment env_;
};

MediatorService::Options ViewOptions(int64_t view_bytes) {
  MediatorService::Options o;
  o.answer_view_cache_bytes = view_bytes;
  return o;
}

std::string MaterializeFramed(client::FramedDocument* doc) {
  xml::Document out;
  return xml::ToTerm(xml::MaterializeInto(doc, &out).ValueOrDie());
}

TEST(AnswerViewServiceTest, WarmOpenServedWithZeroWrapperExchanges) {
  ViewServiceFixture fx;
  MediatorService service(&fx.env(), ViewOptions(1 << 20));
  const std::string expected = fx.Reference(kFig3);

  auto donor = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(donor.get()), expected);
  ASSERT_TRUE(donor->Close().ok());
  int64_t cold = fx.exchanges();
  EXPECT_GT(cold, 0);
  EXPECT_EQ(service.Metrics().view_publishes, 1);

  // The warm open replays the snapshot: byte-identical answer, ZERO new
  // wrapper exchanges (no wrappers are even built for the session).
  auto warm = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(warm.get()), expected);
  EXPECT_EQ(fx.exchanges(), cold);
  ASSERT_TRUE(warm->Close().ok());

  service::ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.view_hits, 1);
  EXPECT_EQ(snap.view_publishes, 1);
  EXPECT_GT(snap.view_bytes, 0);
  EXPECT_NE(snap.ToString().find("views{"), std::string::npos);
}

TEST(AnswerViewServiceTest, NarrowedPredicateServedFromBaseView) {
  ViewServiceFixture fx;
  MediatorService service(&fx.env(), ViewOptions(1 << 20));

  // Donor: the unfiltered zips view.
  auto donor = client::FramedDocument::Open(&service, kZipsBase).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(donor.get()), fx.Reference(kZipsBase));
  ASSERT_TRUE(donor->Close().ok());
  int64_t cold = fx.exchanges();
  ASSERT_EQ(service.Metrics().view_publishes, 1);

  // Both narrowed variants are subsumed: σ over the snapshot's children,
  // byte-identical to fresh evaluation, zero new wrapper exchanges.
  for (const char* narrowed : {kZipsEq, kZipsLt}) {
    auto doc = client::FramedDocument::Open(&service, narrowed).ValueOrDie();
    EXPECT_EQ(MaterializeFramed(doc.get()), fx.Reference(narrowed));
    ASSERT_TRUE(doc->Close().ok());
  }
  EXPECT_EQ(fx.exchanges(), cold);
  EXPECT_EQ(service.Metrics().view_hits, 2);
}

TEST(AnswerViewServiceTest, KnobZeroReproducesBaseline) {
  ViewServiceFixture fx;
  MediatorService service(&fx.env(), ViewOptions(0));
  const std::string expected = fx.Reference(kFig3);

  auto first = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(first.get()), expected);
  ASSERT_TRUE(first->Close().ok());
  int64_t cold = fx.exchanges();

  // Second open re-exchanges: nothing was published, nothing matched.
  auto second = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(second.get()), expected);
  ASSERT_TRUE(second->Close().ok());
  EXPECT_GT(fx.exchanges(), cold);

  service::ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.view_hits, 0);
  EXPECT_EQ(snap.view_misses, 0);
  EXPECT_EQ(snap.view_publishes, 0);
  EXPECT_EQ(snap.view_entries, 0);
}

TEST(AnswerViewServiceTest, InvalidateSourceForcesReExchange) {
  ViewServiceFixture fx;
  MediatorService service(&fx.env(), ViewOptions(1 << 20));
  const std::string expected = fx.Reference(kFig3);

  auto donor = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(donor.get()), expected);
  ASSERT_TRUE(donor->Close().ok());
  ASSERT_EQ(service.Metrics().view_entries, 1);

  // The freshness hook: homes changed, every dependent view is dropped.
  service.InvalidateSource("homesSrc");
  EXPECT_EQ(service.Metrics().view_entries, 0);

  int64_t before = fx.exchanges();
  auto fresh = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(fresh.get()), expected);
  ASSERT_TRUE(fresh->Close().ok());
  EXPECT_GT(fx.exchanges(), before) << "stale view must not serve";
  // The fresh session pinned the bumped generation, so it re-donates...
  EXPECT_EQ(service.Metrics().view_publishes, 2);
  // ...and the next open is served again.
  int64_t warm = fx.exchanges();
  auto served = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(served.get()), expected);
  EXPECT_EQ(fx.exchanges(), warm);
  ASSERT_TRUE(served->Close().ok());
}

// Under the E13 fault matrix and across InvalidateSource, every OK answer a
// session returns — view-served or live — equals the reference evaluation,
// whether walked d/r/f or exported whole.
TEST(AnswerViewServiceTest, ServedAnswersEqualReferenceUnderFaultsAndInvalidation) {
  auto homes = xml::MakeHomesDoc(48, 12);
  auto schools = xml::MakeSchoolsDoc(48, 12);
  const std::string expected = xml::ToTerm(Fig3Answer()->root());
  for (double p : {0.0, 0.05, 0.2}) {
    SessionEnvironment env;
    SessionEnvironment::WrapperOptions wo;
    wo.fault.p_fail = p;
    wo.fault.p_truncate = p / 4;
    wo.fault.p_garble = p / 4;
    wo.fault.p_duplicate = p / 4;
    wo.fault.p_delay = p;
    wo.retry.max_attempts = 10;
    env.RegisterWrapperFactory(
        "homesSrc",
        [&homes] {
          return std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
        },
        "homes.xml", wo);
    env.RegisterWrapperFactory(
        "schoolsSrc",
        [&schools] {
          return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
        },
        "schools.xml", wo);
    MediatorService service(&env, ViewOptions(64 << 10));
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < 3; ++i) {
        auto doc = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
        xml::Document walked;
        const std::string walk =
            xml::ToTerm(xml::MaterializeIntoNodeAtATime(doc.get(), &walked));
        if (doc->last_status().ok()) {
          EXPECT_EQ(walk, expected) << "p=" << p << " round " << round;
        }
        doc->clear_last_status();
        xml::Document out;
        Result<xml::Node*> exported = xml::MaterializeInto(doc.get(), &out);
        if (exported.ok() && doc->last_status().ok()) {
          EXPECT_EQ(xml::ToTerm(exported.value()), expected)
              << "p=" << p << " round " << round;
        }
        ASSERT_TRUE(doc->Close().ok());
      }
      if (round == 0) service.InvalidateSource("homesSrc");
    }
    // Each round's first session donates, and the two after it are served.
    service::ServiceMetricsSnapshot snap = service.Metrics();
    EXPECT_EQ(snap.view_publishes, 2) << "p=" << p;
    EXPECT_EQ(snap.view_hits, 4) << "p=" << p;
    if (p > 0) {
      EXPECT_GT(snap.source_faults, 0) << "p=" << p;
    }
  }
}

// One published snapshot read by sessions on every worker at once: the flat
// tree holds no mutable state, so concurrent walks, partial fetches with
// resume ids and exports all see the donor's answer (the TSan job runs it).
TEST(AnswerViewServiceTest, ConcurrentSessionsShareOneSnapshot) {
  ViewServiceFixture fx;
  MediatorService::Options options = ViewOptions(1 << 20);
  options.workers = 4;
  MediatorService service(&fx.env(), options);
  const std::string expected = fx.Reference(kFig3);
  auto donor = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  ASSERT_EQ(MaterializeFramed(donor.get()), expected);
  ASSERT_TRUE(donor->Close().ok());
  const int64_t cold = fx.exchanges();

  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &failures, &expected] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        auto doc = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
        xml::Document walked;
        if (xml::ToTerm(xml::MaterializeIntoNodeAtATime(doc.get(), &walked)) !=
            expected) {
          ++failures;
        }
        std::vector<SubtreeEntry> top;
        doc->FetchSubtree(doc->Root(), 1, &top);
        for (const SubtreeEntry& e : top) {
          if (!e.truncated) continue;
          std::vector<SubtreeEntry> rest;
          doc->FetchSubtree(e.id, -1, &rest);
          if (rest.empty() || rest[0].label != e.label) ++failures;
        }
        if (MaterializeFramed(doc.get()) != expected) ++failures;
        if (!doc->last_status().ok() || !doc->Close().ok()) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fx.exchanges(), cold);
  EXPECT_EQ(service.Metrics().view_hits, kThreads * kSessionsPerThread);
}

/// A homes wrapper whose fills always fail: the first session degrades and
/// must publish nothing; later sessions get a healthy wrapper.
class FailingWrapper : public buffer::LxpWrapper {
 public:
  std::string GetRoot(const std::string&) override { return "h:root"; }
  buffer::FragmentList Fill(const std::string&) override { return {}; }
  Status TryFill(const std::string&, buffer::FragmentList*) override {
    return Status::Unavailable("source down");
  }
  Status TryFillMany(const std::vector<std::string>&,
                     const buffer::FillBudget&,
                     buffer::HoleFillList*) override {
    return Status::Unavailable("source down");
  }
};

TEST(AnswerViewServiceTest, DegradedSessionNeverPublishes) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  SessionEnvironment env;
  std::atomic<int> built{0};
  env.RegisterWrapperFactory(
      "homesSrc",
      [&built, &homes]() -> std::unique_ptr<buffer::LxpWrapper> {
        if (built.fetch_add(1) == 0) return std::make_unique<FailingWrapper>();
        return std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
      },
      "homes.xml");
  env.RegisterWrapperFactory(
      "schoolsSrc",
      [&schools] {
        return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
      },
      "schools.xml");
  MediatorService service(&env, ViewOptions(1 << 20));

  // Session 1 degrades: its full-depth export errors, the publish hook
  // never fires, and nothing reaches the cache.
  auto broken = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  std::vector<SubtreeEntry> entries;
  broken->FetchSubtree(broken->Root(), -1, &entries);
  EXPECT_FALSE(broken->last_status().ok());
  ASSERT_TRUE(broken->Close().ok());
  EXPECT_EQ(service.Metrics().view_publishes, 0);
  EXPECT_EQ(service.Metrics().view_entries, 0);

  // Session 2 (healthy wrapper) donates; session 3 is served the GOOD
  // answer — a degraded answer can never poison later sessions.
  auto good = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  std::string expected = MaterializeFramed(good.get());
  EXPECT_NE(expected.find("med_home"), std::string::npos);
  EXPECT_EQ(expected.find("#unavailable"), std::string::npos);
  ASSERT_TRUE(good->Close().ok());
  EXPECT_EQ(service.Metrics().view_publishes, 1);

  auto served = client::FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(MaterializeFramed(served.get()), expected);
  ASSERT_TRUE(served->Close().ok());
  EXPECT_EQ(service.Metrics().view_hits, 1);
}

}  // namespace
}  // namespace mix::mediator
