#include <gtest/gtest.h>

#include "algebra/group_by_op.h"
#include "test_util.h"
#include "xml/doc_navigable.h"

namespace mix::algebra {
namespace {

/// Builds the Example 8 input with *shared node identities*: the three
/// bindings of home1 reference the same home1 node.
struct Example8 {
  Example8()
      : doc(testing::Doc(
            "d[home1,home2,home3,school1,school2,school3,school4,school5]")),
        nav(doc.get()) {
    auto node = [&](int i) {
      return testing::RefTo(&nav, doc->root()->children[static_cast<size_t>(i)]);
    };
    // Input order from Example 8: (home1,school1), (home1,school2),
    // (home2,school3), (home1,school4), (home3,school5).
    stream = std::make_unique<testing::VectorBindingStream>(
        VarList{"H", "S"},
        std::vector<std::vector<ValueRef>>{
            {node(0), node(3)},
            {node(0), node(4)},
            {node(1), node(5)},
            {node(0), node(6)},
            {node(2), node(7)},
        });
  }

  std::unique_ptr<xml::Document> doc;
  xml::DocNavigable nav;
  std::unique_ptr<testing::VectorBindingStream> stream;
};

TEST(GroupByTest, Example8Output) {
  Example8 fix;
  GroupByOp gb(fix.stream.get(), {"H"}, "S", "LSs");
  EXPECT_EQ(gb.schema(), (VarList{"H", "LSs"}));
  // The paper's expected output binding list.
  EXPECT_EQ(testing::StreamToTerm(&gb),
            "bs[b[H[home1],LSs[list[school1,school2,school4]]],"
            "b[H[home2],LSs[list[school3]]],"
            "b[H[home3],LSs[list[school5]]]]");
}

TEST(GroupByTest, NextGbSkipsSeenGroups) {
  Example8 fix;
  GroupByOp gb(fix.stream.get(), {"H"}, "S", "LSs");
  auto b1 = gb.FirstBinding();
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(AtomOf(gb.Attr(*b1, "H")), "home1");
  auto b2 = gb.NextBinding(*b1);
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(AtomOf(gb.Attr(*b2, "H")), "home2");
  auto b3 = gb.NextBinding(*b2);
  ASSERT_TRUE(b3.has_value());
  EXPECT_EQ(AtomOf(gb.Attr(*b3, "H")), "home3");
  EXPECT_FALSE(gb.NextBinding(*b3).has_value());
}

TEST(GroupByTest, ItemRightScansForSameGroup) {
  // The school2 -> school4 navigation of Example 8: Right on a grouped
  // item skips the intervening home2 binding.
  Example8 fix;
  GroupByOp gb(fix.stream.get(), {"H"}, "S", "LSs");
  auto b1 = gb.FirstBinding();
  ValueRef list = gb.Attr(*b1, "LSs");
  EXPECT_EQ(list.nav->Fetch(list.id), "list");

  auto item1 = list.nav->Down(list.id);
  ASSERT_TRUE(item1.has_value());
  EXPECT_EQ(list.nav->Fetch(*item1), "school1");
  auto item2 = list.nav->Right(*item1);
  EXPECT_EQ(list.nav->Fetch(*item2), "school2");
  auto item3 = list.nav->Right(*item2);
  EXPECT_EQ(list.nav->Fetch(*item3), "school4");
  EXPECT_FALSE(list.nav->Right(*item3).has_value());
}

TEST(GroupByTest, StaleBindingNavigationIsStable) {
  Example8 fix;
  GroupByOp gb(fix.stream.get(), {"H"}, "S", "LSs");
  auto b1 = gb.FirstBinding();
  auto b2 = gb.NextBinding(*b1);
  auto b3 = gb.NextBinding(*b2);
  (void)b3;
  // Re-deriving the successor of b1 gives home2 again.
  auto again = gb.NextBinding(*b1);
  EXPECT_EQ(AtomOf(gb.Attr(*again, "H")), "home2");
  // And b1's list still navigates.
  ValueRef list = gb.Attr(*b1, "LSs");
  EXPECT_EQ(list.nav->Fetch(*list.nav->Down(list.id)), "school1");
}

TEST(GroupByTest, GroupingIsByNodeIdentityNotValue) {
  // Two *distinct* nodes with equal labels form two groups (footnote 7:
  // grouping preserves node identities).
  auto doc = testing::Doc("d[k,k,v1,v2]");
  xml::DocNavigable nav(doc.get());
  auto node = [&](int i) {
    return testing::RefTo(&nav, doc->root()->children[static_cast<size_t>(i)]);
  };
  testing::VectorBindingStream stream(
      VarList{"K", "V"}, {{node(0), node(2)}, {node(1), node(3)}});
  GroupByOp gb(&stream, {"K"}, "V", "L");
  EXPECT_EQ(testing::StreamToTerm(&gb),
            "bs[b[K[k],L[list[v1]]],b[K[k],L[list[v2]]]]");
}

TEST(GroupByTest, MultipleGroupVars) {
  auto doc = testing::Doc("d[a,b,x,y,z]");
  xml::DocNavigable nav(doc.get());
  auto node = [&](int i) {
    return testing::RefTo(&nav, doc->root()->children[static_cast<size_t>(i)]);
  };
  // Rows: (a,b,x), (a,b,y), (b,a,z) — grouped by (first,second).
  testing::VectorBindingStream stream(
      VarList{"P", "Q", "V"},
      {{node(0), node(1), node(2)},
       {node(0), node(1), node(3)},
       {node(1), node(0), node(4)}});
  GroupByOp gb(&stream, {"P", "Q"}, "V", "L");
  EXPECT_EQ(testing::StreamToTerm(&gb),
            "bs[b[P[a],Q[b],L[list[x,y]]],b[P[b],Q[a],L[list[z]]]]");
}

TEST(GroupByTest, EmptyGroupVarsCollapsesToOneBinding) {
  Example8 fix;
  GroupByOp gb(fix.stream.get(), {}, "S", "All");
  EXPECT_EQ(testing::StreamToTerm(&gb),
            "bs[b[All[list[school1,school2,school3,school4,school5]]]]");
}

TEST(GroupByTest, EmptyGroupVarsOnEmptyInputYieldsOneEmptyList) {
  // "create one answer element (= for each {})" even with no bindings.
  testing::VectorBindingStream empty(VarList{"X"}, {});
  GroupByOp gb(&empty, {}, "X", "All");
  EXPECT_EQ(testing::StreamToTerm(&gb), "bs[b[All[list]]]");
}

/// Forwards to a binding stream and counts the enumeration calls it gets.
class CountingStream : public BindingStream {
 public:
  explicit CountingStream(BindingStream* inner) : inner_(inner) {}
  const VarList& schema() const override { return inner_->schema(); }
  std::optional<NodeId> FirstBinding() override {
    ++calls;
    return inner_->FirstBinding();
  }
  std::optional<NodeId> NextBinding(const NodeId& b) override {
    ++calls;
    return inner_->NextBinding(b);
  }
  ValueRef Attr(const NodeId& b, const std::string& var) override {
    return inner_->Attr(b, var);
  }
  int calls = 0;

 private:
  BindingStream* inner_;
};

// The one group of groupBy {} exists whatever the input holds, so its
// binding and its list's label cost no input navigation; the first
// navigation of the list probes the input once.
TEST(GroupByTest, EmptyGroupVarsBindingDoesNotProbeInput) {
  for (bool cache_input : {true, false}) {
    Example8 fix;
    CountingStream counted(fix.stream.get());
    GroupByOp gb(&counted, {}, "S", "All", GroupByOp::Options{cache_input});
    std::optional<NodeId> b = gb.FirstBinding();
    ASSERT_TRUE(b.has_value());
    EXPECT_FALSE(gb.NextBinding(*b).has_value());
    ValueRef list = gb.Attr(*b, "All");
    EXPECT_EQ(list.nav->Fetch(list.id), "list");
    EXPECT_EQ(counted.calls, 0) << "cache_input=" << cache_input;

    std::optional<NodeId> first = list.nav->Down(list.id);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(list.nav->Fetch(*first), "school1");
    EXPECT_EQ(counted.calls, 1) << "cache_input=" << cache_input;
    EXPECT_EQ(testing::StreamToTerm(&gb),
              "bs[b[All[list[school1,school2,school3,school4,school5]]]]");
  }
}

// groupBy {} over empty input: the probe settles on the empty list, seen
// the same way by every navigation of it.
TEST(GroupByTest, EmptyGroupVarsOnEmptyInputListHasNoItems) {
  for (bool cache_input : {true, false}) {
    testing::VectorBindingStream empty(VarList{"X"}, {});
    GroupByOp gb(&empty, {}, "X", "All", GroupByOp::Options{cache_input});
    std::optional<NodeId> b = gb.FirstBinding();
    ASSERT_TRUE(b.has_value());
    ValueRef list = gb.Attr(*b, "All");
    std::vector<SubtreeEntry> cut;
    list.nav->FetchSubtree(list.id, 0, &cut);
    ASSERT_EQ(cut.size(), 1u);
    EXPECT_FALSE(cut[0].truncated);
    EXPECT_FALSE(list.nav->Down(list.id).has_value());
    std::vector<NodeId> items;
    list.nav->DownAll(list.id, &items);
    EXPECT_TRUE(items.empty());
    std::vector<SubtreeEntry> full;
    list.nav->FetchSubtree(list.id, -1, &full);
    EXPECT_EQ(full.size(), 1u);
  }
}

TEST(GroupByTest, NonEmptyGroupVarsOnEmptyInputIsEmpty) {
  testing::VectorBindingStream empty(VarList{"K", "X"}, {});
  GroupByOp gb(&empty, {"K"}, "X", "L");
  EXPECT_FALSE(gb.FirstBinding().has_value());
}

TEST(GroupByTest, ItemInteriorNavigationForwards) {
  // Grouped values with structure: interior navigation passes through.
  auto doc = testing::Doc("d[k,school[dir[Smith],zip[91220]]]");
  xml::DocNavigable nav(doc.get());
  auto node = [&](int i) {
    return testing::RefTo(&nav, doc->root()->children[static_cast<size_t>(i)]);
  };
  testing::VectorBindingStream stream(VarList{"K", "S"}, {{node(0), node(1)}});
  GroupByOp gb(&stream, {"K"}, "S", "L");
  auto b = gb.FirstBinding();
  ValueRef list = gb.Attr(*b, "L");
  auto school = list.nav->Down(list.id);
  auto dir = list.nav->Down(*school);
  EXPECT_EQ(list.nav->Fetch(*dir), "dir");
  auto smith = list.nav->Down(*dir);
  EXPECT_EQ(list.nav->Fetch(*smith), "Smith");
  EXPECT_FALSE(list.nav->Down(*smith).has_value());
  auto zip = list.nav->Right(*dir);
  EXPECT_EQ(list.nav->Fetch(*zip), "zip");
}

}  // namespace
}  // namespace mix::algebra
