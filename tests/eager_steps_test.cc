// "Intermediate eager steps" (paper Section 6): materialize operator,
// hash-indexed join, and groupBy's Fig. 10 input-enumeration cache.
#include <gtest/gtest.h>

#include "algebra/get_descendants_op.h"
#include "algebra/group_by_op.h"
#include "algebra/join_op.h"
#include "algebra/materialize_op.h"
#include "algebra/nav_memo.h"
#include "algebra/source_op.h"
#include "mediator/browsability.h"
#include "mediator/instantiate.h"
#include "test_util.h"
#include "xml/doc_navigable.h"
#include "xml/random_tree.h"

namespace mix::algebra {
namespace {

using pathexpr::PathExpr;

struct Chain {
  Chain(const xml::Document* doc, const std::string& elem, const char* var,
        const std::string& leaf, const char* leaf_var)
      : nav(doc),
        counted(&nav, &stats),
        source(&counted, std::string("#r") + var),
        elems(&source, std::string("#r") + var,
              PathExpr::Parse(elem).ValueOrDie(), var),
        leafs(&elems, var, PathExpr::Parse(leaf).ValueOrDie(), leaf_var) {}

  NavStats stats;
  xml::DocNavigable nav;
  CountingNavigable counted;
  SourceOp source;
  GetDescendantsOp elems;
  GetDescendantsOp leafs;
};

// ---------------------------------------------------------------------------
// MaterializeOp
// ---------------------------------------------------------------------------

TEST(MaterializeOpTest, IdentitySemantics) {
  auto doc = testing::Doc("r[n[1],n[2],n[3]]");
  Chain c(doc.get(), "n", "N", "_", "V");
  MaterializeOp mz(&c.leafs);
  EXPECT_EQ(mz.schema(), c.leafs.schema());
  EXPECT_EQ(testing::StreamToTerm(&mz),
            "bs[b[#rN[r[n[1],n[2],n[3]]],N[n[1]],V[1]],"
            "b[#rN[r[n[1],n[2],n[3]]],N[n[2]],V[2]],"
            "b[#rN[r[n[1],n[2],n[3]]],N[n[3]],V[3]]]");
}

TEST(MaterializeOpTest, LazyUntilFirstAccessThenDrainsOnce) {
  auto doc = testing::Doc("r[n[1],n[2],n[3]]");
  Chain c(doc.get(), "n", "N", "_", "V");
  MaterializeOp mz(&c.leafs);
  // Construction is free.
  EXPECT_FALSE(mz.materialized());
  EXPECT_EQ(c.stats.total(), 0);
  // First access drains the input completely...
  auto b = mz.FirstBinding();
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(mz.materialized());
  EXPECT_EQ(mz.binding_count(), 3);
  int64_t after_drain = c.stats.total();
  EXPECT_GT(after_drain, 0);
  // ...and iteration afterwards re-navigates nothing.
  int count = 0;
  for (auto it = mz.FirstBinding(); it.has_value();
       it = mz.NextBinding(*it)) {
    ++count;
  }
  EXPECT_EQ(count, 3);
  EXPECT_EQ(c.stats.total(), after_drain);
}

TEST(MaterializeOpTest, EmptyInput) {
  auto doc = testing::Doc("r[x]");
  Chain c(doc.get(), "nothing", "N", "_", "V");
  MaterializeOp mz(&c.leafs);
  EXPECT_FALSE(mz.FirstBinding().has_value());
}

TEST(MaterializeOpTest, ClassifiedUnbrowsable) {
  auto plan = mediator::PlanNode::TupleDestroy(
      mediator::PlanNode::WrapList(
          mediator::PlanNode::Materialize(mediator::PlanNode::GetDescendants(
              mediator::PlanNode::Source("s", "R"), "R", "a", "A")),
          "A", "W"),
      "W");
  auto report = mediator::Classify(*plan, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().cls, mediator::Browsability::kUnbrowsable);
}

// ---------------------------------------------------------------------------
// Hash-indexed join
// ---------------------------------------------------------------------------

std::pair<std::string, int64_t> RunJoin(bool index, int n) {
  auto homes = xml::MakeHomesDoc(n, n / 4);
  auto schools = xml::MakeSchoolsDoc(n, n / 4);
  Chain l(homes.get(), "home", "H", "zip._", "V1");
  Chain r(schools.get(), "school", "S", "zip._", "V2");
  JoinOp::Options options;
  options.index_inner = index;
  JoinOp join(&l.leafs, &r.leafs,
              BindingPredicate::VarVar("V1", CompareOp::kEq, "V2"), options);
  std::string out;
  for (auto b = join.FirstBinding(); b.has_value(); b = join.NextBinding(*b)) {
    out += AtomOf(join.Attr(*b, "V1")) + ";";
  }
  return {out, l.stats.total() + r.stats.total()};
}

TEST(HashJoinTest, SameResultsAsNestedLoops) {
  auto [indexed, indexed_navs] = RunJoin(true, 60);
  auto [nested, nested_navs] = RunJoin(false, 60);
  EXPECT_EQ(indexed, nested);
  EXPECT_FALSE(indexed.empty());
}

TEST(HashJoinTest, NumericAtomNormalization) {
  // "2.50" and "2.5" must join under the index, as they do under the
  // numeric-aware nested-loops comparison.
  auto l_doc = testing::Doc("r[k[2.50]]");
  auto r_doc = testing::Doc("r[k[2.5]]");
  Chain l(l_doc.get(), "k", "A", "_", "K1");
  Chain r(r_doc.get(), "k", "B", "_", "K2");
  JoinOp::Options options;
  options.index_inner = true;
  JoinOp join(&l.leafs, &r.leafs,
              BindingPredicate::VarVar("K1", CompareOp::kEq, "K2"), options);
  EXPECT_TRUE(join.FirstBinding().has_value());
}

TEST(HashJoinTest, EagerStepTradeoff) {
  // First result: the index drains the inner side up front (eager), the
  // nested loop stops at the first match (lazy).
  auto schools = xml::MakeSchoolsDoc(500, 1);  // every zip is "91000"
  auto homes2 = testing::Doc("homes[home[zip[91000]]]");

  auto run = [&](bool index) {
    Chain l(homes2.get(), "home", "H", "zip._", "V1");
    Chain r(schools.get(), "school", "S", "zip._", "V2");
    JoinOp::Options options;
    options.index_inner = index;
    JoinOp join(&l.leafs, &r.leafs,
                BindingPredicate::VarVar("V1", CompareOp::kEq, "V2"),
                options);
    EXPECT_TRUE(join.FirstBinding().has_value());
    return r.stats.total();
  };
  int64_t lazy_first = run(false);
  int64_t eager_first = run(true);
  // The eager step touches the whole inner source before the first result.
  EXPECT_GT(eager_first, lazy_first * 10);
}

TEST(HashJoinTest, NonEqPredicateFallsBack) {
  auto l_doc = testing::Doc("r[k[5]]");
  auto r_doc = testing::Doc("r[k[3],k[7]]");
  Chain l(l_doc.get(), "k", "A", "_", "K1");
  Chain r(r_doc.get(), "k", "B", "_", "K2");
  JoinOp::Options options;
  options.index_inner = true;  // ignored for non-eq
  JoinOp join(&l.leafs, &r.leafs,
              BindingPredicate::VarVar("K1", CompareOp::kGt, "K2"), options);
  auto b = join.FirstBinding();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(AtomOf(join.Attr(*b, "K2")), "3");
  EXPECT_FALSE(join.NextBinding(*b).has_value());
}

// ---------------------------------------------------------------------------
// groupBy input-enumeration cache (Fig. 10's closing optimization)
// ---------------------------------------------------------------------------

/// Iterates all groups and their item *positions* without touching any
/// value content — isolating the Fig. 10 scans from value navigation
/// (values are never cached; re-reading them re-drives the source by
/// design).
int64_t DriveScansOnly(GroupByOp* gb, const NavStats& stats) {
  for (auto b = gb->FirstBinding(); b.has_value(); b = gb->NextBinding(*b)) {
    ValueRef list = gb->Attr(*b, "L");
    for (auto item = list.nav->Down(list.id); item.has_value();
         item = list.nav->Right(*item)) {
    }
  }
  return stats.total();
}

TEST(GroupByCacheTest, SameResultsWithAndWithoutCache) {
  auto run = [](bool cache) {
    auto doc = testing::Doc(
        "regions[region[h[1],h[2]],region[h[3]],region[h[4],h[5]]]");
    Chain c(doc.get(), "region", "G", "h._", "V");
    GroupByOp::Options options;
    options.cache_input = cache;
    GroupByOp gb(&c.leafs, {"G"}, "V", "L", options);
    return testing::StreamToTerm(&gb);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(GroupByCacheTest, CacheCutsScanNavigations) {
  // Pin the per-operator navigation memo off so this ablation isolates the
  // Fig. 10 input-enumeration cache (otherwise the upstream getDescendants
  // memo absorbs the cache-less groupBy's re-drives and both runs tie).
  size_t saved = DefaultNavMemoCapacity();
  SetDefaultNavMemoCapacity(0);
  auto run = [](bool cache) {
    auto doc = testing::Doc(
        "regions[region[h[1],h[2]],region[h[3]],region[h[4],h[5]],"
        "region[h[6]],region[h[7],h[8]]]");
    Chain c(doc.get(), "region", "G", "h._", "V");
    GroupByOp::Options options;
    options.cache_input = cache;
    GroupByOp gb(&c.leafs, {"G"}, "V", "L", options);
    return DriveScansOnly(&gb, c.stats);
  };
  int64_t cached = run(true);
  int64_t plain = run(false);
  SetDefaultNavMemoCapacity(saved);
  // Item scans + next_gb scans revisit the same input regions; only the
  // cache-less operator re-drives the input operator for them.
  EXPECT_LT(cached, plain);
}

TEST(GroupByCacheTest, SecondPassIsScanFree) {
  auto doc = testing::Doc(
      "regions[region[h[1],h[2]],region[h[3]],region[h[4]]]");
  Chain c(doc.get(), "region", "G", "h._", "V");
  GroupByOp gb(&c.leafs, {"G"}, "V", "L");

  int64_t after_first = DriveScansOnly(&gb, c.stats);
  // Second pass over the same operator: enumeration fully memoized.
  int64_t after_second = DriveScansOnly(&gb, c.stats);
  EXPECT_EQ(after_first, after_second);
}

}  // namespace
}  // namespace mix::algebra
