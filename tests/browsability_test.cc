#include <gtest/gtest.h>

#include "mediator/browsability.h"
#include "mediator/passes/pass.h"
#include "mediator/plan_text.h"
#include "mediator/translate.h"
#include "xmas/parser.h"

namespace mix::mediator {
namespace {

using algebra::BindingPredicate;
using algebra::CompareOp;

/// Classifies `plan` with σ declared for exactly `sigma_sources`.
BrowsabilityReport ClassifyPlan(const PlanNode& plan,
                                const std::vector<std::string>& sigma_sources =
                                    {}) {
  SourceCapabilities caps;
  for (const std::string& name : sigma_sources) caps[name].sigma = true;
  auto report = Classify(plan, caps);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.value() : BrowsabilityReport{};
}

// Example 1's q_conc: concatenation of first-level elements of two sources
// — pure structural operators — bounded browsable.
TEST(BrowsabilityTest, StructuralPlanIsBounded) {
  // Both sources bind $R, so the union's input schemas agree.
  PlanPtr s1 = PlanNode::Source("src1", "R");
  PlanPtr s2 = PlanNode::Source("src2", "R");
  PlanPtr plan = PlanNode::TupleDestroy(
      PlanNode::WrapList(PlanNode::Union(std::move(s1), std::move(s2)), "R",
                         "W"),
      "W");
  EXPECT_EQ(ClassifyPlan(*plan).cls, Browsability::kBoundedBrowsable);
}

TEST(BrowsabilityTest, LabelChainGetDescendantsDependsOnSigma) {
  PlanPtr plan = PlanNode::TupleDestroy(
      PlanNode::WrapList(
          PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R",
                                   "homes.home", "H"),
          "H", "W"),
      "W");
  EXPECT_EQ(ClassifyPlan(*plan).cls, Browsability::kBrowsable);
  // With σ in the command set, the same view becomes bounded (Section 2).
  EXPECT_EQ(ClassifyPlan(*plan, {"s"}).cls, Browsability::kBoundedBrowsable);
  // σ is resolved per source: another source's σ does not help.
  EXPECT_EQ(ClassifyPlan(*plan, {"other"}).cls, Browsability::kBrowsable);
}

TEST(BrowsabilityTest, WildcardPathNotUpgradedBySigma) {
  PlanPtr plan = PlanNode::TupleDestroy(
      PlanNode::WrapList(PlanNode::GetDescendants(PlanNode::Source("s", "R"),
                                                  "R", "_*.zip", "Z"),
                         "Z", "W"),
      "W");
  EXPECT_EQ(ClassifyPlan(*plan, {"s"}).cls, Browsability::kBrowsable);
}

TEST(BrowsabilityTest, SelectionIsBrowsable) {
  PlanPtr plan = PlanNode::TupleDestroy(
      PlanNode::WrapList(
          PlanNode::Select(PlanNode::GetDescendants(
                               PlanNode::Source("s", "R"), "R", "a", "A"),
                           BindingPredicate::VarConst("A", CompareOp::kEq,
                                                      "x")),
          "A", "W"),
      "W");
  auto report = ClassifyPlan(*plan, {"s"});
  EXPECT_EQ(report.cls, Browsability::kBrowsable);
  ASSERT_FALSE(report.reasons.empty());
}

// The zip lookup `mixql --algebra --analyze` reads: a select fused into a
// label-chain getDescendants over a σ source. σ reaches the next zip in one
// exchange, but not the next zip equal to '91220', so the view stays
// browsable and keeps the select's reason.
const char* kFusedZipLookup =
    "tupleDestroy[$W]\n"
    "  wrapList[$Z -> $W]\n"
    "    getDescendants[$R,homes.home.zip -> $Z, sigma, where $Z='91220']\n"
    "      source[homesSrc -> $R]\n";

TEST(BrowsabilityTest, FusedFilterOverSigmaSourceIsBrowsable) {
  auto plan = ParsePlanText(kFusedZipLookup);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto report = ClassifyPlan(*plan.value(), {"homesSrc"});
  EXPECT_EQ(report.cls, Browsability::kBrowsable);
  EXPECT_EQ(report.reasons,
            std::vector<std::string>{"select[$Z='91220']: scan to the next "
                                     "satisfying binding is unbounded"});

  // The same σ scan without the filter is bounded.
  PlanNode* gd = plan.value()->children[0]->children[0].get();
  ASSERT_EQ(gd->kind, PlanNode::Kind::kGetDescendants);
  gd->predicate.reset();
  EXPECT_EQ(ClassifyPlan(*plan.value(), {"homesSrc"}).cls,
            Browsability::kBoundedBrowsable);
}

// The browsability pass still turns σ on under a fused filter: σ shortens
// the scan even where it cannot bound it.
TEST(BrowsabilityTest, PassEnablesSigmaUnderFusedFilter) {
  std::string text = kFusedZipLookup;
  text.erase(text.find(", sigma"), 7);
  auto plan = ParsePlanText(text);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  passes::OptimizerOptions options;
  options.sources["homesSrc"].sigma = true;
  ASSERT_TRUE(passes::OptimizePlan(&plan.value(), options).ok());
  EXPECT_EQ(plan.value()->ToString(), kFusedZipLookup);
}

// Fusion moves a select into the getDescendants below it; the select's
// reason must survive the move.
TEST(BrowsabilityTest, FusedSelectKeepsItsReason) {
  auto q = xmas::ParseQuery(
      "CONSTRUCT <expensive> $N {$N} </expensive> {} "
      "WHERE cat catalog.item $I AND $I name._ $N AND $I price._ $P "
      "AND $P > 50");
  ASSERT_TRUE(q.ok());
  PlanPtr plan = TranslateQuery(q.value()).ValueOrDie();
  passes::OptimizerOptions options;
  options.sources["cat"].sigma = true;
  auto optimized = passes::OptimizePlan(&plan, options);
  ASSERT_TRUE(optimized.ok());
  ASSERT_GT(optimized.value().applied("fusion"), 0);
  auto report = ClassifyPlan(*plan, {"cat"});
  EXPECT_EQ(report.cls, Browsability::kBrowsable);
  bool select_reason = false;
  for (const std::string& reason : report.reasons) {
    select_reason = select_reason ||
                    reason.find("select[$P>'50']") != std::string::npos;
  }
  EXPECT_TRUE(select_reason);
}

TEST(BrowsabilityTest, OrderByIsUnbrowsable) {
  // Example 1's third view: reorder by an arithmetic attribute.
  PlanPtr plan = PlanNode::TupleDestroy(
      PlanNode::WrapList(
          PlanNode::OrderBy(PlanNode::GetDescendants(
                                PlanNode::Source("s", "R"), "R", "age", "A"),
                            {"A"}),
          "A", "W"),
      "W");
  auto report = ClassifyPlan(*plan, {"s"});
  EXPECT_EQ(report.cls, Browsability::kUnbrowsable);
}

TEST(BrowsabilityTest, DifferenceIsUnbrowsable) {
  PlanPtr l = PlanNode::Source("s1", "R");
  PlanPtr r = PlanNode::Source("s2", "R");
  PlanPtr plan = PlanNode::TupleDestroy(
      PlanNode::WrapList(PlanNode::Difference(std::move(l), std::move(r)),
                         "R", "W"),
      "W");
  EXPECT_EQ(ClassifyPlan(*plan).cls, Browsability::kUnbrowsable);
}

TEST(BrowsabilityTest, WorstOperatorDominates) {
  // join (browsable) + orderBy (unbrowsable) => unbrowsable, with both
  // reasons reported.
  PlanPtr l = PlanNode::GetDescendants(PlanNode::Source("s1", "R1"), "R1",
                                       "a.k", "K1");
  PlanPtr r = PlanNode::GetDescendants(PlanNode::Source("s2", "R2"), "R2",
                                       "b.k", "K2");
  PlanPtr plan = PlanNode::TupleDestroy(
      PlanNode::WrapList(
          PlanNode::OrderBy(
              PlanNode::Join(std::move(l), std::move(r),
                             BindingPredicate::VarVar("K1", CompareOp::kEq,
                                                      "K2")),
              {"K1"}),
          "K1", "W"),
      "W");
  auto report = ClassifyPlan(*plan, {"s1", "s2"});
  EXPECT_EQ(report.cls, Browsability::kUnbrowsable);
  EXPECT_GE(report.reasons.size(), 2u);
}

TEST(BrowsabilityTest, Fig3PlanIsBrowsable) {
  auto q = xmas::ParseQuery(
      "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} "
      "</answer> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
      "AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2");
  auto plan = TranslateQuery(q.value()).ValueOrDie();
  auto report = ClassifyPlan(*plan, {"homesSrc", "schoolsSrc"});
  // join + groupBy keep it (unbounded) browsable but never unbrowsable.
  EXPECT_EQ(report.cls, Browsability::kBrowsable);
}

TEST(BrowsabilityTest, Names) {
  EXPECT_STREQ(BrowsabilityName(Browsability::kBoundedBrowsable),
               "bounded browsable");
  EXPECT_STREQ(BrowsabilityName(Browsability::kBrowsable), "browsable");
  EXPECT_STREQ(BrowsabilityName(Browsability::kUnbrowsable), "unbrowsable");
}

}  // namespace
}  // namespace mix::mediator
