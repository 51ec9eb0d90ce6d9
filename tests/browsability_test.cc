#include <gtest/gtest.h>

#include "mediator/browsability.h"
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
