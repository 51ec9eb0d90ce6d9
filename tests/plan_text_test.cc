// Textual plan round-trip (mediator/plan_text.h).
#include <gtest/gtest.h>

#include "mediator/plan_text.h"
#include "mediator/translate.h"
#include "mediator/instantiate.h"
#include "mediator/reference_eval.h"
#include "test_util.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"

namespace mix::mediator {
namespace {

PlanPtr Fig3Plan() {
  auto q = xmas::ParseQuery(
      "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} "
      "</answer> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
      "AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2");
  return TranslateQuery(q.value()).ValueOrDie();
}

TEST(PlanTextTest, Fig3RoundTrip) {
  PlanPtr plan = Fig3Plan();
  std::string text = plan->ToString();
  auto parsed = ParsePlanText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value()->ToString(), text);
}

TEST(PlanTextTest, AllOperatorsRoundTrip) {
  using algebra::BindingPredicate;
  using algebra::CompareOp;
  PlanPtr left = PlanNode::GetDescendants(PlanNode::Source("s1", "R1"), "R1",
                                          "a.(b|c)*._", "X");
  left->use_sigma = true;
  left = PlanNode::Select(std::move(left),
                          BindingPredicate::VarConst("X", CompareOp::kGe, "5"));
  left = PlanNode::Distinct(std::move(left));
  left = PlanNode::OrderBy(std::move(left), {"X"});
  left = PlanNode::Materialize(std::move(left));
  PlanPtr right = PlanNode::GetDescendants(PlanNode::Source("s2", "R2"), "R2",
                                           "k", "Y");
  PlanPtr join =
      PlanNode::Join(std::move(left), std::move(right),
                     BindingPredicate::VarVar("X", CompareOp::kNe, "Y"));
  PlanPtr plan = PlanNode::GroupBy(std::move(join), {"X", "Y"}, "R1", "L");
  plan = PlanNode::Const(std::move(plan), "text, with ] and '", "T");
  plan = PlanNode::Concatenate(std::move(plan), "L", "T", "Z");
  plan = PlanNode::WrapList(std::move(plan), "Z", "W");
  plan = PlanNode::CreateElement(std::move(plan), false, "X", "W", "E");
  plan = PlanNode::Rename(std::move(plan), "E", "Out");
  plan = PlanNode::Project(std::move(plan), {"Out"});
  PlanPtr root = PlanNode::TupleDestroy(std::move(plan), "Out");

  std::string text = root->ToString();
  auto parsed = ParsePlanText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  EXPECT_EQ(parsed.value()->ToString(), text);
}

TEST(PlanTextTest, ParsedPlanExecutes) {
  PlanPtr plan = Fig3Plan();
  auto parsed = ParsePlanText(plan->ToString()).ValueOrDie();

  auto homes = testing::Doc("homes[home[addr[A],zip[1]]]");
  auto schools = testing::Doc("schools[school[dir[D],zip[1]]]");
  xml::DocNavigable hn(homes.get()), sn(schools.get());
  xml::DocNavigable hn2(homes.get()), sn2(schools.get());
  SourceRegistry s1, s2;
  s1.Register("homesSrc", &hn);
  s1.Register("schoolsSrc", &sn);
  s2.Register("homesSrc", &hn2);
  s2.Register("schoolsSrc", &sn2);
  auto m1 = LazyMediator::Build(*plan, s1).ValueOrDie();
  auto m2 = LazyMediator::Build(*parsed, s2).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(m1->document()),
            testing::MaterializeToTerm(m2->document()));
}

TEST(PlanTextTest, OccurrenceOrderByRoundTrip) {
  PlanPtr plan = PlanNode::TupleDestroy(
      PlanNode::WrapList(
          PlanNode::OrderByOccurrence(
              PlanNode::GetDescendants(PlanNode::Source("s", "R"), "R", "a",
                                       "A"),
              {"A"}),
          "A", "W"),
      "W");
  std::string text = plan->ToString();
  EXPECT_NE(text.find("occurrence"), std::string::npos);
  auto parsed = ParsePlanText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value()->ToString(), text);
  EXPECT_TRUE(parsed.value()
                  ->children[0]
                  ->children[0]
                  ->order_by_occurrence);
}

TEST(PlanTextTest, Errors) {
  EXPECT_FALSE(ParsePlanText("").ok());
  EXPECT_FALSE(ParsePlanText("nonsense[]").ok());
  EXPECT_FALSE(ParsePlanText("tupleDestroy[$X]").ok());  // missing child
  EXPECT_FALSE(ParsePlanText("tupleDestroy[$X]\n   source[s -> $X]").ok());
  EXPECT_FALSE(
      ParsePlanText("tupleDestroy[$X]\n  source[s -> $X]\n  source[t -> $Y]")
          .ok());  // extra subtree
  EXPECT_FALSE(ParsePlanText("select[oops]\n  source[s -> $X]").ok());
}

TEST(PlanTextTest, CloneIsDeepAndEqualRendering) {
  auto q = xmas::ParseQuery(
      "CONSTRUCT <a> $H {$H} </a> {} WHERE src homes.home $H");
  PlanPtr plan = TranslateQuery(q.value()).ValueOrDie();
  PlanPtr clone = plan->Clone();
  EXPECT_EQ(plan->ToString(), clone->ToString());
  clone->children[0]->label = "changed";
  EXPECT_NE(plan->ToString(), clone->ToString());
}

}  // namespace
}  // namespace mix::mediator
