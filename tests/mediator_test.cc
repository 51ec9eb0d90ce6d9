#include <gtest/gtest.h>

#include "buffer/buffer.h"
#include "mediator/instantiate.h"
#include "mediator/reference_eval.h"
#include "mediator/translate.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/random_tree.h"

namespace mix::mediator {
namespace {

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

const char* kHomes =
    "homes[home[addr[La Jolla],zip[91220]],home[addr[El Cajon],zip[91223]],"
    "home[addr[Nowhere],zip[99999]]]";
const char* kSchools =
    "schools[school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]],"
    "school[dir[Hart],zip[91223]]]";

const char* kExpectedAnswer =
    "answer["
    "med_home[home[addr[La Jolla],zip[91220]],"
    "school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]]],"
    "med_home[home[addr[El Cajon],zip[91223]],school[dir[Hart],zip[91223]]]]";

PlanPtr Fig3Plan() {
  auto q = xmas::ParseQuery(kFig3);
  EXPECT_TRUE(q.ok());
  auto plan = TranslateQuery(q.value());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).ValueOrDie();
}

TEST(MediatorTest, RunningExampleEndToEnd) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());

  SourceRegistry sources;
  sources.Register("homesSrc", &homes_nav);
  sources.Register("schoolsSrc", &schools_nav);

  auto mediator = LazyMediator::Build(*Fig3Plan(), sources).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(mediator->document()), kExpectedAnswer);
}

TEST(MediatorTest, MatchesReferenceEvaluation) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  xml::Document scratch;
  ReferenceSources sources{{"homesSrc", homes->root()},
                           {"schoolsSrc", schools->root()}};
  const xml::Node* answer =
      EvaluateReference(*Fig3Plan(), sources, &scratch).ValueOrDie();
  EXPECT_EQ(xml::ToTerm(answer), kExpectedAnswer);
}

TEST(MediatorTest, RootHandleWithoutSourceAccess) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  NavStats homes_stats;
  NavStats schools_stats;
  CountingNavigable homes_counted(&homes_nav, &homes_stats);
  CountingNavigable schools_counted(&schools_nav, &schools_stats);

  SourceRegistry sources;
  sources.Register("homesSrc", &homes_counted);
  sources.Register("schoolsSrc", &schools_counted);
  auto mediator = LazyMediator::Build(*Fig3Plan(), sources).ValueOrDie();

  // Preprocessing contract: the root handle costs zero source navigations.
  NodeId root = mediator->document()->Root();
  EXPECT_EQ(homes_stats.total(), 0);
  EXPECT_EQ(schools_stats.total(), 0);

  // The root's label is free too: the answer's groupBy {} has exactly one
  // group whatever the sources hold, so nothing is probed yet.
  EXPECT_EQ(mediator->document()->Fetch(root), "answer");
  EXPECT_EQ(homes_stats.total(), 0);
  EXPECT_EQ(schools_stats.total(), 0);

  // The first descent resolves the first binding lazily: a handful of
  // navigations, far from a full evaluation of either source.
  ASSERT_TRUE(mediator->document()->Down(root).has_value());
  EXPECT_GT(homes_stats.total(), 0);
  EXPECT_LT(homes_stats.total(), 25);
  EXPECT_LT(schools_stats.total(), 25);
}

TEST(MediatorTest, PartialNavigationTouchesPartOfSources) {
  // A large instance; the client browses only the first med_home.
  auto homes = xml::MakeHomesDoc(500, 50);
  auto schools = xml::MakeSchoolsDoc(500, 50);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  NavStats homes_stats;
  CountingNavigable homes_counted(&homes_nav, &homes_stats);

  SourceRegistry sources;
  sources.Register("homesSrc", &homes_counted);
  sources.Register("schoolsSrc", &schools_nav);
  auto mediator = LazyMediator::Build(*Fig3Plan(), sources).ValueOrDie();

  Navigable* doc = mediator->document();
  auto mh = doc->Down(doc->Root());
  ASSERT_TRUE(mh.has_value());
  EXPECT_EQ(doc->Fetch(*mh), "med_home");
  // The homes source was only touched around its first matching home, not
  // the ~1500 nodes a full evaluation would visit.
  EXPECT_LT(homes_stats.total(), 100);
}

TEST(MediatorTest, OverBufferedLxpSources) {
  // Full stack: XML-file LXP wrappers under buffers under the mediator.
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  wrappers::XmlLxpWrapper::Options wopts;
  wopts.chunk = 2;
  wopts.inline_limit = 3;
  wrappers::XmlLxpWrapper homes_wrapper(homes.get(), wopts);
  wrappers::XmlLxpWrapper schools_wrapper(schools.get(), wopts);
  buffer::BufferComponent homes_buffer(&homes_wrapper, "homes");
  buffer::BufferComponent schools_buffer(&schools_wrapper, "schools");

  SourceRegistry sources;
  sources.Register("homesSrc", &homes_buffer);
  sources.Register("schoolsSrc", &schools_buffer);
  auto mediator = LazyMediator::Build(*Fig3Plan(), sources).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(mediator->document()), kExpectedAnswer);
}

TEST(MediatorTest, StackedMediators) {
  // Fig. 1: a mediator over another mediator's virtual view.
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  SourceRegistry lower_sources;
  lower_sources.Register("homesSrc", &homes_nav);
  lower_sources.Register("schoolsSrc", &schools_nav);
  auto lower = LazyMediator::Build(*Fig3Plan(), lower_sources).ValueOrDie();

  // Upper mediator: extract every school from the lower's virtual answer.
  auto upper_q = xmas::ParseQuery(
      "CONSTRUCT <schools_found> $S {$S} </schools_found> {} "
      "WHERE lower answer.med_home.school $S");
  auto upper_plan = TranslateQuery(upper_q.value()).ValueOrDie();
  SourceRegistry upper_sources;
  upper_sources.Register("lower", lower->document());
  auto upper = LazyMediator::Build(*upper_plan, upper_sources).ValueOrDie();

  EXPECT_EQ(testing::MaterializeToTerm(upper->document()),
            "schools_found[school[dir[Smith],zip[91220]],"
            "school[dir[Bar],zip[91220]],school[dir[Hart],zip[91223]]]");
}

TEST(MediatorTest, UnknownSourceFails) {
  SourceRegistry sources;
  auto result = LazyMediator::Build(*Fig3Plan(), sources);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
}

TEST(MediatorTest, EmptyJoinStillYieldsAnswerElement) {
  auto homes = testing::Doc("homes[home[addr[A],zip[1]]]");
  auto schools = testing::Doc("schools[school[dir[S],zip[2]]]");
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  SourceRegistry sources;
  sources.Register("homesSrc", &homes_nav);
  sources.Register("schoolsSrc", &schools_nav);
  auto mediator = LazyMediator::Build(*Fig3Plan(), sources).ValueOrDie();
  // groupBy{} over an empty stream: one empty answer element.
  EXPECT_EQ(testing::MaterializeToTerm(mediator->document()), "answer");
}

TEST(MediatorTest, EagerBaselineEqualsLazyMaterialization) {
  auto homes = xml::MakeHomesDoc(20, 4);
  auto schools = xml::MakeSchoolsDoc(20, 4);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  SourceRegistry sources;
  sources.Register("homesSrc", &homes_nav);
  sources.Register("schoolsSrc", &schools_nav);
  auto mediator = LazyMediator::Build(*Fig3Plan(), sources).ValueOrDie();
  std::string lazy = testing::MaterializeToTerm(mediator->document());

  xml::Document scratch;
  ReferenceSources ref{{"homesSrc", homes->root()},
                       {"schoolsSrc", schools->root()}};
  const xml::Node* answer =
      EvaluateReference(*Fig3Plan(), ref, &scratch).ValueOrDie();
  EXPECT_EQ(lazy, xml::ToTerm(answer));
}

}  // namespace
}  // namespace mix::mediator
