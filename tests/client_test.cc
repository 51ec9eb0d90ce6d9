#include <gtest/gtest.h>

#include "client/client.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "test_util.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/random_tree.h"
#include "xml/materialize.h"

namespace mix::client {
namespace {

TEST(ClientTest, DomStyleNavigationOverMaterializedDoc) {
  auto doc = testing::Doc("r[a[x],b,c[y[z]]]");
  xml::DocNavigable nav(doc.get());
  VirtualXmlDocument vdoc(&nav);

  XmlElement root = vdoc.Root();
  EXPECT_EQ(root.Name(), "r");
  XmlElement a = root.FirstChild();
  EXPECT_EQ(a.Name(), "a");
  EXPECT_EQ(a.NextSibling().Name(), "b");
  EXPECT_TRUE(a.NextSibling().NextSibling().NextSibling().IsNull());

  EXPECT_EQ(root.Children().size(), 3u);
  EXPECT_EQ(root.Child("c").Name(), "c");
  EXPECT_TRUE(root.Child("zz").IsNull());
  EXPECT_EQ(root.Child("c").Text(), "z");
  EXPECT_TRUE(root.FirstChild().FirstChild().IsLeaf());
  EXPECT_EQ(root.SelectSibling("x").IsNull(), true);
  EXPECT_EQ(a.SelectSibling("c").Name(), "c");
}

TEST(ClientTest, TransparencyOverVirtualDocument) {
  // §5: client code cannot distinguish the virtual answer document from a
  // materialized copy — run the same routine against both and compare.
  auto homes = testing::Doc(
      "homes[home[addr[A],zip[1]],home[addr[B],zip[2]]]");
  auto schools = testing::Doc(
      "schools[school[dir[D1],zip[1]],school[dir[D2],zip[1]]]");
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());

  auto q = xmas::ParseQuery(
      "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} "
      "</answer> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
      "AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2");
  auto plan = mediator::TranslateQuery(q.value()).ValueOrDie();
  mediator::SourceRegistry sources;
  sources.Register("homesSrc", &homes_nav);
  sources.Register("schoolsSrc", &schools_nav);
  auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();

  auto routine = [](const VirtualXmlDocument& vdoc) {
    std::string out;
    XmlElement answer = vdoc.Root();
    for (XmlElement mh = answer.FirstChild(); !mh.IsNull();
         mh = mh.NextSibling()) {
      out += mh.Name() + "(";
      out += mh.Child("home").Child("addr").Text();
      for (XmlElement s = mh.Child("school"); !s.IsNull();
           s = s.SelectSibling("school")) {
        out += "," + s.Child("dir").Text();
      }
      out += ")";
    }
    return out;
  };

  VirtualXmlDocument virt(med->document());
  auto materialized = xml::Materialize(med->document()).ValueOrDie();
  xml::DocNavigable mat_nav(materialized.get());
  VirtualXmlDocument mat(&mat_nav);

  std::string virt_out = routine(virt);
  EXPECT_EQ(virt_out, routine(mat));
  EXPECT_EQ(virt_out, "med_home(A,D1,D2)");
}

TEST(ClientTest, EarlyTerminationNavigatesPrefixOnly) {
  auto homes = xml::MakeHomesDoc(300, 10);
  auto schools = xml::MakeSchoolsDoc(300, 10);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  NavStats stats;
  CountingNavigable counted(&homes_nav, &stats);

  auto q = xmas::ParseQuery(
      "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} "
      "</answer> {} "
      "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
      "AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2");
  auto plan = mediator::TranslateQuery(q.value()).ValueOrDie();
  mediator::SourceRegistry sources;
  sources.Register("homesSrc", &counted);
  sources.Register("schoolsSrc", &schools_nav);
  auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();

  // "navigate the first few results and then stop" (Section 1).
  VirtualXmlDocument vdoc(med->document());
  XmlElement first = vdoc.Root().FirstChild();
  ASSERT_FALSE(first.IsNull());
  std::string addr = first.Child("home").Child("addr").Text();
  EXPECT_FALSE(addr.empty());
  // Far fewer navigations than the ~1800 nodes of the homes source.
  EXPECT_LT(stats.total(), 120);
}

}  // namespace
}  // namespace mix::client

namespace mix::client {
namespace {

TEST(ClientTest, ChildAtAndAttribute) {
  auto parsed = xml::Parse("<r id=\"42\"><a>1</a><b>2</b><c>3</c></r>");
  ASSERT_TRUE(parsed.ok());
  xml::DocNavigable nav(parsed.value().get());
  VirtualXmlDocument vdoc(&nav);
  XmlElement root = vdoc.Root();
  // Children: @id, a, b, c.
  EXPECT_EQ(root.ChildAt(1).Name(), "a");
  EXPECT_EQ(root.ChildAt(3).Text(), "3");
  EXPECT_TRUE(root.ChildAt(4).IsNull());
  EXPECT_EQ(root.Attribute("id"), "42");
  EXPECT_EQ(root.Attribute("missing"), "");
}

}  // namespace
}  // namespace mix::client
