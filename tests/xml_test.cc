#include <gtest/gtest.h>

#include "test_util.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/parser.h"
#include "xml/random_tree.h"
#include "xml/tree.h"

namespace mix::xml {
namespace {

TEST(TreeTest, BuildAndLinks) {
  Document doc;
  Node* root = doc.NewElement("r");
  Node* a = doc.NewElement("a");
  Node* b = doc.NewText("hello");
  doc.AppendChild(root, a);
  doc.AppendChild(root, b);
  doc.set_root(root);

  EXPECT_EQ(root->first_child(), a);
  EXPECT_EQ(a->right_sibling(), b);
  EXPECT_EQ(b->right_sibling(), nullptr);
  EXPECT_EQ(a->parent, root);
  EXPECT_EQ(b->pos_in_parent, 1);
  EXPECT_EQ(doc.node_count(), 3);
  EXPECT_EQ(doc.NodeAt(a->index), a);
}

TEST(TreeTest, TreeEqualsIgnoresKind) {
  Document d1;
  Node* t = d1.NewText("x");
  Document d2;
  Node* e = d2.NewElement("x");
  EXPECT_TRUE(TreeEquals(t, e));
}

TEST(TreeTest, TreeEqualsStructure) {
  auto a = ParseTerm("r[a,b[c]]").ValueOrDie();
  auto b = ParseTerm("r[a,b[c]]").ValueOrDie();
  auto c = ParseTerm("r[a,b[d]]").ValueOrDie();
  EXPECT_TRUE(TreeEquals(a->root(), b->root()));
  EXPECT_FALSE(TreeEquals(a->root(), c->root()));
}

TEST(TreeTest, ToTermAndSubtreeSize) {
  auto doc = ParseTerm("r[a[x,y],b]").ValueOrDie();
  EXPECT_EQ(ToTerm(doc->root()), "r[a[x,y],b]");
  EXPECT_EQ(SubtreeSize(doc->root()), 5);
}

TEST(ParserTest, BasicDocument) {
  auto doc = Parse("<homes><home><zip>91220</zip></home></homes>").ValueOrDie();
  EXPECT_EQ(ToTerm(doc->root()), "homes[home[zip[91220]]]");
}

TEST(ParserTest, SelfClosingAndMixedWhitespace) {
  auto doc = Parse("<r>\n  <a/>\n  <b> text here </b>\n</r>").ValueOrDie();
  EXPECT_EQ(ToTerm(doc->root()), "r[a,b[text here]]");
}

TEST(ParserTest, AttributesBecomeChildElements) {
  auto doc = Parse("<li class=\"book\"><span>x</span></li>").ValueOrDie();
  EXPECT_EQ(ToTerm(doc->root()), "li[@class[book],span[x]]");
}

TEST(ParserTest, EntitiesDecoded) {
  auto doc = Parse("<a>x &lt; y &amp; z &#65;</a>").ValueOrDie();
  EXPECT_EQ(doc->root()->children[0]->label, "x < y & z A");
}

TEST(ParserTest, CommentsAndPrologSkipped) {
  auto doc =
      Parse("<?xml version=\"1.0\"?><!-- hi --><r><!-- inner --><a/></r>")
          .ValueOrDie();
  EXPECT_EQ(ToTerm(doc->root()), "r[a]");
}

TEST(ParserTest, MismatchedTagIsError) {
  auto r = Parse("<a><b></a></b>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kParseError);
  EXPECT_NE(r.status().ToString().find("mismatched"), std::string::npos);
}

TEST(ParserTest, TrailingContentIsError) {
  EXPECT_FALSE(Parse("<a/><b/>").ok());
}

TEST(ParserTest, UnterminatedIsError) {
  EXPECT_FALSE(Parse("<a><b>").ok());
}

TEST(TermParserTest, RoundTrip) {
  const char* terms[] = {
      "r", "r[a]", "r[a,b,c]", "bs[b[H[home[addr[La Jolla],zip[91220]]]]]",
      "r[list[a,b],x[y[z]]]"};
  for (const char* t : terms) {
    auto doc = ParseTerm(t).ValueOrDie();
    EXPECT_EQ(ToTerm(doc->root()), t);
  }
}

TEST(TermParserTest, EmptyChildListIsElement) {
  auto doc = ParseTerm("r[]").ValueOrDie();
  EXPECT_EQ(doc->root()->kind, NodeKind::kElement);
  EXPECT_TRUE(doc->root()->children.empty());
}

TEST(TermParserTest, Errors) {
  EXPECT_FALSE(ParseTerm("r[a").ok());
  EXPECT_FALSE(ParseTerm("r[a]]").ok());
  EXPECT_FALSE(ParseTerm("").ok());
}

TEST(SerializerTest, EscapesSpecials) {
  Document doc;
  Node* r = doc.NewElement("r");
  doc.AppendChild(r, doc.NewText("a<b&c"));
  doc.set_root(r);
  EXPECT_EQ(ToXml(r), "<r>a&lt;b&amp;c</r>");
}

TEST(SerializerTest, XmlParseSerializeFixpoint) {
  auto doc = Parse("<r><a>1</a><b><c/></b></r>").ValueOrDie();
  std::string xml = ToXml(doc->root());
  auto doc2 = Parse(xml).ValueOrDie();
  EXPECT_TRUE(TreeEquals(doc->root(), doc2->root()));
}

TEST(DocNavigableTest, FullNavigation) {
  auto doc = ParseTerm("r[a[x],b]").ValueOrDie();
  DocNavigable nav(doc.get());
  NodeId root = nav.Root();
  EXPECT_EQ(nav.Fetch(root), "r");
  auto a = nav.Down(root);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(nav.Fetch(*a), "a");
  auto x = nav.Down(*a);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(nav.Fetch(*x), "x");
  EXPECT_FALSE(nav.Down(*x).has_value());
  EXPECT_FALSE(nav.Right(*x).has_value());
  auto b = nav.Right(*a);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(nav.Fetch(*b), "b");
  EXPECT_FALSE(nav.Right(*b).has_value());
}

TEST(DocNavigableTest, NavigationFromStaleIdsWorks) {
  auto doc = ParseTerm("r[a,b,c]").ValueOrDie();
  DocNavigable nav(doc.get());
  auto a = nav.Down(nav.Root());
  auto b = nav.Right(*a);
  auto c = nav.Right(*b);
  // Go back to the old pointer and navigate again.
  EXPECT_EQ(nav.Fetch(*a), "a");
  auto b2 = nav.Right(*a);
  EXPECT_EQ(*b2, *b);
  EXPECT_EQ(nav.Fetch(*c), "c");
}

TEST(MaterializeTest, CopiesWholeTree) {
  auto doc = ParseTerm("r[a[x,y],b[z]]").ValueOrDie();
  DocNavigable nav(doc.get());
  auto copy = Materialize(&nav).ValueOrDie();
  EXPECT_TRUE(TreeEquals(doc->root(), copy->root()));
}

TEST(MaterializeTest, PrefixStopsEarly) {
  auto doc = ParseTerm("r[a,b,c,d,e]").ValueOrDie();
  DocNavigable nav(doc.get());
  Document out;
  Node* root = MaterializePrefixInto(&nav, &out, 3);
  // Root + two children fit in the budget of 3.
  EXPECT_EQ(SubtreeSize(root), 3);
}

TEST(RandomTreeTest, DeterministicInSeed) {
  RandomTreeOptions options;
  options.seed = 99;
  auto a = RandomTree(options);
  auto b = RandomTree(options);
  EXPECT_TRUE(TreeEquals(a->root(), b->root()));
  options.seed = 100;
  auto c = RandomTree(options);
  EXPECT_FALSE(TreeEquals(a->root(), c->root()));
}

TEST(RandomTreeTest, HomesAndSchoolsShape) {
  auto homes = MakeHomesDoc(3, 2);
  EXPECT_EQ(homes->root()->label, "homes");
  ASSERT_EQ(homes->root()->children.size(), 3u);
  const Node* home = homes->root()->children[0];
  EXPECT_EQ(home->label, "home");
  ASSERT_EQ(home->children.size(), 2u);
  EXPECT_EQ(home->children[0]->label, "addr");
  EXPECT_EQ(home->children[1]->label, "zip");

  auto schools = MakeSchoolsDoc(2, 2);
  EXPECT_EQ(schools->root()->label, "schools");
  EXPECT_EQ(schools->root()->children[0]->children[0]->label, "dir");
}

TEST(RandomTreeTest, ZipForDeterminesJoinKeys) {
  // A home and school generated with the same seed at position i share zip.
  EXPECT_EQ(ZipFor(5, 10, 7), ZipFor(5, 10, 7));
  std::string z = ZipFor(0, 1, 7);
  EXPECT_EQ(z, "91000");  // single zip value
}

}  // namespace
}  // namespace mix::xml
