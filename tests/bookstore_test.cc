#include <gtest/gtest.h>

#include "buffer/buffer.h"
#include "test_util.h"
#include "wrappers/bookstore.h"
#include "xml/parser.h"

namespace mix::wrappers {
namespace {

TEST(CatalogTest, DeterministicInSeed) {
  CatalogOptions options;
  options.size = 10;
  options.seed = 3;
  auto a = MakeCatalog(options);
  auto b = MakeCatalog(options);
  ASSERT_EQ(a.size(), 10u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].title, b[i].title);
    EXPECT_EQ(a[i].price_cents, b[i].price_cents);
  }
}

TEST(CatalogTest, SharedPrefixOverlapsAcrossStores) {
  CatalogOptions amazon{20, 1, 5};
  CatalogOptions bn{20, 2, 5};
  auto a = MakeCatalog(amazon);
  auto b = MakeCatalog(bn);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a[static_cast<size_t>(i)].title, b[static_cast<size_t>(i)].title);
  }
  // Disjoint seeds beyond the shared prefix (overwhelmingly likely to
  // differ; check one position).
  EXPECT_NE(a[10].title, b[10].title);
}

TEST(BookstoreSiteTest, PaginationAndHtmlWellFormed) {
  BookstoreSite site("amazon", MakeCatalog({25, 1, 0}), 10);
  EXPECT_EQ(site.page_count(), 3);
  for (int p = 0; p < 3; ++p) {
    std::string html = site.RenderPageHtml(p);
    auto parsed = xml::Parse(html);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
  // Last page holds the remainder.
  std::string last = site.RenderPageHtml(2);
  EXPECT_EQ(last.find("rel=\"next\""), std::string::npos);
  std::string first = site.RenderPageHtml(0);
  EXPECT_NE(first.find("rel=\"next\""), std::string::npos);
}

TEST(BookstoreWrapperTest, ScrapesBooksFromHtml) {
  auto catalog = MakeCatalog({7, 1, 0});
  BookstoreSite site("amazon", catalog, 3);
  BookstoreLxpWrapper wrapper(&site);
  buffer::BufferComponent buffer(&wrapper, "http://amazon");

  NodeId root = buffer.Root();
  EXPECT_EQ(buffer.Fetch(root), "books");
  auto book = buffer.Down(root);
  ASSERT_TRUE(book.has_value());
  EXPECT_EQ(buffer.Fetch(*book), "book");
  auto title = buffer.Down(*book);
  EXPECT_EQ(buffer.Fetch(*title), "title");
  auto title_text = buffer.Down(*title);
  EXPECT_EQ(buffer.Fetch(*title_text), catalog[0].title);
}

TEST(BookstoreWrapperTest, PageAtATimeFetching) {
  BookstoreSite site("amazon", MakeCatalog({30, 1, 0}), 10);
  BookstoreLxpWrapper wrapper(&site);
  buffer::BufferComponent buffer(&wrapper, "http://amazon");

  // Browsing the first 10 books costs exactly one page fetch.
  auto book = buffer.Down(buffer.Root());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(book.has_value());
    book = buffer.Right(*book);
  }
  EXPECT_EQ(wrapper.pages_fetched(), 1);
  // The 11th book triggers the second page.
  ASSERT_TRUE(book.has_value());
  book = buffer.Right(*book);
  ASSERT_TRUE(book.has_value());
  EXPECT_EQ(wrapper.pages_fetched(), 2);
  EXPECT_EQ(site.pages_served(), 2);
}

TEST(BookstoreWrapperTest, FullCatalogRoundTrip) {
  auto catalog = MakeCatalog({12, 9, 0});
  BookstoreSite site("bn", catalog, 5);
  BookstoreLxpWrapper wrapper(&site);
  buffer::BufferComponent buffer(&wrapper, "http://bn");

  auto doc = xml::Materialize(&buffer).ValueOrDie();
  ASSERT_EQ(doc->root()->children.size(), 12u);
  for (size_t i = 0; i < 12; ++i) {
    const xml::Node* book = doc->root()->children[i];
    EXPECT_EQ(book->children[0]->children[0]->label, catalog[i].title);
    EXPECT_EQ(book->children[1]->children[0]->label, catalog[i].author);
    EXPECT_EQ(book->children[2]->children[0]->label,
              std::to_string(catalog[i].price_cents));
  }
  EXPECT_EQ(wrapper.pages_fetched(), 3);
}

}  // namespace
}  // namespace mix::wrappers
