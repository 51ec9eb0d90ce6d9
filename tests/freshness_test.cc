// The warehousing-vs-virtual argument of Section 1: "when the user is
// interested in the most recent data available ... a virtual,
// demand-driven approach has to be employed. ... the data will have to
// reflect the ever-changing availability of books."
//
// A warehouse is a one-time materialization of the view; the virtual
// mediator re-derives every answer from the live sources. These tests
// update a source *after* view definition and check who notices.
#include <gtest/gtest.h>

#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "test_util.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"

namespace mix::mediator {
namespace {

PlanPtr StockView() {
  auto q = xmas::ParseQuery(
      "CONSTRUCT <instock> $T {$T} </instock> {} "
      "WHERE store books.book $B AND $B stock._ $K AND $K > 0 "
      "AND $B title._ $T");
  return TranslateQuery(q.value()).ValueOrDie();
}

TEST(FreshnessTest, VirtualViewSeesSourceUpdates) {
  // Live store document; the mediator is built BEFORE the update.
  xml::Document store;
  xml::Node* books = store.NewElement("books");
  auto add_book = [&](const std::string& title, const std::string& stock) {
    xml::Node* book = store.NewElement("book");
    xml::Node* t = store.NewElement("title");
    store.AppendChild(t, store.NewText(title));
    xml::Node* k = store.NewElement("stock");
    store.AppendChild(k, store.NewText(stock));
    store.AppendChild(book, t);
    store.AppendChild(book, k);
    store.AppendChild(books, book);
  };
  add_book("Silent Compass", "3");
  add_book("Broken Lantern", "0");
  store.set_root(books);

  xml::DocNavigable nav(&store);
  SourceRegistry sources;
  sources.Register("store", &nav);
  auto plan = StockView();
  auto virtual_mediator = LazyMediator::Build(*plan, sources).ValueOrDie();

  // The warehouse materializes the view once, up front.
  auto warehouse_copy =
      xml::Materialize(virtual_mediator->document()).ValueOrDie();
  xml::DocNavigable warehouse(warehouse_copy.get());

  EXPECT_EQ(testing::MaterializeToTerm(&warehouse),
            "instock[Silent Compass]");

  // New stock arrives after the warehouse load.
  add_book("Golden River", "7");

  // The next *query session* — in MIX, composing the query with the view
  // and instantiating the plan happens per query (Section 3's
  // preprocessing), so operator caches never outlive a session — sees the
  // update; the warehouse serves stale data until reloaded.
  auto next_session = LazyMediator::Build(*plan, sources).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(next_session->document()),
            "instock[Silent Compass,Golden River]");
  EXPECT_EQ(testing::MaterializeToTerm(&warehouse),
            "instock[Silent Compass]");
}

TEST(FreshnessTest, EveryNavigationReDerivesFromLiveSources) {
  xml::Document store;
  xml::Node* books = store.NewElement("books");
  xml::Node* book = store.NewElement("book");
  xml::Node* title = store.NewElement("title");
  store.AppendChild(title, store.NewText("Hidden Garden"));
  xml::Node* stock = store.NewElement("stock");
  xml::Node* stock_value = store.NewText("5");
  store.AppendChild(stock, stock_value);
  store.AppendChild(book, title);
  store.AppendChild(book, stock);
  store.AppendChild(books, book);
  store.set_root(books);

  xml::DocNavigable nav(&store);
  SourceRegistry sources;
  sources.Register("store", &nav);
  auto plan = StockView();
  auto med = LazyMediator::Build(*plan, sources).ValueOrDie();

  EXPECT_EQ(testing::MaterializeToTerm(med->document()),
            "instock[Hidden Garden]");

  // The book sells out: mutate the live stock value in place.
  stock_value->label = "0";
  // A fresh query session sees the empty (but well-formed) answer.
  auto fresh = LazyMediator::Build(*plan, sources).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(fresh->document()), "instock");
}

}  // namespace
}  // namespace mix::mediator
