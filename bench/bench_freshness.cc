// Experiment E9 (DESIGN.md): warehousing vs. the virtual approach under
// source churn (Section 1's motivation for demand-driven evaluation).
//
// Model: a bookstore source of `n` books whose stock changes continuously.
// A user session = skim the first 5 in-stock titles. Between sessions the
// source changes (freshness matters, so the warehouse must reload before
// each session; the virtual mediator just navigates).
//
//   * warehouse: full view materialization per session + cheap local reads;
//   * virtual:   per-session source navigations proportional to what the
//                user reads.
//
// Expected shape: warehouse cost scales with n (the whole catalog per
// refresh); virtual cost is ~flat in n.
#include <benchmark/benchmark.h>

#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"

namespace {

using namespace mix;

std::unique_ptr<xml::Document> MakeStore(int n, int epoch) {
  auto doc = std::make_unique<xml::Document>();
  xml::Node* books = doc->NewElement("books");
  for (int i = 0; i < n; ++i) {
    xml::Node* book = doc->NewElement("book");
    xml::Node* t = doc->NewElement("title");
    doc->AppendChild(t, doc->NewText("title " + std::to_string(i)));
    xml::Node* k = doc->NewElement("stock");
    // Stock churns with the epoch: ~half the catalog in stock at any time.
    doc->AppendChild(
        k, doc->NewText(std::to_string((i * 7 + epoch * 13) % 9 - 4)));
    doc->AppendChild(book, t);
    doc->AppendChild(book, k);
    doc->AppendChild(books, book);
  }
  doc->set_root(books);
  return doc;
}

mediator::PlanPtr StockView() {
  auto q = xmas::ParseQuery(
      "CONSTRUCT <instock> $T {$T} </instock> {} "
      "WHERE store books.book $B AND $B stock._ $K AND $K > 0 "
      "AND $B title._ $T");
  return mediator::TranslateQuery(q.value()).ValueOrDie();
}

/// Skims the first 5 titles of the answer document.
void Skim(Navigable* doc) {
  auto t = doc->Down(doc->Root());
  for (int i = 0; i < 5 && t.has_value(); ++i) {
    benchmark::DoNotOptimize(doc->Fetch(*t));
    t = doc->Right(*t);
  }
}

void BM_VirtualUnderChurn(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto plan = StockView();
  int epoch = 0;
  for (auto _ : state) {
    // The source changed since the last session.
    auto store = MakeStore(n, epoch++);
    state.PauseTiming();  // building the instance is not the system's cost
    state.ResumeTiming();
    xml::DocNavigable nav(store.get());
    NavStats stats;
    CountingNavigable counted(&nav, &stats);
    mediator::SourceRegistry sources;
    sources.Register("store", &counted);
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    Skim(med->document());
    state.counters["src_navs_per_session"] =
        static_cast<double>(stats.total());
  }
}
BENCHMARK(BM_VirtualUnderChurn)
    ->ArgNames({"n"})
    ->Args({100})
    ->Args({1000})
    ->Args({10000});

void BM_WarehouseUnderChurn(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto plan = StockView();
  int epoch = 0;
  for (auto _ : state) {
    auto store = MakeStore(n, epoch++);
    xml::DocNavigable nav(store.get());
    NavStats stats;
    CountingNavigable counted(&nav, &stats);
    mediator::SourceRegistry sources;
    sources.Register("store", &counted);
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    // Freshness forces a reload: materialize the whole view, then read.
    auto warehouse = xml::Materialize(med->document()).ValueOrDie();
    xml::DocNavigable local(warehouse.get());
    Skim(&local);
    state.counters["src_navs_per_session"] =
        static_cast<double>(stats.total());
  }
}
BENCHMARK(BM_WarehouseUnderChurn)
    ->ArgNames({"n"})
    ->Args({100})
    ->Args({1000})
    ->Args({10000});

}  // namespace
