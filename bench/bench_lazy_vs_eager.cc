// Experiment E2 (DESIGN.md): the paper's central claim (Section 1) —
// demand-driven evaluation beats result materialization when users browse
// only the first few results of a broad query.
//
// Workload: the Fig. 3 homes/schools view over synthetic sources of `n`
// homes and `n` schools. The client behaves like the paper's Web user: it
// opens the first `k` med_home elements and skims each one (the home's
// address and the first school), then stops.
//
//   * lazy:  navigate the virtual answer directly;
//   * eager: materialize the complete answer first ("current mediator
//            systems ... materialize the result of the user query"), then
//            skim the first k from the copy.
//
// Reported: wall time per interaction and source navigations. Expected
// shape: lazy cost scales with k; eager cost scales with the full answer
// (which here grows superlinearly in n: groupBy over an unsorted join
// needs end-of-group scans — exactly the "unbounded" scans of Section 2).
#include <benchmark/benchmark.h>

#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "xmas/parser.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

mediator::PlanPtr Fig3Plan() {
  auto q = xmas::ParseQuery(kFig3).ValueOrDie();
  return mediator::TranslateQuery(q).ValueOrDie();
}

struct Instance {
  std::unique_ptr<xml::Document> homes;
  std::unique_ptr<xml::Document> schools;
};

Instance MakeInstance(int n) {
  // ~8 homes/schools per zip keeps school lists short but non-trivial.
  int zips = std::max(1, n / 8);
  return Instance{xml::MakeHomesDoc(n, zips), xml::MakeSchoolsDoc(n, zips)};
}

/// Skims the first k med_homes: home subtree + first school's label.
int64_t SkimFirstK(Navigable* doc, int k) {
  int64_t reads = 0;
  std::optional<NodeId> mh = doc->Down(doc->Root());
  for (int i = 0; i < k && mh.has_value(); ++i) {
    std::optional<NodeId> home = doc->Down(*mh);
    if (home.has_value()) {
      // Read the home record (addr + zip leaves).
      for (auto field = doc->Down(*home); field.has_value();
           field = doc->Right(*field)) {
        if (auto leaf = doc->Down(*field); leaf.has_value()) {
          benchmark::DoNotOptimize(doc->Fetch(*leaf));
          ++reads;
        }
      }
      // Peek at the first school only.
      if (auto school = doc->Right(*home); school.has_value()) {
        benchmark::DoNotOptimize(doc->Fetch(*school));
        ++reads;
      }
    }
    mh = doc->Right(*mh);
  }
  return reads;
}

void RunLazy(benchmark::State& state, int n, int k) {
  Instance inst = MakeInstance(n);
  auto plan = Fig3Plan();
  for (auto _ : state) {
    xml::DocNavigable homes_nav(inst.homes.get());
    xml::DocNavigable schools_nav(inst.schools.get());
    NavStats stats;
    CountingNavigable homes_counted(&homes_nav, &stats);
    CountingNavigable schools_counted(&schools_nav, &stats);
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_counted);
    sources.Register("schoolsSrc", &schools_counted);
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    int64_t reads = SkimFirstK(med->document(), k);
    state.counters["src_navs"] = static_cast<double>(stats.total());
    state.counters["fields_read"] = static_cast<double>(reads);
  }
}

void RunEager(benchmark::State& state, int n, int k) {
  Instance inst = MakeInstance(n);
  auto plan = Fig3Plan();
  for (auto _ : state) {
    xml::DocNavigable homes_nav(inst.homes.get());
    xml::DocNavigable schools_nav(inst.schools.get());
    NavStats stats;
    CountingNavigable homes_counted(&homes_nav, &stats);
    CountingNavigable schools_counted(&schools_nav, &stats);
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_counted);
    sources.Register("schoolsSrc", &schools_counted);
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    // Materialize the complete answer, then skim the first k from the copy.
    auto full = xml::Materialize(med->document()).ValueOrDie();
    xml::DocNavigable answer(full.get());
    int64_t reads = SkimFirstK(&answer, k);
    state.counters["src_navs"] = static_cast<double>(stats.total());
    state.counters["fields_read"] = static_cast<double>(reads);
    state.counters["answer_nodes_total"] =
        static_cast<double>(full->node_count());
  }
}

void BM_LazyFirstK(benchmark::State& state) {
  RunLazy(state, static_cast<int>(state.range(0)),
          static_cast<int>(state.range(1)));
}
BENCHMARK(BM_LazyFirstK)
    ->ArgNames({"n", "k"})
    ->Args({100, 3})
    ->Args({200, 3})
    ->Args({400, 3})
    ->Args({2000, 3})
    ->Args({10000, 3})
    ->Args({400, 1})
    ->Args({400, 10})
    ->Args({400, 50});

void BM_EagerFirstK(benchmark::State& state) {
  RunEager(state, static_cast<int>(state.range(0)),
           static_cast<int>(state.range(1)));
}
BENCHMARK(BM_EagerFirstK)
    ->ArgNames({"n", "k"})
    ->Args({100, 3})
    ->Args({200, 3})
    ->Args({400, 3})
    ->Args({400, 1})
    ->Args({400, 10})
    ->Args({400, 50})
    ->Unit(benchmark::kMillisecond);

// Break-even: when the client reads the WHOLE answer, lazy evaluation
// pays the same end-of-group scans that eager materialization does.
void BM_LazyFullRead(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Instance inst = MakeInstance(n);
  auto plan = Fig3Plan();
  for (auto _ : state) {
    xml::DocNavigable homes_nav(inst.homes.get());
    xml::DocNavigable schools_nav(inst.schools.get());
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    sources.Register("schoolsSrc", &schools_nav);
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    auto full = xml::Materialize(med->document()).ValueOrDie();
    benchmark::DoNotOptimize(full->node_count());
  }
}
BENCHMARK(BM_LazyFullRead)
    ->ArgNames({"n"})
    ->Args({100})
    ->Args({200})
    ->Unit(benchmark::kMillisecond);

}  // namespace
