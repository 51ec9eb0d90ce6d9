// Experiment E8 (DESIGN.md): the vectored navigation fast path — batched
// DownAll / NextSiblings / FetchSubtree against the node-at-a-time d/r/f
// loops they replace (Section 4's amortization argument, applied above the
// wrapper edge: one batch request per operator layer instead of N
// single-step translations).
//
//   * full-tree materialization through the Fig. 3/4 plan (tupleDestroy ·
//     createElement · join · select · source — 5 operator layers): wall
//     time batched vs. node-at-a-time;
//   * the same materialization over demand-paged LXP sources: simulated
//     messages and bytes, where FillMany coalesces sibling holes;
//   * paged child browsing on a buffered source: the client-visible
//     round-trip collapse (k hole fills -> one request/response pair).
#include <benchmark/benchmark.h>

#include "buffer/buffer.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "net/sim_net.h"
#include "wrappers/xml_lxp_wrapper.h"
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

/// Full-tree materialization of the Fig. 3 answer over in-memory sources:
/// the pure CPU cost of the plan's navigation machinery (node-id minting,
/// memo lookups, virtual dispatch), with the network out of the picture.
void BM_MaterializeFig3(benchmark::State& state) {
  bool batched = state.range(0) != 0;
  int n = static_cast<int>(state.range(1));
  auto homes = xml::MakeHomesDoc(n, 40);
  auto schools = xml::MakeSchoolsDoc(n, 40);
  auto plan = Fig3Plan();
  for (auto _ : state) {
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    sources.Register("schoolsSrc", &schools_nav);
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    xml::Document out;
    xml::Node* root =
        batched ? xml::MaterializeInto(med->document(), &out).ValueOrDie()
                : xml::MaterializeIntoNodeAtATime(med->document(), &out);
    benchmark::DoNotOptimize(root);
  }
}
BENCHMARK(BM_MaterializeFig3)
    ->ArgNames({"batched", "homes"})
    ->Args({0, 200})
    ->Args({1, 200})
    ->Args({0, 1000})
    ->Args({1, 1000});

/// The same materialization with both sources demand-paged through
/// LXP wrappers and buffers sharing one simulated channel: the message
/// count is what FillMany coalescing is for.
void BM_MaterializeFig3Buffered(benchmark::State& state) {
  bool batched = state.range(0) != 0;
  int n = static_cast<int>(state.range(1));
  auto homes = xml::MakeHomesDoc(n, 40);
  auto schools = xml::MakeSchoolsDoc(n, 40);
  auto plan = Fig3Plan();
  for (auto _ : state) {
    wrappers::XmlLxpWrapper::Options wopts;
    wopts.chunk = 8;
    wopts.inline_limit = 0;
    wrappers::XmlLxpWrapper homes_wrapper(homes.get(), wopts);
    wrappers::XmlLxpWrapper schools_wrapper(schools.get(), wopts);
    net::SimClock clock;
    net::Channel demand(&clock, net::ChannelOptions{});
    buffer::BufferComponent::Options buf_options;
    buf_options.channel = &demand;
    buffer::BufferComponent homes_buf(&homes_wrapper, "homes", buf_options);
    buffer::BufferComponent schools_buf(&schools_wrapper, "schools",
                                        buf_options);
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_buf);
    sources.Register("schoolsSrc", &schools_buf);
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    xml::Document out;
    xml::Node* root =
        batched ? xml::MaterializeInto(med->document(), &out).ValueOrDie()
                : xml::MaterializeIntoNodeAtATime(med->document(), &out);
    benchmark::DoNotOptimize(root);
    state.counters["messages"] = static_cast<double>(demand.stats().messages);
    state.counters["bytes"] = static_cast<double>(demand.stats().bytes);
    state.counters["batched_parts"] =
        static_cast<double>(demand.stats().batched_parts);
    state.counters["sim_ms"] = clock.now_ns() / 1e6;
  }
}
BENCHMARK(BM_MaterializeFig3Buffered)
    ->ArgNames({"batched", "homes"})
    ->Args({0, 200})
    ->Args({1, 200});

/// Paged child browsing on a buffered source — the client::Children /
/// FollowingSiblings workload. Node-at-a-time pays one fill round trip per
/// frontier hole; DownAll coalesces them into one FillMany exchange.
void BM_BufferedChildPaging(benchmark::State& state) {
  bool batched = state.range(0) != 0;
  int children = static_cast<int>(state.range(1));
  xml::Document doc;
  xml::Node* root = doc.NewElement("r");
  for (int i = 0; i < children; ++i) {
    xml::Node* c = doc.NewElement("c" + std::to_string(i));
    doc.AppendChild(c, doc.NewText("v"));
    doc.AppendChild(root, c);
  }
  doc.set_root(root);
  for (auto _ : state) {
    wrappers::XmlLxpWrapper::Options wopts;
    wopts.chunk = 1;  // worst case: one frontier hole per child
    wopts.inline_limit = 0;
    wrappers::XmlLxpWrapper wrapper(&doc, wopts);
    net::SimClock clock;
    net::Channel demand(&clock, net::ChannelOptions{});
    buffer::BufferComponent::Options buf_options;
    buf_options.channel = &demand;
    buffer::BufferComponent buffer(&wrapper, "u", buf_options);
    NodeId r = buffer.Root();
    if (batched) {
      std::vector<NodeId> kids;
      buffer.DownAll(r, &kids);
      for (const NodeId& k : kids) benchmark::DoNotOptimize(buffer.Fetch(k));
    } else {
      for (auto c = buffer.Down(r); c.has_value(); c = buffer.Right(*c)) {
        benchmark::DoNotOptimize(buffer.Fetch(*c));
      }
    }
    state.counters["messages"] = static_cast<double>(demand.stats().messages);
    state.counters["bytes"] = static_cast<double>(demand.stats().bytes);
    state.counters["sim_ms"] = clock.now_ns() / 1e6;
  }
}
BENCHMARK(BM_BufferedChildPaging)
    ->ArgNames({"batched", "children"})
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 512})
    ->Args({1, 512});

}  // namespace
