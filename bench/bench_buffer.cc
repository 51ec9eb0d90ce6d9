// Experiment E4 (DESIGN.md): the generic buffer component (Section 4,
// Figs. 7-8).
//
//   * overhead of buffered navigation vs. direct in-memory access;
//   * fill counts under the restrictive (left-to-right) vs. liberal
//     (Ex. 7-style) fill policies — the buffer's chase handles both;
//   * re-navigation hits: explored regions answer from the buffer with
//     zero wrapper traffic;
//   * inline-limit effect: shipping small subtrees whole vs. label+hole.
#include <benchmark/benchmark.h>

#include "buffer/buffer.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;

std::unique_ptr<xml::Document> BigTree(uint64_t seed) {
  xml::RandomTreeOptions options;
  options.seed = seed;
  options.max_depth = 6;
  options.max_fanout = 6;
  options.element_percent = 70;
  return xml::RandomTree(options);
}

void BM_DirectMaterialize(benchmark::State& state) {
  auto doc = BigTree(5);
  for (auto _ : state) {
    xml::DocNavigable nav(doc.get());
    auto copy = xml::Materialize(&nav).ValueOrDie();
    benchmark::DoNotOptimize(copy->node_count());
    state.counters["nodes"] = static_cast<double>(copy->node_count());
  }
}
BENCHMARK(BM_DirectMaterialize);

void BM_BufferedMaterialize(benchmark::State& state) {
  int chunk = static_cast<int>(state.range(0));
  bool liberal = state.range(1) != 0;
  auto doc = BigTree(5);
  for (auto _ : state) {
    wrappers::XmlLxpWrapper::Options options;
    options.chunk = chunk;
    options.inline_limit = 4;
    options.policy = liberal ? wrappers::XmlLxpWrapper::FillPolicy::kRightToLeft
                             : wrappers::XmlLxpWrapper::FillPolicy::kLeftToRight;
    wrappers::XmlLxpWrapper wrapper(doc.get(), options);
    buffer::BufferComponent buffer(&wrapper, "u");
    auto copy = xml::Materialize(&buffer).ValueOrDie();
    benchmark::DoNotOptimize(copy->node_count());
    state.counters["fills"] = static_cast<double>(buffer.fill_count());
    state.counters["nodes_buffered"] =
        static_cast<double>(buffer.nodes_buffered());
  }
}
BENCHMARK(BM_BufferedMaterialize)
    ->ArgNames({"chunk", "liberal"})
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({64, 1});

// Re-navigation: the second pass over an explored tree must cost zero
// fills — the buffer answers everything.
void BM_BufferReNavigation(benchmark::State& state) {
  auto doc = BigTree(7);
  wrappers::XmlLxpWrapper::Options options;
  options.chunk = 8;
  wrappers::XmlLxpWrapper wrapper(doc.get(), options);
  buffer::BufferComponent buffer(&wrapper, "u");
  // Warm: explore fully once.
  xml::Materialize(&buffer).ValueOrDie();
  int64_t fills_after_warm = buffer.fill_count();
  for (auto _ : state) {
    auto copy = xml::Materialize(&buffer).ValueOrDie();
    benchmark::DoNotOptimize(copy->node_count());
  }
  state.counters["extra_fills"] =
      static_cast<double>(buffer.fill_count() - fills_after_warm);
}
BENCHMARK(BM_BufferReNavigation);

// Inline limit: with a generous limit the wrapper ships complete subtrees
// (few fills, more speculative bytes); with limit 0 every element costs a
// fill on descent.
void BM_InlineLimitSweep(benchmark::State& state) {
  int64_t inline_limit = state.range(0);
  auto doc = BigTree(9);
  for (auto _ : state) {
    wrappers::XmlLxpWrapper::Options options;
    options.chunk = 8;
    options.inline_limit = inline_limit;
    wrappers::XmlLxpWrapper wrapper(doc.get(), options);
    net::Channel channel(nullptr, net::ChannelOptions{});
    buffer::BufferComponent::Options buf_options;
    buf_options.channel = &channel;
    buffer::BufferComponent buffer(&wrapper, "u", buf_options);
    auto copy = xml::Materialize(&buffer).ValueOrDie();
    benchmark::DoNotOptimize(copy->node_count());
    state.counters["fills"] = static_cast<double>(buffer.fill_count());
    state.counters["bytes"] = static_cast<double>(channel.stats().bytes);
  }
}
BENCHMARK(BM_InlineLimitSweep)
    ->ArgNames({"inline_limit"})
    ->Args({0})
    ->Args({4})
    ->Args({64})
    ->Args({100000});

// Partial exploration: walking one root-to-leaf path of a wide tree; the
// buffer should fill O(depth) times, not O(tree).
std::unique_ptr<xml::Document> DeepWideTree(int depth, int fanout) {
  auto doc = std::make_unique<xml::Document>();
  xml::Node* node = doc->NewElement("spine0");
  doc->set_root(node);
  for (int d = 1; d <= depth; ++d) {
    xml::Node* next = doc->NewElement("spine" + std::to_string(d));
    doc->AppendChild(node, next);
    for (int i = 1; i < fanout; ++i) {
      xml::Node* filler = doc->NewElement("filler");
      doc->AppendChild(filler, doc->NewText("x"));
      doc->AppendChild(node, filler);
    }
    node = next;
  }
  return doc;
}

void BM_BufferSpinePeek(benchmark::State& state) {
  auto doc = DeepWideTree(/*depth=*/40, /*fanout=*/30);
  for (auto _ : state) {
    wrappers::XmlLxpWrapper::Options options;
    options.chunk = 4;
    options.inline_limit = 0;
    wrappers::XmlLxpWrapper wrapper(doc.get(), options);
    buffer::BufferComponent buffer(&wrapper, "u");
    NodeId p = buffer.Root();
    int depth = 0;
    for (auto child = buffer.Down(p); child.has_value();
         child = buffer.Down(p)) {
      p = *child;
      ++depth;
    }
    state.counters["fills"] = static_cast<double>(buffer.fill_count());
    state.counters["depth"] = depth;
  }
}
BENCHMARK(BM_BufferSpinePeek);

}  // namespace
