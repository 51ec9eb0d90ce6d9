#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer.h"
#include "buffer/lxp.h"
#include "net/sim_net.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/materialize.h"

namespace mix::buffer {
namespace {

using FL = FragmentList;

TEST(FragmentTest, Constructors) {
  Fragment h = Fragment::Hole("id7");
  EXPECT_TRUE(h.is_hole);
  EXPECT_EQ(h.ToTerm(), "hole[id7]");

  Fragment e = Fragment::Element("a", {Fragment::Text("x"), Fragment::Hole("1")});
  EXPECT_EQ(e.ToTerm(), "a[x,hole[1]]");
}

TEST(FragmentTest, FromXmlSubtree) {
  auto doc = testing::Doc("r[a[x],b]");
  Fragment f = Fragment::FromXmlSubtree(doc->root());
  EXPECT_EQ(f.ToTerm(), "r[a[x],b]");
}

TEST(FragmentTest, ByteSizeGrowsWithContent) {
  Fragment small = Fragment::Element("a");
  Fragment big = Fragment::Element("a", {Fragment::Text("0123456789")});
  EXPECT_GT(big.ByteSize(), small.ByteSize());
  EXPECT_GT(FragmentListByteSize({small, big}), big.ByteSize());
}

/// The liberal LXP trace of Example 7 for t = a[b[d,e],c].
ScriptedLxpWrapper MakeExample7Wrapper() {
  std::map<std::string, FL> fills;
  fills["h0"] = {Fragment::Element("a", {Fragment::Hole("h1")})};
  fills["h1"] = {Fragment::Element("b", {Fragment::Hole("h2")}),
                 Fragment::Hole("h3")};
  fills["h3"] = {Fragment::Element("c")};
  fills["h2"] = {Fragment::Hole("h4"),
                 Fragment::Element("d", {Fragment::Hole("h5")}),
                 Fragment::Hole("h6")};
  fills["h4"] = {};
  fills["h5"] = {};
  fills["h6"] = {Fragment::Element("e")};
  return ScriptedLxpWrapper("h0", std::move(fills));
}

TEST(BufferTest, Example7FullExploration) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");
  EXPECT_EQ(testing::MaterializeToTerm(&buffer), "a[b[d,e],c]");
}

TEST(BufferTest, Example7StepwiseTraceAndOpenTrees) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");

  NodeId a = buffer.Root();
  EXPECT_EQ(buffer.Fetch(a), "a");
  EXPECT_EQ(wrapper.fill_log(), (std::vector<std::string>{"h0"}));
  EXPECT_EQ(buffer.OpenTreeTerm(), "[a[hole[h1]]]");

  auto b = buffer.Down(a);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(buffer.Fetch(*b), "b");
  EXPECT_EQ(wrapper.fill_log(), (std::vector<std::string>{"h0", "h1"}));
  EXPECT_EQ(buffer.OpenTreeTerm(), "[a[b[hole[h2]],hole[h3]]]");

  // Descending into b hits the liberal fill of h2: the buffer must chase
  // through the leading hole h4 (which fills empty) to reach d.
  auto d = buffer.Down(*b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(buffer.Fetch(*d), "d");
  EXPECT_EQ(wrapper.fill_log(),
            (std::vector<std::string>{"h0", "h1", "h2", "h4"}));

  // d's only "child" is the empty hole h5: d is in fact a leaf.
  EXPECT_FALSE(buffer.Down(*d).has_value());
  // Right of d chases h6 -> e.
  auto e = buffer.Right(*d);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(buffer.Fetch(*e), "e");
  EXPECT_FALSE(buffer.Right(*e).has_value());

  // Right of b chases h3 -> c.
  auto c = buffer.Right(*b);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(buffer.Fetch(*c), "c");
  EXPECT_EQ(buffer.holes_outstanding(), 0);
}

TEST(BufferTest, NoSourceAccessBeforeFirstNavigation) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");
  // Constructing the buffer must not fill anything.
  EXPECT_EQ(buffer.fill_count(), 0);
}

TEST(BufferTest, MinimalFillsForPartialNavigation) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");
  NodeId a = buffer.Root();
  buffer.Down(a);
  // Only the root hole and the first-level hole were filled; the subtrees
  // of b and the sibling c were never requested.
  EXPECT_EQ(buffer.fill_count(), 2);
  EXPECT_EQ(buffer.holes_outstanding(), 2);  // h2 and h3
}

TEST(BufferTest, BufferedNodesAnsweredWithoutRefill) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  BufferComponent buffer(&wrapper, "u");
  NodeId a = buffer.Root();
  auto b = buffer.Down(a);
  int64_t fills = buffer.fill_count();
  // Re-navigating over explored parts must not touch the wrapper.
  EXPECT_EQ(buffer.Fetch(buffer.Root()), "a");
  auto b2 = buffer.Down(a);
  EXPECT_EQ(*b2, *b);
  EXPECT_EQ(buffer.fill_count(), fills);
}

TEST(BufferTest, ChannelAccounting) {
  ScriptedLxpWrapper wrapper = MakeExample7Wrapper();
  net::SimClock clock;
  net::Channel channel(&clock, net::ChannelOptions{});
  BufferComponent::Options options;
  options.channel = &channel;
  BufferComponent buffer(&wrapper, "u", options);

  buffer.Root();
  // get_root (2 messages) + fill h0 (2 messages).
  EXPECT_EQ(channel.stats().messages, 4);
  EXPECT_GT(channel.stats().bytes, 0);
  EXPECT_GT(clock.now_ns(), 0);
}

TEST(BufferTest, PrefetchFillsHolesInBackground) {
  ScriptedLxpWrapper demand_wrapper = MakeExample7Wrapper();
  BufferComponent plain(&demand_wrapper, "u");
  plain.Root();
  int64_t plain_fills = plain.fill_count();

  ScriptedLxpWrapper prefetch_wrapper = MakeExample7Wrapper();
  net::Channel background(nullptr, net::ChannelOptions{});
  BufferComponent::Options options;
  options.prefetch_per_command = 2;
  options.prefetch_channel = &background;
  BufferComponent prefetching(&prefetch_wrapper, "u", options);
  prefetching.Root();

  EXPECT_GT(prefetching.fill_count(), plain_fills);
  EXPECT_GT(background.stats().messages, 0);
  // Prefetching never changes what the client sees.
  EXPECT_EQ(testing::MaterializeToTerm(&prefetching), "a[b[d,e],c]");
}

TEST(BufferTest, EmptyFillRemovesHole) {
  std::map<std::string, FL> fills;
  fills["root"] = {Fragment::Element("r", {Fragment::Element("a"),
                                           Fragment::Hole("tail")})};
  fills["tail"] = {};
  ScriptedLxpWrapper wrapper("root", std::move(fills));
  BufferComponent buffer(&wrapper, "u");
  NodeId r = buffer.Root();
  auto a = buffer.Down(r);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(buffer.Right(*a).has_value());
  EXPECT_EQ(buffer.holes_outstanding(), 0);
}

// A fill violating the progress conditions is rejected *before* any splice:
// the offending hole degrades to an unavailable node, the error is latched
// as a typed Status, and the process never aborts (a remote wrapper must
// not be able to kill the mediator).
TEST(BufferFaultTest, AdjacentHolesRejectedWithStatus) {
  std::map<std::string, FL> fills;
  fills["root"] = {Fragment::Element(
      "r", {Fragment::Hole("x"), Fragment::Hole("y")})};
  ScriptedLxpWrapper wrapper("root", std::move(fills));
  BufferComponent buffer(&wrapper, "u");
  NodeId r = buffer.Root();
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(buffer.Fetch(r), "#unavailable");
  Status s = buffer.TakeStatus();
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.message().find("adjacent holes"), std::string::npos);
  EXPECT_EQ(buffer.degraded_holes(), 1);
  // The latch is drained: clean navigation stays clean.
  EXPECT_TRUE(buffer.TakeStatus().ok());
}

TEST(BufferFaultTest, AllHoleFillRejectedWithStatus) {
  std::map<std::string, FL> fills;
  fills["root"] = {Fragment::Element("r", {Fragment::Hole("x")})};
  fills["x"] = {Fragment::Hole("y")};
  ScriptedLxpWrapper wrapper("root", std::move(fills));
  BufferComponent buffer(&wrapper, "u");
  NodeId r = buffer.Root();
  std::optional<NodeId> child = buffer.Down(r);
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(buffer.Fetch(*child), "#unavailable");
  Status s = buffer.TakeStatus();
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.message().find("only of holes"), std::string::npos);
  EXPECT_EQ(buffer.degraded_holes(), 1);
}

// ---------------------------------------------------------------------------
// Sibling-cohort fill coalescing: a run of descents into consecutive
// siblings whose child lists are lone holes shares doubling exchanges.
// ---------------------------------------------------------------------------

/// r[rec[k0,b,c,d], rec[k1,b,c,d], ...]: each 5-node record exceeds the XML
/// wrapper's inline limit of 4, so it ships as rec[hole] — its child list
/// is a lone hole until a descent opens it.
std::unique_ptr<xml::Document> RecordsDoc(int n) {
  std::string term = "r[";
  for (int i = 0; i < n; ++i) {
    if (i > 0) term += ",";
    term += "rec[k" + std::to_string(i) + ",b,c,d]";
  }
  return testing::Doc(term + "]");
}

/// Passes everything through and logs every hole id that crosses the wire.
class WireLogWrapper : public LxpWrapper {
 public:
  explicit WireLogWrapper(LxpWrapper* inner) : inner_(inner) {}
  std::string GetRoot(const std::string& uri) override {
    return inner_->GetRoot(uri);
  }
  FragmentList Fill(const std::string& hole_id) override {
    return inner_->Fill(hole_id);
  }
  Status TryFill(const std::string& hole_id, FragmentList* out) override {
    log_.push_back(hole_id);
    return inner_->TryFill(hole_id, out);
  }
  Status TryFillMany(const std::vector<std::string>& holes,
                     const FillBudget& budget, HoleFillList* out) override {
    log_.insert(log_.end(), holes.begin(), holes.end());
    return inner_->TryFillMany(holes, budget, out);
  }
  const std::vector<std::string>& log() const { return log_; }

 private:
  LxpWrapper* inner_;
  std::vector<std::string> log_;
};

/// Exchanges a sequential walk over `n` lone-hole siblings costs: cohorts
/// of width 1, 2, 4, ... until the run is covered.
int DoublingExchanges(int n) {
  int exchanges = 0;
  for (int covered = 0, width = 1; covered < n; covered += width, width *= 2) {
    ++exchanges;
  }
  return exchanges;
}

/// Opens the record list of RecordsDoc's root; returns the first record.
NodeId FirstRecord(BufferComponent* buffer) {
  std::optional<NodeId> rec = buffer->Down(buffer->Root());
  EXPECT_TRUE(rec.has_value());
  return rec.value_or(NodeId());
}

TEST(CohortTest, SequentialDownWalkCostsDoublingExchanges) {
  constexpr int kRecords = 20;
  auto doc = RecordsDoc(kRecords);
  wrappers::XmlLxpWrapper::Options wo;
  wo.chunk = 64;  // one fill buffers every record
  wrappers::XmlLxpWrapper wrapper(doc.get(), wo);
  net::Channel channel(nullptr, net::ChannelOptions{});
  BufferComponent::Options options;
  options.channel = &channel;
  BufferComponent buffer(&wrapper, "u", options);

  NodeId rec = FirstRecord(&buffer);
  channel.ResetStats();
  const int64_t fills_before = buffer.fill_count();
  for (int i = 0; i < kRecords; ++i) {
    std::optional<NodeId> key = buffer.Down(rec);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(buffer.Fetch(*key), "k" + std::to_string(i));
    if (i + 1 < kRecords) rec = buffer.Right(rec).value();
  }
  // Widths 1, 2, 4, 8 and the 5 records left: 5 request/response pairs.
  EXPECT_EQ(DoublingExchanges(kRecords), 5);
  EXPECT_EQ(channel.stats().messages, 2 * DoublingExchanges(kRecords));
  // A walk to the end speculated nothing in vain.
  EXPECT_EQ(buffer.fill_count() - fills_before, kRecords);
  EXPECT_TRUE(buffer.TakeStatus().ok());
}

TEST(CohortTest, NonConsecutiveDescentsCostOneExchangeEach) {
  constexpr int kRecords = 20;
  auto doc = RecordsDoc(kRecords);
  wrappers::XmlLxpWrapper::Options wo;
  wo.chunk = 64;
  wrappers::XmlLxpWrapper wrapper(doc.get(), wo);
  net::Channel channel(nullptr, net::ChannelOptions{});
  BufferComponent::Options options;
  options.channel = &channel;
  BufferComponent buffer(&wrapper, "u", options);

  NodeId first = FirstRecord(&buffer);
  std::vector<NodeId> recs = {first};
  buffer.NextSiblings(first, -1, &recs);
  ASSERT_EQ(recs.size(), static_cast<size_t>(kRecords));
  channel.ResetStats();
  const int64_t fills_before = buffer.fill_count();
  // Every other record of the first half: no descent continues from the
  // previous sibling.
  int descents = 0;
  for (int i = 0; i < kRecords / 2; i += 2, ++descents) {
    std::optional<NodeId> key = buffer.Down(recs[static_cast<size_t>(i)]);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(buffer.Fetch(*key), "k" + std::to_string(i));
  }
  EXPECT_EQ(channel.stats().messages, 2 * descents);
  EXPECT_EQ(buffer.fill_count() - fills_before, descents);

  // A jump resets the width to 1; a run after it doubles again.
  auto down_costs = [&](int i, int64_t messages, int64_t fills) {
    channel.ResetStats();
    const int64_t before = buffer.fill_count();
    std::optional<NodeId> key = buffer.Down(recs[static_cast<size_t>(i)]);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(buffer.Fetch(*key), "k" + std::to_string(i));
    EXPECT_EQ(channel.stats().messages, messages) << "record " << i;
    EXPECT_EQ(buffer.fill_count() - before, fills) << "record " << i;
  };
  down_costs(12, 2, 1);  // jump: width 1
  down_costs(13, 2, 2);  // continues: width 2 opens 13 and 14
  down_costs(14, 0, 0);  // already open
  down_costs(15, 2, 4);  // continues: width 4 opens 15..18
  down_costs(1, 2, 1);   // jump back: width 1
}

/// Splits "[r[x,y[..],z]]" into the record terms x, y[..], z.
std::vector<std::string> RecordTerms(const std::string& open_tree) {
  const std::string prefix = "[r[";
  EXPECT_EQ(open_tree.compare(0, prefix.size(), prefix), 0) << open_tree;
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (size_t i = prefix.size(); i + 2 < open_tree.size(); ++i) {
    char c = open_tree[i];
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
      continue;
    }
    if (c == '[') ++depth;
    if (c == ']') --depth;
    cur += c;
  }
  out.push_back(cur);
  return out;
}

// After every step of the walk, each record the one-hole-at-a-time run has
// filled reads the same in the cohort run, and every record neither has
// filled is the same hole: cohorts only fill ahead, never differently.
TEST(CohortTest, OpenTreeMatchesOneHoleAtATimeRun) {
  constexpr int kRecords = 20;
  auto doc = RecordsDoc(kRecords);
  wrappers::XmlLxpWrapper cohort_wrapper(doc.get());  // chunk 8
  wrappers::XmlLxpWrapper single_wrapper(doc.get());
  BufferComponent cohort(&cohort_wrapper, "u");
  BufferComponent single(&single_wrapper, "u");

  NodeId c_rec = FirstRecord(&cohort);
  NodeId s_rec = FirstRecord(&single);
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(cohort.Down(c_rec).has_value());
    // FetchSubtree never forms a cohort: it fills exactly this record.
    std::vector<SubtreeEntry> entries;
    single.FetchSubtree(s_rec, -1, &entries);
    std::vector<std::string> c_terms = RecordTerms(cohort.OpenTreeTerm());
    std::vector<std::string> s_terms = RecordTerms(single.OpenTreeTerm());
    ASSERT_EQ(c_terms.size(), s_terms.size()) << "step " << i;
    for (size_t j = 0; j < c_terms.size(); ++j) {
      const bool only_cohort_filled =
          c_terms[j].find("hole[") == std::string::npos &&
          s_terms[j].find("hole[") != std::string::npos;
      if (!only_cohort_filled) {
        EXPECT_EQ(c_terms[j], s_terms[j]) << "step " << i << " record " << j;
      }
    }
    if (i + 1 < kRecords) {
      c_rec = cohort.Right(c_rec).value();
      s_rec = single.Right(s_rec).value();
    }
  }
  EXPECT_EQ(cohort.OpenTreeTerm(), single.OpenTreeTerm());
  EXPECT_EQ(cohort.fill_count(), single.fill_count());
}

// Members the shared SourceCache already holds are spliced from it; only
// the rest of the cohort crosses the wire.
TEST(CohortTest, CachedMembersNeverCrossTheWire) {
  constexpr int kRecords = 12;
  auto doc = RecordsDoc(kRecords);
  wrappers::XmlLxpWrapper::Options wo;
  wo.chunk = 64;
  SourceCache cache;
  BufferComponent::Options options;
  options.source_cache = &cache;
  options.cache_source = "recs";

  // A first session opens records 1..2 and 4..5 by FetchSubtree, which
  // publishes their fills.
  wrappers::XmlLxpWrapper warm_inner(doc.get(), wo);
  WireLogWrapper warm_wrapper(&warm_inner);
  BufferComponent warm(&warm_wrapper, "u", options);
  std::vector<NodeId> recs = {FirstRecord(&warm)};
  warm.NextSiblings(recs[0], -1, &recs);
  ASSERT_EQ(recs.size(), static_cast<size_t>(kRecords));
  std::vector<std::string> warmed;
  for (int i : {1, 2, 4, 5}) {
    const size_t before = warm_wrapper.log().size();
    std::vector<SubtreeEntry> entries;
    warm.FetchSubtree(recs[static_cast<size_t>(i)], -1, &entries);
    ASSERT_EQ(warm_wrapper.log().size(), before + 1);
    warmed.push_back(warm_wrapper.log().back());
  }

  // The second session walks every record; its cohorts {1,2} and {3..6}
  // contain the warmed holes.
  wrappers::XmlLxpWrapper inner(doc.get(), wo);
  WireLogWrapper wrapper(&inner);
  BufferComponent buffer(&wrapper, "u", options);
  NodeId rec = FirstRecord(&buffer);
  for (int i = 0; i < kRecords; ++i) {
    std::optional<NodeId> key = buffer.Down(rec);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(buffer.Fetch(*key), "k" + std::to_string(i));
    if (i + 1 < kRecords) rec = buffer.Right(rec).value();
  }
  for (const std::string& id : warmed) {
    EXPECT_EQ(std::count(wrapper.log().begin(), wrapper.log().end(), id), 0)
        << id;
  }
  // Plus the root id, the root fill and the record list.
  EXPECT_EQ(buffer.stats().cache_hits,
            static_cast<int64_t>(warmed.size()) + 3);
  EXPECT_EQ(buffer.fill_count(), kRecords + 2);
}

// Members a readahead flight already carries are answered from it: no hole
// crosses the wire twice.
TEST(CohortTest, InflightMembersNeverCrossTheWireTwice) {
  constexpr int kRecords = 12;
  auto doc = RecordsDoc(kRecords);
  wrappers::XmlLxpWrapper::Options wo;
  wo.chunk = 64;
  wrappers::XmlLxpWrapper inner(doc.get(), wo);
  WireLogWrapper wrapper(&inner);
  BufferComponent::Options options;
  options.max_in_flight = 2;
  BufferComponent buffer(&wrapper, "u", options);

  NodeId rec = FirstRecord(&buffer);
  for (int i = 0; i < kRecords; ++i) {
    std::optional<NodeId> key = buffer.Down(rec);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(buffer.Fetch(*key), "k" + std::to_string(i));
    if (i + 1 < kRecords) rec = buffer.Right(rec).value();
  }
  std::vector<std::string> log = wrapper.log();
  std::sort(log.begin(), log.end());
  EXPECT_EQ(std::adjacent_find(log.begin(), log.end()), log.end());
  EXPECT_GT(buffer.stats().readahead_hits, 0);
  EXPECT_EQ(buffer.fill_count(), kRecords + 2);
}

// ---------------------------------------------------------------------------
// Whole-answer exports: unbounded cohorts, one exchange per source level.
// ---------------------------------------------------------------------------

/// Visits the subtree under `p` with Down/Right — the navigation an export
/// drives into a source — and returns the number of nodes visited.
int WalkAll(BufferComponent* buffer, const NodeId& p) {
  int nodes = 1;
  for (std::optional<NodeId> c = buffer->Down(p); c; c = buffer->Right(*c)) {
    nodes += WalkAll(buffer, *c);
  }
  return nodes;
}

TEST(WholeExportTest, OneExchangePerLevel) {
  constexpr int kRecords = 20;
  auto doc = RecordsDoc(kRecords);
  wrappers::XmlLxpWrapper wrapper(doc.get());  // chunk 8
  net::Channel channel(nullptr, net::ChannelOptions{});
  BufferComponent::Options options;
  options.channel = &channel;
  BufferComponent buffer(&wrapper, "u", options);
  NodeId root = buffer.Root();
  channel.ResetStats();

  buffer.SetWholeExport(true);
  EXPECT_EQ(WalkAll(&buffer, root), 1 + 5 * kRecords);
  buffer.SetWholeExport(false);
  // One exchange for the record list (its three chunks chased), one for
  // every record's child list.
  EXPECT_EQ(channel.stats().messages, 2 * 2);
  EXPECT_EQ(buffer.holes_outstanding(), 0);
  EXPECT_TRUE(buffer.TakeStatus().ok());

  wrappers::XmlLxpWrapper plain_wrapper(doc.get());
  BufferComponent plain(&plain_wrapper, "u");
  EXPECT_EQ(testing::MaterializeToTerm(&buffer),
            testing::MaterializeToTerm(&plain));
  EXPECT_EQ(buffer.fill_count(), plain.fill_count());
}

// A list already partly open: the cohort carries the list's continuation
// hole, and a Right that reaches a continuation chases it to the end.
TEST(WholeExportTest, ContinuationsTravelWithTheCohort) {
  constexpr int kRecords = 20;
  auto doc = RecordsDoc(kRecords);
  for (bool descend_first : {true, false}) {
    wrappers::XmlLxpWrapper wrapper(doc.get());  // chunk 8
    net::Channel channel(nullptr, net::ChannelOptions{});
    BufferComponent::Options options;
    options.channel = &channel;
    BufferComponent buffer(&wrapper, "u", options);
    NodeId rec = FirstRecord(&buffer);  // records 0..7 and a hole
    channel.ResetStats();
    buffer.SetWholeExport(true);
    if (descend_first) {
      // The child lists of records 0..7 and the list's continuation
      // (chased to record 19) in one exchange.
      ASSERT_TRUE(buffer.Down(rec).has_value());
      EXPECT_EQ(channel.stats().messages, 2) << "descend_first";
    } else {
      // Right from record 7 meets the continuation: one exchange for the
      // rest of the list.
      for (int i = 0; i < 8; ++i) rec = buffer.Right(rec).value();
      EXPECT_EQ(channel.stats().messages, 2) << "right";
    }
    std::vector<NodeId> rest;
    buffer.NextSiblings(rec, -1, &rest);
    EXPECT_EQ(channel.stats().messages, 2);
    buffer.SetWholeExport(false);
    EXPECT_EQ(rest.size(), static_cast<size_t>(descend_first ? 19 : 11));
  }
}

// The #super-root sentinel and spliced-away holes have no parent; a forged
// id naming one is a bad id (⊥ plus a typed latch), never an abort.
TEST(BufferFaultTest, ForgedParentlessIdsAreBadIds) {
  auto doc = RecordsDoc(3);
  wrappers::XmlLxpWrapper wrapper(doc.get());
  BufferComponent buffer(&wrapper, "u");
  NodeId root = buffer.Root();
  ASSERT_TRUE(root.valid());
  ASSERT_TRUE(buffer.Down(root).has_value());
  // Arena index 0 is the sentinel, index 1 the root hole the first fill
  // replaced.
  for (int64_t index : {int64_t{0}, int64_t{1}}) {
    NodeId forged("buf", {root.IntAt(0), index});
    EXPECT_FALSE(buffer.Down(forged).has_value()) << index;
    EXPECT_EQ(buffer.TakeStatus().code(), Status::Code::kInvalidArgument);
    EXPECT_FALSE(buffer.Right(forged).has_value()) << index;
    EXPECT_EQ(buffer.TakeStatus().code(), Status::Code::kInvalidArgument);
    std::vector<NodeId> out;
    buffer.NextSiblings(forged, -1, &out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(buffer.TakeStatus().code(), Status::Code::kInvalidArgument);
  }
  EXPECT_EQ(buffer.Fetch(root), "r");
}

}  // namespace
}  // namespace mix::buffer
