// The benchmark's own tests: seeded inputs, the Zipf and open-loop load
// generators, the output oracle and the depth ladder.
//
// Build and run:
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target navbench_test
//   .bench_build/perfbench/navbench_test
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

#include "inputs.h"
#include "ladder.h"
#include "oracle.h"
#include "script.h"
#include "workloads.h"
#include "xml/doc_navigable.h"

namespace navbench {
namespace {

double P50(std::vector<int64_t> v) { return Percentile(&v, 0.5); }

bool SameSteps(const std::vector<Step>& a, const std::vector<Step>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].op != b[i].op || a[i].arg != b[i].arg) return false;
  }
  return true;
}

TEST(Inputs, SameSeedSameInputs) {
  for (const std::string& w : WorkloadNames()) {
    WorkloadPlan a = MakePlan(w, 7);
    WorkloadPlan b = MakePlan(w, 7);
    ASSERT_EQ(a.fixture.pool.size(), b.fixture.pool.size()) << w;
    for (size_t i = 0; i < a.fixture.pool.size(); ++i) {
      EXPECT_EQ(a.fixture.pool[i].text, b.fixture.pool[i].text) << w;
      EXPECT_EQ(a.fixture.pool[i].answer_term, b.fixture.pool[i].answer_term)
          << w;
    }
    EXPECT_EQ(a.query_cdf, b.query_cdf) << w;
    for (uint64_t s = 0; s < 20; ++s) {
      SessionSpec x = a.Spec(SubSeed(7, s));
      SessionSpec y = b.Spec(SubSeed(7, s));
      EXPECT_EQ(x.query, y.query) << w;
      EXPECT_TRUE(SameSteps(x.steps, y.steps)) << w;
    }
  }
  EXPECT_EQ(PoissonArrivals(500, 1, 3), PoissonArrivals(500, 1, 3));
}

TEST(Inputs, SeedChangesInputs) {
  // The seed relabels the sources' zips, so the same query text selects
  // different records.
  WorkloadPlan a = MakePlan("zipf_fleet_views", 1);
  WorkloadPlan b = MakePlan("zipf_fleet_views", 2);
  bool answers_differ = false;
  for (size_t i = 0; i < a.fixture.pool.size(); ++i) {
    EXPECT_EQ(a.fixture.pool[i].text, b.fixture.pool[i].text);
    answers_differ = answers_differ || a.fixture.pool[i].answer_term !=
                                           b.fixture.pool[i].answer_term;
  }
  EXPECT_TRUE(answers_differ);
  // remote_mix_tcp draws its constants.
  WorkloadPlan c = MakePlan("remote_mix_tcp", 1);
  WorkloadPlan d = MakePlan("remote_mix_tcp", 2);
  bool texts_differ = false;
  for (size_t i = 0; i < c.fixture.pool.size(); ++i) {
    texts_differ =
        texts_differ || c.fixture.pool[i].text != d.fixture.pool[i].text;
  }
  EXPECT_TRUE(texts_differ);
  EXPECT_FALSE(SameSteps(MakeScript({40, 0.25, true, false}, 1),
                         MakeScript({40, 0.25, true, false}, 2)));
  EXPECT_NE(PoissonArrivals(500, 1, 3), PoissonArrivals(500, 1, 4));
}

TEST(Inputs, ZipfPicksMatchTheDistribution) {
  ZipfLaw law(36, 1.0);
  double total = 0;
  for (int r = 0; r < 36; ++r) total += law.Probability(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(law.Probability(0), 2 * law.Probability(1), 1e-12);

  // The workload's picks over its pool, by popularity rank, follow the law
  // within five binomial standard errors.
  WorkloadPlan plan = MakePlan("zipf_fleet_views", 5);
  std::vector<int> picks(plan.fixture.pool.size());
  constexpr int kSessions = 100000;
  for (int i = 0; i < kSessions; ++i) {
    ++picks[static_cast<size_t>(plan.Spec(SubSeed(5, 1, i)).query)];
  }
  for (size_t q = 0; q < picks.size(); ++q) {
    double p = law.Probability(static_cast<int>(q));
    double observed = static_cast<double>(picks[q]) / kSessions;
    EXPECT_NEAR(observed, p, 5 * std::sqrt(p * (1 - p) / kSessions))
        << "query " << q;
  }
}

SessionTiming SleepFor(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  SessionTiming t;
  t.first_node_ns = NowNs();
  return t;
}

TEST(LoadGen, OpenLoopCountsLatencyFromTheDueTime) {
  // Arrivals every 2 ms, one server taking 3 ms each: a queue builds, and
  // session latency must include the wait behind earlier sessions.
  std::vector<int64_t> due;
  for (int i = 0; i < 10; ++i) due.push_back(int64_t{i} * 2'000'000);
  LoadResult r = RunOpenLoop(due, 1, [](int, int64_t, std::vector<int64_t>*) {
    return SleepFor(3);
  });
  ASSERT_EQ(r.attempted, 10);
  ASSERT_EQ(r.failed, 0);
  ASSERT_EQ(r.all.session_ns.size(), 10u);
  ASSERT_EQ(r.late_ns.size(), 10u);
  int64_t worst = 0;
  for (int64_t ns : r.all.session_ns) worst = std::max(worst, ns);
  // The last arrival (due at 18 ms) starts after nine 3 ms sessions, at
  // 27 ms or later: at least 12 ms of latency for 3 ms of service.
  EXPECT_GE(worst, 12'000'000);
  // The generator itself kept to the schedule.
  EXPECT_LT(P50(r.late_ns), 1'000'000);
}

TEST(LoadGen, OpenLoopRefusesAHopelessBacklog) {
  // Arrivals every 1 ms, 10 ms of service: sessions still queued after
  // twice the schedule's span are refused and count as failed.
  std::vector<int64_t> due;
  for (int i = 0; i < 20; ++i) due.push_back(int64_t{i} * 1'000'000);
  LoadResult r = RunOpenLoop(due, 1, [](int, int64_t, std::vector<int64_t>*) {
    return SleepFor(10);
  });
  EXPECT_EQ(r.attempted, 20);
  EXPECT_GT(r.failed, 10);
  EXPECT_EQ(static_cast<int64_t>(r.all.session_ns.size()),
            r.attempted - r.failed);
  EXPECT_LT(r.wall_ns, 100'000'000);
}

TEST(LoadGen, ClosedLoopRunsForItsDuration) {
  LoadResult r = RunClosedLoop(2, 0.3, [](int, int64_t,
                                          std::vector<int64_t>* cmd) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    cmd->push_back(1000);
    SessionTiming t;
    t.commands = 1;
    return t;
  });
  EXPECT_GE(r.wall_ns, 300'000'000);
  EXPECT_GT(r.attempted, 60);
  EXPECT_EQ(r.all.commands, r.attempted);
  EXPECT_EQ(static_cast<int64_t>(r.all.cmd_ns.size()), r.attempted);
  // Every window saw sessions and was charged some CPU time.
  ASSERT_EQ(r.windows.size(), static_cast<size_t>(kWindows));
  int64_t completed = 0;
  for (const WindowSamples& w : r.windows) {
    EXPECT_GT(w.completed, 0);
    completed += w.completed;
  }
  EXPECT_EQ(completed, r.attempted);
}

TEST(Stats, QuantileInterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(Quantile({}, 0.25), 0);
  EXPECT_EQ(Quantile({5, 1, 4, 2, 3}, 0.25), 2);
  EXPECT_EQ(Quantile({5, 1, 4, 2, 3}, 0.5), 3);
  EXPECT_EQ(Quantile({5, 1, 4, 2, 3}, 0.75), 4);
  EXPECT_DOUBLE_EQ(Quantile({1, 2}, 0.25), 1.25);
  EXPECT_EQ(Quantile({7}, 0.9), 7);
}

TEST(Stats, ProcessCpuLeavesTheIdleSpinnersOut) {
  const int64_t before = ProcessCpuNs();
  {
    IdleSpinners spinners;
    EXPECT_GE(spinners.count(), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  // The spinners ran for 300 ms on every CPU that was free; the process's
  // own CPU, with theirs left out, is the test thread's sleep and the
  // spinners' start and stop.
  EXPECT_LT(ProcessCpuNs() - before, 50'000'000);
}

/// Forwards to a document but corrupts every label that starts with
/// `victim` — a mediator returning a wrong answer.
class CorruptingNavigable : public mix::Navigable {
 public:
  CorruptingNavigable(mix::Navigable* inner, std::string victim)
      : inner_(inner), victim_(std::move(victim)) {}
  mix::NodeId Root() override { return inner_->Root(); }
  std::optional<mix::NodeId> Down(const mix::NodeId& p) override {
    return inner_->Down(p);
  }
  std::optional<mix::NodeId> Right(const mix::NodeId& p) override {
    return inner_->Right(p);
  }
  mix::Label Fetch(const mix::NodeId& p) override {
    mix::Label label = inner_->Fetch(p);
    if (label.rfind(victim_, 0) == 0) label += "!";
    return label;
  }

 private:
  mix::Navigable* inner_;
  std::string victim_;
};

TEST(Oracle, AcceptsTheReferenceAndCatchesAWrongAnswer) {
  WorkloadPlan plan = MakePlan("fig3_browse", 3);
  const PoolQuery& q = plan.fixture.pool[0];
  // Serve the reference answer itself: every check passes.
  mix::xml::Document doc;
  std::function<void(const mix::xml::Node*, mix::xml::Node*)> clone =
      [&](const mix::xml::Node* src, mix::xml::Node* dst) {
        for (const mix::xml::Node* c : src->children) {
          mix::xml::Node* n = c->is_leaf() ? doc.NewText(c->label)
                                           : doc.NewElement(c->label);
          doc.AppendChild(dst, n);
          clone(c, n);
        }
      };
  doc.set_root(doc.NewElement(q.answer->label));
  clone(q.answer, doc.root());
  mix::xml::DocNavigable good(&doc);
  const std::vector<Step> browse = {
      {Op::kDown, 0},        {Op::kDown, 0},         {Op::kFetch, 0},
      {Op::kRight, 0},       {Op::kFetch, 0},        {Op::kNth, 5},
      {Op::kDownAll, 3},     {Op::kNextSiblings, 2}, {Op::kUp, 0},
      {Op::kSubtreeOfChild, 9}, {Op::kWalkToEnd, 0}, {Op::kFullAnswer, 0}};
  ScriptResult ok = RunScript(&good, browse, q, {}, {});
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.mismatch, "");
  EXPECT_GT(ok.commands, 10);

  // A wrong label deep in the answer: the full-answer term differs.
  CorruptingNavigable deep(&good, "director");
  ScriptResult full = RunScript(&deep, {{Op::kFullAnswer, 0}}, q, {}, {});
  EXPECT_NE(full.mismatch, "");

  // A wrong label on the browse path: caught label by label.
  CorruptingNavigable shallow(&good, "med_home");
  ScriptResult walk = RunScript(&shallow, {{Op::kWalkToEnd, 0}}, q, {}, {});
  EXPECT_NE(walk.mismatch, "");
  EXPECT_NE(walk.mismatch.find("label"), std::string::npos);

  // An export is the answer only with every node, depth and label intact.
  std::vector<mix::SubtreeEntry> entries;
  good.FetchSubtree(good.Root(), -1, &entries);
  EXPECT_TRUE(ExportMatches(entries, q.answer));
  EXPECT_EQ(EntriesToTerm(entries), q.answer_term);
  std::vector<mix::SubtreeEntry> cut = entries;
  cut.back().truncated = true;
  EXPECT_FALSE(ExportMatches(cut, q.answer));
  std::vector<mix::SubtreeEntry> deeper = entries;
  deeper.back().depth += 1;
  EXPECT_FALSE(ExportMatches(deeper, q.answer));
  std::vector<mix::SubtreeEntry> shorter = entries;
  shorter.pop_back();
  EXPECT_FALSE(ExportMatches(shorter, q.answer));

  // A typed error stops the script and is reported as such.
  ScriptResult failed = RunScript(
      &good, browse, q,
      [] { return mix::Status::Unavailable("injected"); }, {});
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.commands, 1);
}

TEST(Ladder, EveryDepthGivesTheSameAnswers) {
  WorkloadPlan plan = MakePlan("remote_mix_tcp", 4);
  std::vector<SessionSpec> sample;
  for (int i = 0; i < 6; ++i) sample.push_back(plan.Spec(SubSeed(4, 2, i)));
  // Cover the relational queries too.
  for (size_t q = 1; q < plan.fixture.pool.size(); q += 3) {
    sample.push_back({static_cast<int>(q), {{Op::kFullAnswer, 0}}});
  }
  LadderResult r = RunLadder(plan.fixture, sample, 4, 1);
  EXPECT_TRUE(r.identical) << r.mismatch;
  EXPECT_GT(r.commands_per_pass, 0);
  for (double ns : r.ns_per_cmd) EXPECT_GT(ns, 0);
  EXPECT_GT(r.source_navs_per_cmd, 0);
  EXPECT_GT(r.fills_per_session, 0);
  EXPECT_GT(r.tcp.frames_in, 0);
  EXPECT_GT(r.fleet.commands, 0);
}

}  // namespace
}  // namespace navbench
