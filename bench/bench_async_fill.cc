// Experiment E19 (DESIGN.md): the async fill engine.
//
//   * BM_AsyncFillJoinOverTcp — the Fig. 3 two-source join where both
//     sources are served remotely (real TCP loopback) by wrappers with a
//     fixed per-exchange latency (250 µs — a fast LAN database). window=0
//     is the serialized baseline: every exchange is a demand fill, paid in
//     full on the navigation thread. window>0 turns on the concurrent
//     readahead window: independent holes go in flight through
//     TcpFrameTransport's dispatch thread (coalescing into pipelined
//     batches), so wrapper latency overlaps navigation and the *other*
//     source's exchanges. Every materialized answer is checked against the
//     in-process evaluation of the same plan (`mismatches` must stay 0);
//     the wall-clock ratio window=0 / window=8 is the tracked speedup.
//
//   * BM_BackgroundPrefetchWarm — a full scan of a wide source with
//     prefetch_per_command candidates per command. workers=0 is the
//     pre-async engine: run-ahead fills happen synchronously between
//     commands, paying the wrapper latency inline. workers=2 hands the
//     same candidates to the service's background pool: fills land in the
//     shared SourceCache and the session mailbox while navigation
//     proceeds, so the demand path finds warm holes instead of sleeping
//     wrappers. Budgeted: one FillMany exchange per job, chase bounded by
//     prefetch_fills_per_job.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer.h"
#include "buffer/lxp.h"
#include "client/framed_document.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "service/service.h"
#include "service/wire.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;
using net::tcp::TcpFrameTransport;
using net::tcp::TcpServer;
using net::tcp::TcpServerOptions;
using net::tcp::TcpTransportOptions;
using service::MediatorService;
using service::SessionEnvironment;

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

const char* kScanQuery = R"(
CONSTRUCT <all> $H {$H} </all> {}
WHERE homesSrc homes.home $H
)";

constexpr auto kWrapperLatency = std::chrono::microseconds(250);

/// XmlLxpWrapper with a fixed per-exchange latency — a remote source whose
/// answers cost wire+execution time no matter how small the fill is. The
/// sleep happens OUTSIDE the lock and the cheap document walk inside it, so
/// concurrent exchanges overlap their latency but never race on the inner
/// wrapper — the shape a real remote database has, and what the service's
/// concurrent-export mode (`ExportWrapper(..., concurrent = true)`)
/// requires of a wrapper.
class SleepyXmlWrapper : public buffer::LxpWrapper {
 public:
  explicit SleepyXmlWrapper(const xml::Document* doc) : inner_(doc) {}

  std::string GetRoot(const std::string& uri) override {
    std::this_thread::sleep_for(kWrapperLatency);
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    std::this_thread::sleep_for(kWrapperLatency);
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    std::this_thread::sleep_for(kWrapperLatency);
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.FillMany(holes, budget);
  }

 private:
  std::mutex mu_;
  wrappers::XmlLxpWrapper inner_;
};

struct JoinWorkload {
  std::unique_ptr<xml::Document> homes;
  std::unique_ptr<xml::Document> schools;
  mediator::PlanPtr plan;
  std::string reference_term;

  explicit JoinWorkload(int n) {
    homes = xml::MakeHomesDoc(n, 10);
    schools = xml::MakeSchoolsDoc(n, 10);
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    sources.Register("schoolsSrc", &schools_nav);
    plan = mediator::CompileXmas(kFig3).ValueOrDie();
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    xml::Document out;
    reference_term = xml::ToTerm(
        xml::MaterializeInto(med->document(), &out).ValueOrDie());
  }
};

/// Client-side join over two remote LXP sources: each source is a
/// FramedLxpWrapper over its own TCP connection, demand-paged by a
/// BufferComponent with the given readahead window.
void BM_AsyncFillJoinOverTcp(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  static const JoinWorkload* workload = new JoinWorkload(16);

  SessionEnvironment env;
  SleepyXmlWrapper homes_wrapper(workload->homes.get());
  SleepyXmlWrapper schools_wrapper(workload->schools.get());
  env.ExportWrapper("homes.xml", &homes_wrapper, /*concurrent=*/true);
  env.ExportWrapper("schools.xml", &schools_wrapper, /*concurrent=*/true);
  MediatorService::Options options;
  options.workers = 8;
  options.queue_capacity = 4096;
  MediatorService service(&env, options);
  TcpServer server(&service, TcpServerOptions{});
  if (!server.Start().ok()) {
    state.SkipWithError("TcpServer failed to start");
    return;
  }

  int64_t joins_done = 0;
  int64_t mismatches = 0;
  int64_t async_ops = 0;
  int64_t async_batches = 0;
  int64_t readahead_hits = 0;
  for (auto _ : state) {
    TcpTransportOptions copts;
    copts.port = server.port();
    TcpFrameTransport homes_transport(copts);
    TcpFrameTransport schools_transport(copts);
    service::wire::FramedLxpWrapper homes_remote(&homes_transport,
                                                 "homes.xml");
    service::wire::FramedLxpWrapper schools_remote(&schools_transport,
                                                   "schools.xml");
    buffer::BufferComponent::Options bopts;
    bopts.max_in_flight = window;
    buffer::BufferComponent homes_buf(&homes_remote, "homes.xml", bopts);
    buffer::BufferComponent schools_buf(&schools_remote, "schools.xml",
                                        bopts);
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_buf);
    sources.Register("schoolsSrc", &schools_buf);
    auto med =
        mediator::LazyMediator::Build(*workload->plan, sources).ValueOrDie();
    xml::Document out;
    if (xml::ToTerm(xml::MaterializeInto(med->document(), &out).ValueOrDie()) !=
        workload->reference_term) {
      ++mismatches;
    }
    ++joins_done;
    async_ops += homes_transport.async_ops() + schools_transport.async_ops();
    async_batches +=
        homes_transport.async_batches() + schools_transport.async_batches();
    readahead_hits +=
        homes_buf.stats().readahead_hits + schools_buf.stats().readahead_hits;
  }
  server.Stop();
  state.SetItemsProcessed(joins_done);
  state.counters["window"] = static_cast<double>(window);
  state.counters["mismatches"] = static_cast<double>(mismatches);
  state.counters["async_ops"] = benchmark::Counter(
      static_cast<double>(async_ops), benchmark::Counter::kAvgIterations);
  state.counters["async_batches"] = benchmark::Counter(
      static_cast<double>(async_batches), benchmark::Counter::kAvgIterations);
  state.counters["readahead_hits"] = benchmark::Counter(
      static_cast<double>(readahead_hits), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AsyncFillJoinOverTcp)
    ->ArgName("window")
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Full scan of a wide source: synchronous between-command prefetch
/// (workers=0, the E7 model made real-time) vs. the background pool.
void BM_BackgroundPrefetchWarm(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  static const std::unique_ptr<xml::Document>* homes =
      new std::unique_ptr<xml::Document>(xml::MakeHomesDoc(64, 10));

  std::string reference;
  {
    SessionEnvironment ref_env;
    ref_env.RegisterWrapperFactory(
        "homesSrc",
        [doc = homes->get()] {
          return std::make_unique<wrappers::XmlLxpWrapper>(doc);
        },
        "homes.xml");
    MediatorService ref_service(&ref_env, {});
    auto doc = client::FramedDocument::Open(&ref_service, kScanQuery)
                   .ValueOrDie();
    xml::Document out;
    reference = xml::ToTerm(xml::MaterializeInto(doc.get(), &out).ValueOrDie());
  }

  int64_t sessions_done = 0;
  int64_t mismatches = 0;
  int64_t prefetch_fills = 0;
  int64_t pushed_or_cached = 0;
  for (auto _ : state) {
    SessionEnvironment env;
    SessionEnvironment::WrapperOptions wo;
    wo.prefetch_per_command = 8;
    wo.background_prefetch = true;
    env.RegisterWrapperFactory(
        "homesSrc",
        [doc = homes->get()] {
          return std::make_unique<SleepyXmlWrapper>(doc);
        },
        "homes.xml", wo);
    MediatorService::Options options;
    options.workers = 2;
    options.source_cache_bytes = 16 << 20;
    options.prefetch_workers = workers;
    options.prefetch_fills_per_job = 8;
    MediatorService service(&env, options);

    auto doc =
        client::FramedDocument::Open(&service, kScanQuery).ValueOrDie();
    xml::Document out;
    if (xml::ToTerm(xml::MaterializeInto(doc.get(), &out).ValueOrDie()) !=
        reference) {
      ++mismatches;
    }
    ++sessions_done;
    service::ServiceMetricsSnapshot snap = service.Metrics();
    prefetch_fills += snap.prefetch_fills;
    auto session = service.registry().Find(doc->session_id());
    if (session != nullptr) {
      session->RefreshSourceMetrics();
      pushed_or_cached += session->metrics().pushed_applied +
                          session->metrics().cache_hits;
    }
  }
  state.SetItemsProcessed(sessions_done);
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["mismatches"] = static_cast<double>(mismatches);
  state.counters["prefetch_fills"] = benchmark::Counter(
      static_cast<double>(prefetch_fills), benchmark::Counter::kAvgIterations);
  state.counters["pushed_or_cached"] = benchmark::Counter(
      static_cast<double>(pushed_or_cached),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BackgroundPrefetchWarm)
    ->ArgName("workers")
    ->Arg(0)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
