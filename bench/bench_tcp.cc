// Experiment E17 (DESIGN.md): the real TCP transport on loopback.
//
//   * BM_TcpPipeline — framed command round-trips over a real socket at
//     connections x pipelining-depth: depth 1 is the classic
//     request/response lockstep (one wire RTT + one dispatch per command),
//     deeper pipelines amortize both. frames/sec (items_per_second) is the
//     tracked number; `mismatches` asserts every response decoded to the
//     expected label.
//   * BM_TcpSessionThroughput — whole sessions (open -> full framed
//     materialization of the Fig. 3 answer -> close) over concurrent real
//     connections, checked byte-for-byte against an in-process evaluation
//     of the same plan (`mismatches` must stay 0) — the BM_ServiceThroughput
//     fidelity bar, crossed with a real wire.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
using service::wire::Frame;
using service::wire::MsgType;

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

struct Workload {
  std::unique_ptr<xml::Document> homes;
  std::unique_ptr<xml::Document> schools;
  std::string reference_term;

  explicit Workload(int n) {
    homes = xml::MakeHomesDoc(n, 10);
    schools = xml::MakeSchoolsDoc(n, 10);
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    sources.Register("schoolsSrc", &schools_nav);
    auto plan = mediator::CompileXmas(kFig3).ValueOrDie();
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    xml::Document out;
    reference_term = xml::ToTerm(
        xml::MaterializeInto(med->document(), &out).ValueOrDie());
  }

  void Populate(SessionEnvironment* env) const {
    env->RegisterWrapperFactory(
        "homesSrc",
        [doc = homes.get()] {
          return std::make_unique<wrappers::XmlLxpWrapper>(doc);
        },
        "homes.xml");
    env->RegisterWrapperFactory(
        "schoolsSrc",
        [doc = schools.get()] {
          return std::make_unique<wrappers::XmlLxpWrapper>(doc);
        },
        "schools.xml");
  }
};

/// connections x pipelining depth over loopback. Each connection opens its
/// own session once, then round-trips batches of `depth` kFetch commands;
/// one item = one framed command answered over the real wire.
void BM_TcpPipeline(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  constexpr int kBatchesPerConn = 64;
  static const Workload* workload = new Workload(24);

  int64_t frames_done = 0;
  int64_t mismatches = 0;
  int64_t stalls = 0;
  for (auto _ : state) {
    SessionEnvironment env;
    workload->Populate(&env);
    MediatorService::Options options;
    options.workers = 4;
    options.queue_capacity = 4096;
    MediatorService service(&env, options);
    TcpServer server(&service, TcpServerOptions{});
    if (!server.Start().ok()) {
      state.SkipWithError("TcpServer failed to start");
      return;
    }

    std::atomic<int64_t> bad{0};
    std::vector<std::thread> clients;
    clients.reserve(conns);
    for (int c = 0; c < conns; ++c) {
      clients.emplace_back([&server, &bad, depth] {
        TcpTransportOptions copts;
        copts.port = server.port();
        TcpFrameTransport transport(copts);
        auto doc = client::FramedDocument::Open(&transport, kFig3);
        if (!doc.ok()) {
          bad += kBatchesPerConn * depth;
          return;
        }
        Frame fetch;
        fetch.type = MsgType::kFetch;
        fetch.session = doc.value()->session_id();
        fetch.node = doc.value()->Root();
        std::vector<std::string> batch(
            depth, service::wire::EncodeFrame(fetch));
        for (int b = 0; b < kBatchesPerConn; ++b) {
          auto responses = transport.RoundTripMany(batch);
          if (!responses.ok()) {
            bad += depth;
            continue;
          }
          for (const std::string& bytes : responses.value()) {
            auto decoded = service::wire::DecodeFrame(bytes);
            if (!decoded.ok() || decoded.value().type != MsgType::kLabel ||
                decoded.value().text != "answer") {
              ++bad;
            }
          }
        }
        (void)doc.value()->Close();
      });
    }
    for (auto& t : clients) t.join();
    frames_done += int64_t{conns} * kBatchesPerConn * depth;
    mismatches += bad.load();
    stalls += server.stats().backpressure_stalls;
    server.Stop();
  }
  state.SetItemsProcessed(frames_done);
  state.counters["conns"] = static_cast<double>(conns);
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["mismatches"] = static_cast<double>(mismatches);
  state.counters["backpressure_stalls"] = static_cast<double>(stalls);
}
BENCHMARK(BM_TcpPipeline)
    ->ArgNames({"conns", "depth"})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 16})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({4, 16})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Whole sessions over concurrent real connections; every materialized
/// answer is compared against the in-process evaluation of the same plan.
void BM_TcpSessionThroughput(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  constexpr int kSessionsPerConn = 4;
  static const Workload* workload = new Workload(24);

  int64_t sessions_done = 0;
  int64_t mismatches = 0;
  for (auto _ : state) {
    SessionEnvironment env;
    workload->Populate(&env);
    MediatorService::Options options;
    options.workers = 4;
    options.queue_capacity = 4096;
    MediatorService service(&env, options);
    TcpServer server(&service, TcpServerOptions{});
    if (!server.Start().ok()) {
      state.SkipWithError("TcpServer failed to start");
      return;
    }

    std::atomic<int64_t> bad{0};
    std::vector<std::thread> clients;
    clients.reserve(conns);
    for (int c = 0; c < conns; ++c) {
      clients.emplace_back([&server, &bad] {
        TcpTransportOptions copts;
        copts.port = server.port();
        for (int s = 0; s < kSessionsPerConn; ++s) {
          TcpFrameTransport transport(copts);
          auto doc = client::FramedDocument::Open(&transport, kFig3);
          if (!doc.ok()) {
            ++bad;
            continue;
          }
          xml::Document out;
          if (xml::ToTerm(xml::MaterializeInto(doc.value().get(), &out)
                              .ValueOrDie()) !=
              workload->reference_term) {
            ++bad;
          }
          (void)doc.value()->Close();
        }
      });
    }
    for (auto& t : clients) t.join();
    sessions_done += int64_t{conns} * kSessionsPerConn;
    mismatches += bad.load();
    server.Stop();
  }
  state.SetItemsProcessed(sessions_done);
  state.counters["conns"] = static_cast<double>(conns);
  state.counters["mismatches"] = static_cast<double>(mismatches);
}
BENCHMARK(BM_TcpSessionThroughput)
    ->ArgName("conns")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
