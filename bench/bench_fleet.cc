// Experiment E18 (DESIGN.md §4 "Fleet tier"): the session router over a
// fleet of real TCP mixd backends.
//
//   * BM_FleetPlacement — a thousand concurrent sessions opened through the
//     router across 3 loopback backends: sessions/sec (items_per_second),
//     open-latency p50/p99, bounded-load spills and sheds. Every session's
//     materialized answer is byte-checked against an in-process evaluation
//     of the same plan (`mismatches` must stay 0): placement must never
//     change answers.
//   * BM_FleetFailover — sessions mid-navigation when their backend's
//     server is stopped: the router ejects it, re-opens the survivors'
//     sessions on ring successors, and re-derives the clients' node handles
//     by path replay. `mismatches` must stay 0 — failover is correct, not
//     merely available; `failovers`/`replays` show it actually happened.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/framed_document.h"
#include "fleet/router.h"
#include "mediator/instantiate.h"
#include "mediator/plan_cache.h"
#include "mediator/translate.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "service/service.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;
using fleet::SessionRouter;
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

/// N backends, each a full mixd behind a real TcpServer on loopback.
struct Fleet {
  std::vector<std::unique_ptr<SessionEnvironment>> envs;
  std::vector<std::unique_ptr<MediatorService>> services;
  std::vector<std::unique_ptr<TcpServer>> servers;

  Fleet(const Workload& workload, int n) {
    for (int i = 0; i < n; ++i) {
      auto env = std::make_unique<SessionEnvironment>();
      workload.Populate(env.get());
      MediatorService::Options opts;
      opts.backend_id = "b" + std::to_string(i);
      opts.workers = 4;
      opts.queue_capacity = 4096;
      opts.max_sessions = 4096;
      auto service = std::make_unique<MediatorService>(env.get(), opts);
      auto server = std::make_unique<TcpServer>(service.get(),
                                                TcpServerOptions{});
      if (!server->Start().ok()) continue;
      envs.push_back(std::move(env));
      services.push_back(std::move(service));
      servers.push_back(std::move(server));
    }
  }

  ~Fleet() {
    for (auto& s : servers) s->Stop();
  }

  std::vector<SessionRouter::Backend> Backends() const {
    std::vector<SessionRouter::Backend> backends;
    for (size_t i = 0; i < servers.size(); ++i) {
      uint16_t port = servers[i]->port();
      backends.push_back(SessionRouter::Backend{
          "b" + std::to_string(i), [port] {
            TcpTransportOptions copts;
            copts.port = port;
            copts.op_timeout_ns = 5'000'000'000;
            copts.connect_timeout_ns = 1'000'000'000;
            return std::make_unique<TcpFrameTransport>(copts);
          }});
    }
    return backends;
  }
};

int64_t PercentileUs(std::vector<int64_t>* ns, double p) {
  if (ns->empty()) return 0;
  std::sort(ns->begin(), ns->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(ns->size() - 1));
  return (*ns)[idx] / 1000;
}

/// `conns` client threads x `sessions-per-thread` concurrent sessions, all
/// placed by the router over 3 TCP backends and held open together.
void BM_FleetPlacement(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  const int per_thread = static_cast<int>(state.range(1));
  static const Workload* workload = new Workload(12);

  int64_t sessions_done = 0;
  int64_t mismatches = 0;
  int64_t spills = 0;
  int64_t sheds = 0;
  std::vector<int64_t> open_ns;
  for (auto _ : state) {
    Fleet fleet(*workload, 3);
    if (fleet.servers.size() != 3) {
      state.SkipWithError("fleet failed to start");
      return;
    }
    SessionRouter router(fleet.Backends(), {});

    std::atomic<int64_t> bad{0};
    std::mutex lat_mu;
    std::vector<std::thread> clients;
    clients.reserve(conns);
    for (int c = 0; c < conns; ++c) {
      clients.emplace_back([&router, &bad, &lat_mu, &open_ns, per_thread] {
        std::vector<std::unique_ptr<client::FramedDocument>> docs;
        std::vector<int64_t> lat;
        lat.reserve(per_thread);
        for (int s = 0; s < per_thread; ++s) {
          auto t0 = std::chrono::steady_clock::now();
          auto doc = router.OpenDocument(kFig3);
          auto t1 = std::chrono::steady_clock::now();
          lat.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t1 - t0)
                            .count());
          if (!doc.ok()) {
            ++bad;
            continue;
          }
          docs.push_back(std::move(doc.value()));
        }
        // All sessions live concurrently; materialize and close them all.
        for (auto& doc : docs) {
          xml::Document out;
          if (xml::ToTerm(xml::MaterializeInto(doc.get(), &out).ValueOrDie()) !=
              workload->reference_term) {
            ++bad;
          }
          (void)doc->Close();
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        open_ns.insert(open_ns.end(), lat.begin(), lat.end());
      });
    }
    for (auto& t : clients) t.join();
    sessions_done += int64_t{conns} * per_thread;
    mismatches += bad.load();
    fleet::FleetStats stats = router.stats();
    spills += stats.open_spills;
    sheds += stats.sheds;
  }
  state.SetItemsProcessed(sessions_done);
  state.counters["conns"] = static_cast<double>(conns);
  state.counters["sessions"] = static_cast<double>(conns * per_thread);
  state.counters["mismatches"] = static_cast<double>(mismatches);
  state.counters["open_spills"] = static_cast<double>(spills);
  state.counters["sheds"] = static_cast<double>(sheds);
  state.counters["open_p50_us"] =
      static_cast<double>(PercentileUs(&open_ns, 0.50));
  state.counters["open_p99_us"] =
      static_cast<double>(PercentileUs(&open_ns, 0.99));
}
BENCHMARK(BM_FleetPlacement)
    ->ArgNames({"conns", "per_thread"})
    ->Args({4, 16})
    ->Args({8, 32})
    ->Args({16, 64})  // 1024 concurrent sessions over 3 backends
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Sessions caught mid-navigation by a backend death: every one must finish
/// byte-identically on a surviving backend.
void BM_FleetFailover(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  static const Workload* workload = new Workload(12);

  int64_t sessions_done = 0;
  int64_t mismatches = 0;
  int64_t failovers = 0;
  int64_t replays = 0;
  for (auto _ : state) {
    Fleet fleet(*workload, 3);
    if (fleet.servers.size() != 3) {
      state.SkipWithError("fleet failed to start");
      return;
    }
    SessionRouter::Options opts;
    opts.health.failure_threshold = 1;
    opts.health.probe_interval_ns = int64_t{3600} * 1'000'000'000;
    SessionRouter router(fleet.Backends(), opts);

    std::vector<std::unique_ptr<client::FramedDocument>> docs;
    std::vector<NodeId> resume_from;
    int64_t bad = 0;
    for (int s = 0; s < sessions; ++s) {
      auto doc = router.OpenDocument(kFig3);
      if (!doc.ok()) {
        ++bad;
        continue;
      }
      // Partial navigation: latch a mid-document handle to resume from.
      std::optional<NodeId> child = doc.value()->Down(doc.value()->Root());
      if (!child.has_value()) {
        ++bad;
        continue;
      }
      resume_from.push_back(*child);
      docs.push_back(std::move(doc.value()));
    }

    // Kill the query's home backend under every session bound to it.
    size_t home =
        router.ring().PreferenceFor(mediator::CanonicalXmasKey(kFig3))[0];
    fleet.servers[home]->Stop();

    for (size_t i = 0; i < docs.size(); ++i) {
      if (docs[i]->Fetch(resume_from[i]).empty()) ++bad;
      xml::Document out;
      if (xml::ToTerm(xml::MaterializeInto(docs[i].get(), &out).ValueOrDie()) !=
          workload->reference_term) {
        ++bad;
      }
      (void)docs[i]->Close();
    }
    sessions_done += sessions;
    mismatches += bad;
    fleet::FleetStats stats = router.stats();
    failovers += stats.failovers;
    replays += stats.path_replays;
  }
  state.SetItemsProcessed(sessions_done);
  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["mismatches"] = static_cast<double>(mismatches);
  state.counters["failovers"] = static_cast<double>(failovers);
  state.counters["replays"] = static_cast<double>(replays);
}
BENCHMARK(BM_FleetFailover)
    ->ArgName("sessions")
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
