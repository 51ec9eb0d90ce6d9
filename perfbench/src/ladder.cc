#include "ladder.h"

#include <map>
#include <memory>

#include "client/framed_document.h"
#include "core/check.h"
#include "env.h"
#include "mediator/instantiate.h"
#include "net/tcp/tcp_server.h"
#include "script.h"
#include "service/service.h"
#include "stats.h"
#include "xml/doc_navigable.h"

namespace navbench {

using mix::client::FramedDocument;
using mix::net::tcp::TcpServer;
using mix::service::MediatorService;

namespace {

constexpr int kFleetBackends = 3;

/// Everything the five depths run on. Members are declared in dependency
/// order: servers after the services they host, clients after servers.
struct Stack {
  std::atomic<bool> no_trace{false};
  WrapperTally tally;
  mix::NavStats source_navs;
  std::vector<std::unique_ptr<mix::xml::DocNavigable>> docs;
  std::vector<std::unique_ptr<mix::CountingNavigable>> counted;
  /// Depth 1's sources: plain documents for the timed passes, and the same
  /// documents behind CountingNavigable for the warm pass, which counts
  /// source navigations (the counting stays out of depth 1's time).
  mix::mediator::SourceRegistry documents;
  mix::mediator::SourceRegistry counted_documents;

  mix::service::SessionEnvironment env;
  std::unique_ptr<MediatorService> service;
  std::unique_ptr<TcpServer> server;
  std::unique_ptr<mix::service::wire::FrameTransport> connection;
  std::vector<std::unique_ptr<MediatorService>> backends;
  std::vector<std::unique_ptr<TcpServer>> backend_servers;
  std::unique_ptr<mix::fleet::SessionRouter> router;

  Stack(const Fixture& fixture, int max_in_flight) {
    for (const auto& [name, doc] : fixture.sources.Documents()) {
      docs.push_back(std::make_unique<mix::xml::DocNavigable>(doc));
      counted.push_back(std::make_unique<mix::CountingNavigable>(
          docs.back().get(), &source_navs));
      documents.Register(name, docs.back().get());
      counted_documents.Register(name, counted.back().get());
    }
    SourceSetup setup;
    setup.tally = &tally;
    setup.trace = &no_trace;
    setup.xml.max_in_flight = max_in_flight;
    RegisterSources(&env, fixture.sources, setup);

    // Every depth runs the same, unoptimized plan, so each difference
    // between neighbouring depths is one layer's work and nothing else.
    MediatorService::Options options;
    options.workers = 1;
    options.optimizer_level = 0;
    service = std::make_unique<MediatorService>(&env, options);
    server = StartServer(service.get(), 1);
    connection = Connect(server->port());

    std::vector<mix::fleet::SessionRouter::Backend> routes;
    for (int i = 0; i < kFleetBackends; ++i) {
      options.backend_id = "b" + std::to_string(i);
      backends.push_back(std::make_unique<MediatorService>(&env, options));
      backend_servers.push_back(StartServer(backends.back().get(), 1));
      uint16_t port = backend_servers.back()->port();
      routes.push_back({options.backend_id, [port] { return Connect(port); }});
    }
    router = std::make_unique<mix::fleet::SessionRouter>(
        std::move(routes), mix::fleet::SessionRouter::Options());
  }
};

struct DepthCounters {
  int64_t fills = 0;
  int64_t readahead_issued = 0;
  int64_t readahead_hits = 0;
  int64_t readahead_fallbacks = 0;
};

/// `count_navs`: depth 1 runs over the counted sources.
ScriptResult RunAtDepth(Stack& stack, const Fixture& fixture, int depth,
                        const SessionSpec& s, uint64_t id,
                        const CommandSink& sink, DepthCounters* counters,
                        bool count_navs) {
  const PoolQuery& q = fixture.pool[static_cast<size_t>(s.query)];
  ScriptResult r;
  switch (depth) {
    case 1: {
      auto med = mix::mediator::LazyMediator::Build(
          *q.raw_plan,
          count_navs ? stack.counted_documents : stack.documents);
      if (!med.ok()) {
        r.ok = false;
        r.error = med.status().ToString();
        return r;
      }
      return RunScript(med.value()->document(), s.steps, q, {}, sink);
    }
    case 2: {
      auto session = mix::service::Session::Build(id, stack.env, q.raw_plan);
      if (!session.ok()) {
        r.ok = false;
        r.error = session.status().ToString();
        return r;
      }
      mix::service::Session* sp = session.value().get();
      r = RunScript(
          sp->document(), s.steps, q, [sp] { return sp->TakeSourceStatus(); },
          sink);
      sp->RefreshSourceMetrics();
      const mix::service::SessionMetrics& m = sp->metrics();
      counters->fills += m.fills;
      counters->readahead_issued += m.readahead_issued;
      counters->readahead_hits += m.readahead_hits;
      counters->readahead_fallbacks += m.readahead_fallbacks;
      return r;
    }
    case 3:
      return RunClientSession(
          FramedDocument::Open(stack.service.get(), q.text), s.steps, q, sink);
    case 4:
      return RunClientSession(
          FramedDocument::Open(stack.connection.get(), q.text), s.steps, q,
          sink);
    default:
      return RunClientSession(stack.router->OpenDocument(q.text), s.steps, q,
                              sink);
  }
}

}  // namespace

LadderResult RunLadder(const Fixture& fixture,
                       const std::vector<SessionSpec>& sample,
                       int max_in_flight, int passes) {
  LadderResult out;
  Stack stack(fixture, max_in_flight);

  auto fail = [&out](int depth, size_t i, const ScriptResult& r) {
    if (!out.identical) return;
    out.identical = false;
    out.mismatch = "depth " + std::to_string(depth) + " session " +
                   std::to_string(i) + ": " +
                   (r.ok ? r.mismatch : "typed error " + r.error);
  };

  // Warm pass: records every depth's transcripts and compares them.
  uint64_t next_id = 1;
  std::vector<std::string> transcripts(sample.size());
  for (int depth = 1; depth <= LadderResult::kDepths; ++depth) {
    DepthCounters counters;
    const int64_t navs_before = stack.source_navs.total();
    int64_t commands = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
      std::string transcript;
      CommandSink sink;
      sink.transcript = &transcript;
      ScriptResult r = RunAtDepth(stack, fixture, depth, sample[i],
                                  next_id++, sink, &counters, true);
      commands += r.commands;
      if (!r.ok || !r.mismatch.empty()) {
        fail(depth, i, r);
      } else if (depth == 1) {
        transcripts[i] = std::move(transcript);
      } else if (transcript != transcripts[i]) {
        fail(depth, i, r);
        out.mismatch += "answers differ from depth 1";
      }
    }
    if (depth == 1) {
      out.commands_per_pass = commands;
      out.source_navs_per_cmd =
          commands > 0 ? static_cast<double>(stack.source_navs.total() -
                                             navs_before) /
                             static_cast<double>(commands)
                       : 0;
    } else if (depth == 2) {
      out.fills_per_session = sample.empty()
                                  ? 0
                                  : static_cast<double>(counters.fills) /
                                        static_cast<double>(sample.size());
      out.readahead_issued = counters.readahead_issued;
      out.readahead_hits = counters.readahead_hits;
      out.readahead_fallbacks = counters.readahead_fallbacks;
    }
  }
  out.sessions_per_pass = static_cast<int64_t>(sample.size());

  std::array<std::vector<double>, LadderResult::kDepths> per_pass, p50s;
  for (int pass = 0; pass < passes && out.identical; ++pass) {
    for (int depth = 1; depth <= LadderResult::kDepths; ++depth) {
      DepthCounters counters;
      int64_t total_ns = 0;
      int64_t commands = 0;
      std::vector<int64_t> latency;
      CommandSink sink;
      sink.total_ns = &total_ns;
      sink.latency_ns = &latency;
      for (size_t i = 0; i < sample.size(); ++i) {
        ScriptResult r = RunAtDepth(stack, fixture, depth, sample[i],
                                    next_id++, sink, &counters, false);
        commands += r.commands;
        if (!r.ok || !r.mismatch.empty()) fail(depth, i, r);
      }
      if (commands > 0) {
        const size_t d = static_cast<size_t>(depth - 1);
        per_pass[d].push_back(static_cast<double>(total_ns) /
                              static_cast<double>(commands));
        p50s[d].push_back(Percentile(&latency, 0.5));
      }
    }
  }
  for (size_t d = 0; d < LadderResult::kDepths; ++d) {
    out.ns_per_cmd[d] = Median(per_pass[d]);
    out.p50_ns[d] = Median(p50s[d]);
  }
  out.tcp = stack.server->stats();
  out.fleet = stack.router->stats();
  return out;
}

}  // namespace navbench
