// How the benchmark deploys the program: a fixture's generated sources
// registered in a service::SessionEnvironment, each behind the benchmark's
// LatencyWrapper seam, and the TCP servers and client connections that
// reach a service.
#ifndef NAVBENCH_ENV_H_
#define NAVBENCH_ENV_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "buffer/lxp.h"
#include "mediator/passes/pass.h"
#include "net/tcp/tcp_server.h"
#include "oracle.h"
#include "seams.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wire.h"

namespace navbench {

struct SourceSetup {
  /// Injected latency per wrapper exchange, in ns (0: none).
  int64_t latency_ns = 0;
  WrapperTally* tally = nullptr;
  const std::atomic<bool>* trace = nullptr;
  /// Options of the XML sources (homesSrc, schoolsSrc); the relational
  /// ones (realty, edu) get their pushdown capability on the "db" view.
  mix::service::SessionEnvironment::WrapperOptions xml;
  /// Replaces the XML wrappers' factory (remote sources); null: local
  /// XmlLxpWrapper behind the latency seam.
  std::function<std::unique_ptr<mix::buffer::LxpWrapper>(
      const mix::xml::Document* doc, const char* uri)>
      xml_factory;
};

void RegisterSources(mix::service::SessionEnvironment* env,
                     const Sources& sources, const SourceSetup& setup);

/// The optimizer configuration a service derives for these sources
/// (pushdown on the relational ones), for timing compilation directly.
mix::mediator::passes::OptimizerOptions OptimizerFor(const Sources& sources);

/// Starts a TCP server for `service` on an ephemeral loopback port.
std::unique_ptr<mix::net::tcp::TcpServer> StartServer(
    mix::service::MediatorService* service, int event_loops);

/// A client connection to a server started by StartServer.
std::unique_ptr<mix::service::wire::FrameTransport> Connect(uint16_t port);

}  // namespace navbench

#endif  // NAVBENCH_ENV_H_
