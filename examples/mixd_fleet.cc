// mixd_fleet: a fleet of mixd servers behind the consistent-hash session
// router, with a live failover demonstration.
//
// Starts N full mixd backends (each hosting the paper's homes/schools
// sources behind its own TCP listener), fronts them with
// fleet::SessionRouter, and drives Fig. 3 sessions through it:
//
//   1. placement — opens a few sessions of the same query and shows them
//      co-locating on the ring owner (cache-affine placement);
//   2. failover — opens a session, navigates partway, STOPS the backend it
//      lives on, and finishes the navigation: the router ejects the dead
//      backend, re-opens on a ring successor, re-derives the client's node
//      handles by path replay, and the answer comes out byte-identical;
//   3. accounting — prints the aggregated kMetrics frame (per-backend
//      snapshots plus the router's fleet{...} line).
//
// Usage: mixd_fleet [--backends=N] [--workers=N]
//   Exits 0 iff every answer (before and after the kill) matches the
//   paper's Fig. 3 result, so it doubles as a one-binary fleet smoke test.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <memory>
#include <string>
#include <vector>

#include "client/framed_document.h"
#include "fleet/router.h"
#include "mediator/plan_cache.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "service/service.h"
#include "service/wire.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/materialize.h"
#include "xml/parser.h"

namespace {

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

const char* kExpectedAnswer =
    "answer["
    "med_home[home[addr[La Jolla],zip[91220]],"
    "school[dir[Smith],zip[91220]],school[dir[Bar],zip[91220]]],"
    "med_home[home[addr[El Cajon],zip[91223]],school[dir[Hart],zip[91223]]]]";

}  // namespace

int main(int argc, char** argv) {
  using namespace mix;

  long backends = 3;
  long workers = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backends=", 11) == 0) {
      backends = std::strtol(argv[i] + 11, nullptr, 10);
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::strtol(argv[i] + 10, nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--backends=N] [--workers=N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (backends < 2 || backends > 16 || workers < 1) {
    std::fprintf(stderr, "bad --backends (2..16) or --workers value\n");
    return 1;
  }

  auto homes = xml::ParseTerm(
                   "homes[home[addr[La Jolla],zip[91220]],"
                   "home[addr[El Cajon],zip[91223]],"
                   "home[addr[Nowhere],zip[99999]]]")
                   .ValueOrDie();
  auto schools = xml::ParseTerm(
                     "schools[school[dir[Smith],zip[91220]],"
                     "school[dir[Bar],zip[91220]],"
                     "school[dir[Hart],zip[91223]]]")
                     .ValueOrDie();

  // One full mixd per backend: environment + service + TCP listener.
  std::vector<std::unique_ptr<service::SessionEnvironment>> envs;
  std::vector<std::unique_ptr<service::MediatorService>> services;
  std::vector<std::unique_ptr<net::tcp::TcpServer>> servers;
  std::vector<fleet::SessionRouter::Backend> ring;
  for (long i = 0; i < backends; ++i) {
    auto env = std::make_unique<service::SessionEnvironment>();
    env->RegisterWrapperFactory(
        "homesSrc",
        [&homes] {
          return std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
        },
        "homes.xml");
    env->RegisterWrapperFactory(
        "schoolsSrc",
        [&schools] {
          return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
        },
        "schools.xml");
    service::MediatorService::Options options;
    options.backend_id = "b" + std::to_string(i);
    options.workers = static_cast<int>(workers);
    auto service =
        std::make_unique<service::MediatorService>(env.get(), options);
    auto server = std::make_unique<net::tcp::TcpServer>(
        service.get(), net::tcp::TcpServerOptions{});
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "mixd_fleet: backend %ld: %s\n", i,
                   started.ToString().c_str());
      return 1;
    }
    std::printf("mixd_fleet: backend b%ld on 127.0.0.1:%u\n", i,
                server->port());
    uint16_t port = server->port();
    ring.push_back(fleet::SessionRouter::Backend{
        "b" + std::to_string(i), [port] {
          net::tcp::TcpTransportOptions copts;
          copts.port = port;
          copts.op_timeout_ns = 5'000'000'000;
          copts.connect_timeout_ns = 1'000'000'000;
          return std::make_unique<net::tcp::TcpFrameTransport>(copts);
        }});
    envs.push_back(std::move(env));
    services.push_back(std::move(service));
    servers.push_back(std::move(server));
  }

  fleet::SessionRouter::Options ropts;
  ropts.health.failure_threshold = 1;  // demo: eject on the first failure
  fleet::SessionRouter router(std::move(ring), ropts);

  int rc = 0;
  auto check = [&rc](const std::string& got, const char* what) {
    if (got == kExpectedAnswer) {
      std::printf("  %s: answer byte-identical to Fig. 3\n", what);
    } else {
      std::printf("  %s: MISMATCH\n    got      %s\n    expected %s\n", what,
                  got.c_str(), kExpectedAnswer);
      rc = 1;
    }
  };
  auto materialize = [](client::FramedDocument* doc) {
    xml::Document out;
    return xml::ToTerm(xml::MaterializeInto(doc, &out).ValueOrDie());
  };

  // 1. Placement: same query, same home backend.
  size_t home =
      router.ring().PreferenceFor(mediator::CanonicalXmasKey(kFig3))[0];
  std::printf("placement: Fig. 3 sessions home on backend %s\n",
              router.backend_name(home).c_str());
  for (int i = 0; i < 2; ++i) {
    auto doc = router.OpenDocument(kFig3);
    if (!doc.ok()) {
      std::fprintf(stderr, "open: %s\n", doc.status().ToString().c_str());
      return 1;
    }
    check(materialize(doc.value().get()),
          i == 0 ? "session 1" : "session 2 (warm caches)");
    (void)doc.value()->Close();
  }

  // 2. Failover: kill the home backend under a live, half-navigated session.
  auto doc = router.OpenDocument(kFig3);
  if (!doc.ok()) {
    std::fprintf(stderr, "open: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  std::optional<NodeId> first = doc.value()->Down(doc.value()->Root());
  if (!first.has_value()) {
    std::fprintf(stderr, "mixd_fleet: empty answer document\n");
    return 1;
  }
  std::printf("failover: stopping backend %s mid-session\n",
              router.backend_name(home).c_str());
  servers[home]->Stop();
  std::printf("  pre-kill handle still resolves: label '%s'\n",
              doc.value()->Fetch(*first).c_str());
  check(materialize(doc.value().get()), "post-failover continuation");
  (void)doc.value()->Close();

  // 3. Accounting: the fleet metrics frame (dead backend omitted).
  auto transport = router.MakeTransport();
  service::wire::Frame metrics;
  metrics.type = service::wire::MsgType::kMetrics;
  auto reply = service::wire::Call(transport.get(), metrics);
  if (reply.ok()) std::printf("%s\n", reply.value().text.c_str());

  for (auto& s : servers) s->Stop();
  return rc;
}
