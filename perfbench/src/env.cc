#include "env.h"

#include "core/check.h"
#include "net/tcp/tcp_transport.h"
#include "wrappers/relational_wrapper.h"
#include "wrappers/xml_lxp_wrapper.h"

namespace navbench {

using mix::service::SessionEnvironment;

void RegisterSources(SessionEnvironment* env, const Sources& sources,
                     const SourceSetup& setup) {
  auto seam = [setup](std::unique_ptr<mix::buffer::LxpWrapper> inner)
      -> std::unique_ptr<mix::buffer::LxpWrapper> {
    return std::make_unique<LatencyWrapper>(std::move(inner),
                                            setup.latency_ns, setup.tally,
                                            setup.trace);
  };
  auto xml = [&](const char* name, const mix::xml::Document* doc,
                 const char* uri) {
    if (doc == nullptr) return;
    std::function<std::unique_ptr<mix::buffer::LxpWrapper>()> factory;
    if (setup.xml_factory) {
      factory = [make = setup.xml_factory, doc, uri] { return make(doc, uri); };
    } else {
      factory = [seam, doc] {
        return seam(std::make_unique<mix::wrappers::XmlLxpWrapper>(doc));
      };
    }
    env->RegisterWrapperFactory(name, std::move(factory), uri, setup.xml);
  };
  xml("homesSrc", sources.homes.get(), "homes.xml");
  xml("schoolsSrc", sources.schools.get(), "schools.xml");

  auto relational = [&](const char* name, const mix::rdb::Database* db) {
    if (db == nullptr) return;
    SessionEnvironment::WrapperOptions options;
    options.capability = mix::wrappers::RelationalLxpWrapper(db).Capability();
    env->RegisterWrapperFactory(
        name,
        [seam, db] {
          return seam(
              std::make_unique<mix::wrappers::RelationalLxpWrapper>(db));
        },
        "db", options);
  };
  relational("realty", sources.realty.get());
  relational("edu", sources.edu.get());
}

mix::mediator::passes::OptimizerOptions OptimizerFor(const Sources& sources) {
  mix::mediator::passes::OptimizerOptions options;
  options.level = 1;
  auto add = [&](const char* name, const mix::rdb::Database* db) {
    if (db == nullptr) return;
    mix::buffer::PushdownCapability probed =
        mix::wrappers::RelationalLxpWrapper(db).Capability();
    mix::mediator::SourceCapability cap;
    cap.sigma = probed.sigma;
    cap.pushdown = probed.pushdown;
    cap.database = probed.database;
    for (const auto& [table, columns] : probed.tables) {
      for (const auto& c : columns) {
        using In = mix::buffer::PushdownCapability::ColumnType;
        using Out = mix::mediator::ColumnType;
        Out type = c.type == In::kInt      ? Out::kInt
                   : c.type == In::kDouble ? Out::kDouble
                                           : Out::kString;
        cap.tables[table].push_back({c.name, type});
      }
    }
    options.sources[name] = cap;
  };
  add("realty", sources.realty.get());
  add("edu", sources.edu.get());
  return options;
}

std::unique_ptr<mix::net::tcp::TcpServer> StartServer(
    mix::service::MediatorService* service, int event_loops) {
  mix::net::tcp::TcpServerOptions options;
  options.event_loops = event_loops;
  auto server = std::make_unique<mix::net::tcp::TcpServer>(service, options);
  mix::Status started = server->Start();
  MIX_CHECK_MSG(started.ok(), started.ToString().c_str());
  return server;
}

std::unique_ptr<mix::service::wire::FrameTransport> Connect(uint16_t port) {
  mix::net::tcp::TcpTransportOptions options;
  options.port = port;
  return std::make_unique<mix::net::tcp::TcpFrameTransport>(options);
}

}  // namespace navbench
