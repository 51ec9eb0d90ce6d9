// Experiment E13 (DESIGN.md "Fault handling & degradation"): recovery cost
// under injected source faults.
//
//   * BM_FaultRecovery — the full service stack (open -> framed
//     materialization of the Fig. 3 answer -> fidelity check -> close) with
//     per-session wrapper fault injection at 0/50/200 permille and a
//     16-attempt retry budget. items_per_second is goodput (correct
//     sessions per second); the counters report what recovery cost:
//     faults seen, retries issued, virtual backoff charged, holes degraded,
//     and the service p99. `mismatches` is expected to stay 0 — under
//     these rates a retried run is byte-identical to a fault-free one.
//   * BM_ClientRetry — the same workload with a healthy server but a faulty
//     wire (FaultyFrameTransport): client-side re-issues absorb transport
//     faults; `injected` and `client_retries` report the exchange tax.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "client/framed_document.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "net/fault.h"
#include "service/fault_transport.h"
#include "service/service.h"
#include "service/session.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;
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
  std::string reference_term;  ///< in-process evaluation of the same plan

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

  /// Registers both sources with `wo` (fault injection + retry discipline).
  void Populate(SessionEnvironment* env,
                const SessionEnvironment::WrapperOptions& wo) const {
    env->RegisterWrapperFactory(
        "homesSrc",
        [doc = homes.get()] {
          return std::make_unique<wrappers::XmlLxpWrapper>(doc);
        },
        "homes.xml", wo);
    env->RegisterWrapperFactory(
        "schoolsSrc",
        [doc = schools.get()] {
          return std::make_unique<wrappers::XmlLxpWrapper>(doc);
        },
        "schools.xml", wo);
  }
};

std::string MaterializeFramed(client::FramedDocument* doc) {
  xml::Document out;
  return xml::ToTerm(xml::MaterializeInto(doc, &out).ValueOrDie());
}

SessionEnvironment::WrapperOptions FaultOptions(int permille) {
  SessionEnvironment::WrapperOptions wo;
  const double p = permille / 1000.0;
  wo.fault.p_fail = p;
  wo.fault.p_truncate = p / 4;
  wo.fault.p_garble = p / 4;
  wo.fault.p_duplicate = p / 4;
  wo.fault.p_delay = p;
  wo.retry.max_attempts = 16;
  return wo;
}

/// One "item" = one correct session (open -> materialize -> fidelity check
/// -> close) against sources injecting faults at `permille`/1000 per
/// exchange. Goodput is items_per_second; the fault counters report the
/// recovery tax that buys the unchanged answers.
void BM_FaultRecovery(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  static const Workload* workload = new Workload(24);

  int64_t sessions = 0;
  int64_t mismatches = 0;
  int64_t faults = 0, retries = 0, backoff_ns = 0, degraded = 0;
  int64_t p99_ns = 0;
  for (auto _ : state) {
    SessionEnvironment env;
    workload->Populate(&env, FaultOptions(permille));
    MediatorService service(&env, {});

    auto opened = client::FramedDocument::Open(&service, kFig3);
    if (opened.ok()) {
      auto doc = std::move(opened).ValueOrDie();
      if (MaterializeFramed(doc.get()) != workload->reference_term) {
        ++mismatches;
      }
      (void)doc->Close();
    } else {
      ++mismatches;
    }
    ++sessions;

    service::ServiceMetricsSnapshot snap = service.Metrics();
    faults += snap.source_faults;
    retries += snap.source_retries;
    backoff_ns += snap.source_backoff_ns;
    degraded += snap.degraded_holes;
    p99_ns = std::max(p99_ns, snap.p99_ns);
  }
  state.SetItemsProcessed(sessions - mismatches);
  state.counters["fault_permille"] = static_cast<double>(permille);
  state.counters["mismatches"] = static_cast<double>(mismatches);
  state.counters["faults"] = static_cast<double>(faults);
  state.counters["retries"] = static_cast<double>(retries);
  state.counters["backoff_ms"] = static_cast<double>(backoff_ns) / 1e6;
  state.counters["degraded_holes"] = static_cast<double>(degraded);
  state.counters["p99_ms"] = static_cast<double>(p99_ns) / 1e6;
}
BENCHMARK(BM_FaultRecovery)
    ->ArgName("permille")
    ->Arg(0)
    ->Arg(50)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Healthy server, faulty wire: every round trip is refused/corrupted at
/// `permille`/1000 and re-issued by the client stub's retry policy.
void BM_ClientRetry(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  static const Workload* workload = new Workload(24);

  int64_t sessions = 0;
  int64_t mismatches = 0;
  int64_t injected = 0;
  int64_t client_retries = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    SessionEnvironment env;
    workload->Populate(&env, SessionEnvironment::WrapperOptions{});
    MediatorService service(&env, {});

    const double p = permille / 1000.0;
    net::FaultSpec spec;
    spec.p_fail = p;
    spec.p_truncate = p / 2;
    spec.p_garble = p / 2;
    spec.p_duplicate = p / 2;
    service::FaultyFrameTransport flaky(&service, spec, seed++);

    net::RetryOptions retry;
    retry.max_attempts = 16;
    auto opened =
        client::FramedDocument::Open(&flaky, kFig3, /*deadline_ns=*/0, retry);
    if (opened.ok()) {
      auto doc = std::move(opened).ValueOrDie();
      if (MaterializeFramed(doc.get()) != workload->reference_term) {
        ++mismatches;
      }
      client_retries += doc->retries();
      (void)doc->Close();
    } else {
      ++mismatches;
    }
    ++sessions;
    injected += flaky.policy().counters().injected();
  }
  state.SetItemsProcessed(sessions - mismatches);
  state.counters["fault_permille"] = static_cast<double>(permille);
  state.counters["mismatches"] = static_cast<double>(mismatches);
  state.counters["injected"] = static_cast<double>(injected);
  state.counters["client_retries"] = static_cast<double>(client_retries);
}
BENCHMARK(BM_ClientRetry)
    ->ArgName("permille")
    ->Arg(0)
    ->Arg(50)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
