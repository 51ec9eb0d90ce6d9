// The depth ladder: per-layer attribution by stack depth.
//
// A fixed, seeded sample of a workload's session scripts is replayed on one
// thread, with no injected latency, at five depths of the stack:
//
//   1. the operator tree over documents   (mediator::LazyMediator::Build)
//   2. + buffer and wrapper               (service::Session::Build)
//   3. + in-process frames                (client::FramedDocument over
//                                          service::MediatorService)
//   4. + TCP loopback                     (net::tcp::TcpServer/Transport)
//   5. + the 3-backend fleet              (fleet::SessionRouter over TCP)
//
// A layer's self time per command is its depth's time per command minus
// the depth below. Every depth runs the unoptimized plan (the optimizer's
// effect shows in the end-to-end metrics, not here), so neighbouring depths
// differ by exactly one layer. Every depth must return the same answers,
// and each answer is checked against the reference on the way.
#ifndef NAVBENCH_LADDER_H_
#define NAVBENCH_LADDER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/router.h"
#include "inputs.h"
#include "oracle.h"
#include "service/metrics.h"

namespace navbench {

struct LadderResult {
  static constexpr int kDepths = 5;
  /// Median over passes of the mean time per navigation command, by depth
  /// (these differences are the layers' self times), and of the median
  /// command latency (comparable with a workload's cmd_p50_us).
  std::array<double, kDepths> ns_per_cmd{};
  std::array<double, kDepths> p50_ns{};
  int64_t commands_per_pass = 0;
  int64_t sessions_per_pass = 0;
  /// Depth 1, warm pass only: source navigations (CountingNavigable) per
  /// client command. The timed passes run over the plain documents.
  double source_navs_per_cmd = 0;
  /// Depth 2, one pass: buffer fills and readahead flights.
  double fills_per_session = 0;
  int64_t readahead_issued = 0;
  int64_t readahead_hits = 0;
  int64_t readahead_fallbacks = 0;
  /// Depth 4's server and depth 5's router counters.
  mix::service::NetStats tcp;
  mix::fleet::FleetStats fleet;
  /// False when some depth answered differently or wrongly (`mismatch`).
  bool identical = true;
  std::string mismatch;
};

/// `max_in_flight` is the XML sources' readahead window, as in the
/// workload the sample comes from. One unrecorded pass warms the plan
/// caches, then `passes` recorded passes run depth by depth.
LadderResult RunLadder(const Fixture& fixture,
                       const std::vector<SessionSpec>& sample,
                       int max_in_flight, int passes);

}  // namespace navbench

#endif  // NAVBENCH_LADDER_H_
