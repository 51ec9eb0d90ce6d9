// The benchmark's three workloads and the load generators that drive them.
//
//   fig3_browse       CPU-bound, closed loop, in-process service, no
//                     injected latency, source and answer caches off.
//   remote_mix_tcp    latency-bound, closed loop over TCP: Fig. 3 over
//                     remote XML wrappers (readahead, source cache,
//                     background prefetch) beside relational scans and
//                     joins with pushdown, under source invalidation.
//   zipf_fleet_views  cache-bound, open loop (Poisson arrivals), Zipf query
//                     popularity over a 3-backend fleet whose plan, source
//                     and answer-view caches are smaller than the pool.
//
// See README.md in this directory for sizes, budgets and the metric map.
#ifndef NAVBENCH_WORKLOADS_H_
#define NAVBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "inputs.h"
#include "oracle.h"
#include "script.h"
#include "stats.h"

namespace navbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics; true: per-layer metrics (traced run).
  bool trace = false;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. The report's `correct` is false when any
/// answer differed from the reference (the notes name workload, seed and
/// session).
RunReport RunWorkload(const RunOptions& options);

// --- Inputs, exposed for the benchmark's own tests -----------------------

/// A workload's generated inputs: sources, query pool with reference
/// answers, the pool's pick distribution and the script shape.
struct WorkloadPlan {
  std::string name;
  Fixture fixture;
  /// Cumulative pick probability by pool index.
  std::vector<double> query_cdf;
  ScriptShape shape;

  SessionSpec Spec(uint64_t session_seed) const;
};

WorkloadPlan MakePlan(const std::string& workload, uint64_t seed);

// --- Load generation, exposed for the benchmark's own tests ---------------

/// A session's outcome, from open to close.
using SessionTiming = ScriptResult;

/// Runs session `index` on client thread `thread`, appending per-command
/// latencies to `cmd_ns`.
using SessionFn = std::function<SessionTiming(int thread, int64_t index,
                                              std::vector<int64_t>* cmd_ns)>;

/// Samples of one measurement window (a run is cut into equal windows by
/// completion time; figures are reported as quiet quartiles over windows,
/// so outside load must cover three quarters of the run to move them).
struct WindowSamples {
  std::vector<int64_t> session_ns;  ///< completed sessions only
  std::vector<int64_t> open_ns;
  std::vector<int64_t> cmd_ns;
  int64_t completed = 0;
  int64_t commands = 0;
  int64_t cpu_ns = 0;  ///< process CPU spent during the window

  /// Adds `other`'s samples and counts to these.
  void Add(const WindowSamples& other);
};

struct LoadResult {
  /// All samples of the run, pooled.
  WindowSamples all;
  std::vector<WindowSamples> windows;
  int64_t window_ns = 0;
  /// Open loop: how late the generator released each arrival.
  std::vector<int64_t> late_ns;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  /// First mismatch, naming the session.
  std::string first_mismatch;
  std::string first_error;
  int64_t wall_ns = 0;
  /// Injected source latency slept during the run, summed over exchanges
  /// (filled in by the caller, which owns the wrappers).
  int64_t injected_ns = 0;
};

/// Measurement windows per run (one second each in a 30 s run). Every
/// end-to-end figure but set-up, the OK share and memory is computed per
/// window and reported as the quiet quartile over windows: the lower
/// quartile of a lower-is-better figure, the upper quartile of a
/// higher-is-better one. The p90s use tail windows of kTailWindowSpan
/// adjacent windows each, so that each holds enough samples beyond its p90.
inline constexpr int kWindows = 30;
inline constexpr int kTailWindowSpan = 3;
/// Quantile over windows that gives the quiet quartile of a
/// lower-is-better figure; 1 - kQuietQuantile for a higher-is-better one.
inline constexpr double kQuietQuantile = 0.25;

/// `clients` threads run sessions back to back for `seconds`; latency
/// counts from each session's start.
LoadResult RunClosedLoop(int clients, double seconds, const SessionFn& fn);

/// A generator thread releases arrival i at start + due_ns[i] to `clients`
/// serving threads; latency counts from the due time, so a stall shows in
/// every session queued behind it. Sessions still queued once the schedule's
/// span has passed twice are refused and count as failed.
LoadResult RunOpenLoop(const std::vector<int64_t>& due_ns, int clients,
                       const SessionFn& fn);

}  // namespace navbench

#endif  // NAVBENCH_WORKLOADS_H_
