#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "client/framed_document.h"
#include "core/check.h"
#include "env.h"
#include "fleet/router.h"
#include "ladder.h"
#include "mediator/translate.h"
#include "net/tcp/tcp_server.h"
#include "script.h"
#include "seams.h"
#include "service/service.h"
#include "wrappers/xml_lxp_wrapper.h"

namespace navbench {

using mix::client::FramedDocument;
using mix::service::MediatorService;
using mix::service::SessionEnvironment;

namespace {

/// Injected latency of a remote source exchange.
constexpr int64_t kRemoteLatencyNs = 250'000;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// remote_mix_tcp: source-update notifications per second, an assumed
/// rate (README.md, "Where the numbers come from").
constexpr double kInvalidationsPerSecond = 20;
/// zipf_fleet_views: Poisson arrival rate. Saturating the same fleet on a
/// 4-vCPU x86 VM completes 600-900 sessions/s while the host is contended
/// and 1000-1200 while it is quiet. Session times are heavy-tailed (a
/// whole Fig. 3 answer takes some 40 ms of source exchanges, a light query
/// about 1 ms), so at 300/s light sessions often queued behind heavy ones
/// on the 3 client threads and the p50 followed the host's load; 150/s
/// keeps the client threads busy well under half the time.
constexpr double kFleetArrivalsPerSecond = 150;
/// zipf_fleet_views per-backend cache budgets, all below the pool's working
/// set (README.md gives the measured sizes).
constexpr int64_t kFleetPlanCacheEntries = 8;
constexpr int64_t kFleetSourceCacheBytes = 20 << 10;
constexpr int64_t kFleetViewCacheBytes = 64 << 10;
constexpr int kFleetBackends = 3;
/// Sessions the depth ladder replays per pass, and its recorded passes.
constexpr int kLadderSessions = 16;
constexpr int kLadderPasses = 3;

int Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// --------------------------------------------------------------------------
// Inputs

std::vector<double> CdfOf(const std::vector<double>& weights) {
  std::vector<double> cdf;
  double total = 0;
  for (double w : weights) total += w;
  double run = 0;
  for (double w : weights) {
    run += w / total;
    cdf.push_back(run);
  }
  return cdf;
}

/// `count` distinct zip indexes in [0, zips), seeded.
std::vector<int> PickZips(int count, int zips, uint64_t seed) {
  std::vector<int> all(static_cast<size_t>(zips));
  for (int i = 0; i < zips; ++i) all[static_cast<size_t>(i)] = i;
  Rng rng(seed);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.Uniform(i)]);
  }
  all.resize(static_cast<size_t>(std::min(count, zips)));
  return all;
}

void AddQuery(WorkloadPlan* plan, const std::string& text) {
  auto q = MakePoolQuery(text, plan->fixture.sources);
  MIX_CHECK_MSG(q.ok(), q.status().ToString().c_str());
  plan->fixture.pool.push_back(std::move(q).ValueOrDie());
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fig3_browse", "remote_mix_tcp", "zipf_fleet_views"};
  return names;
}

// The script lengths, walk share, query-mix shares and Zipf exponent below
// are assumptions, to be replaced by figures from a recorded client trace;
// README.md ("Where the numbers come from") gives each number's basis.
WorkloadPlan MakePlan(const std::string& workload, uint64_t seed) {
  WorkloadPlan plan;
  plan.name = workload;
  SourceSizes sizes;
  if (workload == "fig3_browse") {
    sizes.homes = 64;
    sizes.schools = 64;
    sizes.xml_zips = 16;
    plan.fixture.sources = MakeSources(sizes, SubSeed(seed, 10));
    AddQuery(&plan, Fig3Query());
    plan.query_cdf = {1.0};
    plan.shape.small_steps = 40;
    plan.shape.subtree_of_child = true;
    plan.shape.walk_share = 0.25;
    return plan;
  }
  sizes.homes = 48;
  sizes.schools = 48;
  sizes.xml_zips = 12;
  sizes.rows = 256;
  sizes.rel_zips = 32;
  plan.fixture.sources = MakeSources(sizes, SubSeed(seed, 10));
  std::vector<double> weights;
  if (workload == "remote_mix_tcp") {
    // Half the sessions browse Fig. 3, a quarter each scan or join the
    // relational sources with a pushed-down constant.
    AddQuery(&plan, Fig3Query());
    weights.push_back(4);
    for (int z : PickZips(4, sizes.rel_zips, SubSeed(seed, 11))) {
      AddQuery(&plan, RelScanQuery(ZipLabel(z)));
      weights.push_back(0.5);
    }
    for (int z : PickZips(4, sizes.rel_zips, SubSeed(seed, 12))) {
      AddQuery(&plan, RelJoinQuery(ZipLabel(z)));
      weights.push_back(0.5);
    }
    plan.query_cdf = CdfOf(weights);
    plan.shape.small_steps = 16;
    plan.shape.subtree_of_child = true;
    plan.shape.walk_share = 0.25;
    return plan;
  }
  MIX_CHECK_MSG(workload == "zipf_fleet_views", workload.c_str());
  // Pool order is popularity rank. Light queries (zips, scans, narrowings,
  // one join) hold the top 7 ranks, 62% of the draws under Zipf(1) over 36
  // texts, and ranks 3 and 4 straddle the median, so the median session
  // sits inside the light mode rather than on the edge between light and
  // heavy (Fig. 3) sessions, where a 1% shift in the mix would move it.
  //
  // The texts are the same for every seed: the fleet places a session by
  // hashing its query text, so seeded texts would give every seed its own
  // backend balance and cache pressure. The seed still decides what each
  // constant selects, through the zip labelling of the sources
  // (MakeSources), which is the same as drawing the constants over fixed
  // sources.
  AddQuery(&plan, ZipsQuery());
  AddQuery(&plan, Fig3Query());
  AddQuery(&plan, RelScanQuery(ZipLabel(0)));
  AddQuery(&plan, ZipsNarrowQuery("=", ZipLabel(0)));
  AddQuery(&plan, ZipsNarrowQuery("<", ZipLabel(3)));
  AddQuery(&plan, RelScanQuery(ZipLabel(1)));
  AddQuery(&plan, ZipsNarrowQuery("=", ZipLabel(1)));
  AddQuery(&plan, RelJoinQuery(ZipLabel(0)));
  for (int i = 0; i < 7; ++i) {
    AddQuery(&plan, Fig3ZipQuery(ZipLabel(i)));
    if (i > 0) AddQuery(&plan, RelJoinQuery(ZipLabel(i)));
    if (i > 0 && i < 6) {
      AddQuery(&plan, ZipsNarrowQuery("<", ZipLabel(3 + i)));
      AddQuery(&plan, RelScanQuery(ZipLabel(1 + i)));
      AddQuery(&plan, ZipsNarrowQuery("=", ZipLabel(1 + i)));
    }
  }
  const int n = static_cast<int>(plan.fixture.pool.size());
  ZipfLaw zipf(n, 1.0);
  for (int rank = 0; rank < n; ++rank) {
    weights.push_back(zipf.Probability(rank));
  }
  plan.query_cdf = CdfOf(weights);
  plan.shape.full_answer = true;
  // With 6 small steps the whole-answer commands were 1 in 9, so the
  // command p90 sat on the edge between them and the small steps; with 12
  // it lies inside the small steps' tail.
  plan.shape.small_steps = 12;
  return plan;
}

SessionSpec WorkloadPlan::Spec(uint64_t session_seed) const {
  Rng rng(session_seed);
  double u = rng.Unit();
  SessionSpec spec;
  spec.query = static_cast<int>(
      std::upper_bound(query_cdf.begin(), query_cdf.end(), u) -
      query_cdf.begin());
  spec.query = std::min(spec.query, static_cast<int>(query_cdf.size()) - 1);
  spec.steps = MakeScript(shape, rng.Next());
  return spec;
}

// --------------------------------------------------------------------------
// Load generation

void WindowSamples::Add(const WindowSamples& other) {
  auto append = [](std::vector<int64_t>* to, const std::vector<int64_t>& v) {
    to->insert(to->end(), v.begin(), v.end());
  };
  append(&session_ns, other.session_ns);
  append(&open_ns, other.open_ns);
  append(&cmd_ns, other.cmd_ns);
  completed += other.completed;
  commands += other.commands;
  cpu_ns += other.cpu_ns;
}

namespace {

struct ThreadSamples {
  explicit ThreadSamples(int64_t start_ns, int64_t window_ns)
      : start_ns(start_ns), window_ns(window_ns), windows(kWindows) {}

  int64_t start_ns;
  int64_t window_ns;
  std::vector<WindowSamples> windows;
  std::vector<int64_t> cmd_ns;  ///< the running session's commands
  int64_t attempted = 0, failed = 0, mismatches = 0;
  std::string first_mismatch, first_error;

  void Record(const SessionTiming& t, int64_t start, int64_t end) {
    ++attempted;
    if (!t.mismatch.empty()) {
      ++mismatches;
      if (first_mismatch.empty()) first_mismatch = t.mismatch;
    }
    WindowSamples& w = windows[static_cast<size_t>(std::clamp<int64_t>(
        (end - start_ns) / window_ns, 0, kWindows - 1))];
    w.commands += t.commands;
    w.cmd_ns.insert(w.cmd_ns.end(), cmd_ns.begin(), cmd_ns.end());
    cmd_ns.clear();
    if (!t.ok) {
      ++failed;
      if (first_error.empty()) first_error = t.error;
      return;
    }
    ++w.completed;
    w.session_ns.push_back(end - start);
    if (t.first_node_ns > 0) w.open_ns.push_back(t.first_node_ns - start);
  }

  void MergeInto(LoadResult* r) const {
    for (size_t i = 0; i < windows.size(); ++i) {
      r->windows[i].Add(windows[i]);
      r->all.Add(windows[i]);
    }
    r->attempted += attempted;
    r->failed += failed;
    r->mismatches += mismatches;
    if (r->first_mismatch.empty()) r->first_mismatch = first_mismatch;
    if (r->first_error.empty()) r->first_error = first_error;
  }
};

/// Samples process CPU at every window boundary of [start, start + span).
class CpuSampler {
 public:
  CpuSampler(int64_t start_ns, int64_t window_ns)
      : boundaries_(kWindows + 1, 0),
        thread_([this, start_ns, window_ns] {
          for (int k = 0; k <= kWindows; ++k) {
            std::unique_lock<std::mutex> lock(mu_);
            int64_t at = start_ns + k * window_ns;
            cv_.wait_for(lock, std::chrono::nanoseconds(at - NowNs()),
                         [&] { return stop_ || NowNs() >= at; });
            if (stop_) return;
            boundaries_[static_cast<size_t>(k)] = ProcessCpuNs();
          }
        }) {}
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;
  ~CpuSampler() { Finish(nullptr); }

  /// Stops sampling (a run that ended early keeps the windows it saw) and
  /// stores each window's CPU in `result`.
  void Finish(LoadResult* result) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    if (result == nullptr) return;
    for (int k = 0; k < kWindows; ++k) {
      int64_t from = boundaries_[static_cast<size_t>(k)];
      int64_t to = boundaries_[static_cast<size_t>(k) + 1];
      result->windows[static_cast<size_t>(k)].cpu_ns =
          from > 0 && to > 0 ? to - from : 0;
      result->all.cpu_ns += result->windows[static_cast<size_t>(k)].cpu_ns;
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<int64_t> boundaries_;
  std::thread thread_;  // last: it reads the members above
};

LoadResult NewResult(int64_t window_ns) {
  LoadResult r;
  r.windows.resize(kWindows);
  r.window_ns = window_ns;
  return r;
}

}  // namespace

LoadResult RunClosedLoop(int clients, double seconds, const SessionFn& fn) {
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9) / kWindows;
  LoadResult result = NewResult(window_ns);
  const int64_t start = NowNs();
  const int64_t end = start + window_ns * kWindows;
  std::vector<ThreadSamples> samples(static_cast<size_t>(clients),
                                     ThreadSamples(start, window_ns));
  CpuSampler cpu(start, window_ns);
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      ThreadSamples& mine = samples[static_cast<size_t>(t)];
      for (int64_t k = 0; NowNs() < end; ++k) {
        int64_t t0 = NowNs();
        SessionTiming timing = fn(t, k, &mine.cmd_ns);
        mine.Record(timing, t0, NowNs());
      }
    });
  }
  for (auto& th : threads) th.join();
  result.wall_ns = NowNs() - start;
  cpu.Finish(&result);
  for (const auto& s : samples) s.MergeInto(&result);
  return result;
}

LoadResult RunOpenLoop(const std::vector<int64_t>& due_ns, int clients,
                       const SessionFn& fn) {
  const int64_t span = due_ns.empty() ? kWindows : due_ns.back() + 1;
  const int64_t window_ns = std::max<int64_t>(1, span / kWindows + 1);
  LoadResult result = NewResult(window_ns);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<int64_t, int64_t>> queue;  // (index, due time)
  bool done = false;

  const int64_t start = NowNs() + 1'000'000;
  const int64_t drain_deadline = start + 2 * span;
  std::vector<ThreadSamples> samples(static_cast<size_t>(clients),
                                     ThreadSamples(start, window_ns));
  CpuSampler cpu(start, window_ns);
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      ThreadSamples& mine = samples[static_cast<size_t>(t)];
      while (true) {
        std::pair<int64_t, int64_t> job;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          job = queue.front();
          queue.pop_front();
        }
        if (NowNs() > drain_deadline) {
          // A backlog this old means the system could not keep up: the
          // session is refused (it counts as failed), so an overloaded run
          // still ends in bounded time.
          SessionTiming refused;
          refused.ok = false;
          refused.error = "not started before the drain deadline";
          mine.Record(refused, job.second, NowNs());
          continue;
        }
        SessionTiming timing = fn(t, job.first, &mine.cmd_ns);
        mine.Record(timing, job.second, NowNs());
      }
    });
  }
  result.late_ns.reserve(due_ns.size());
  for (size_t i = 0; i < due_ns.size(); ++i) {
    const int64_t due = start + due_ns[i];
    const int64_t wait = due - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    result.late_ns.push_back(std::max<int64_t>(0, NowNs() - due));
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.emplace_back(static_cast<int64_t>(i), due);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (auto& th : threads) th.join();
  result.wall_ns = NowNs() - start;
  cpu.Finish(&result);
  for (const auto& s : samples) s.MergeInto(&result);
  return result;
}

// --------------------------------------------------------------------------
// Deployments

namespace {

/// One workload's running system, as its clients reach it.
class Stack {
 public:
  virtual ~Stack() = default;

  virtual mix::Result<std::unique_ptr<FramedDocument>> Open(
      int thread, const std::string& text) = 0;
  /// Called before every measured session (source-update notifications).
  virtual void BeforeSession() {}
  virtual void StartMeasurement() {}
  /// Source-update notifications issued so far.
  virtual int64_t invalidations() const { return 0; }

  std::vector<MediatorService*> services;
  mix::net::tcp::TcpServer* tcp = nullptr;
  mix::fleet::SessionRouter* router = nullptr;
  int max_in_flight = 0;

  // Declared before the derived members that point at them.
  std::atomic<bool> trace{false};
  WrapperTally wrappers;
  TransportTally transport;
};

/// fig3_browse: one in-process service, local XML wrappers, caches off.
class InProcessStack : public Stack {
 public:
  InProcessStack(const WorkloadPlan& plan, int clients, int workers) {
    SourceSetup setup;
    setup.tally = &wrappers;
    setup.trace = &trace;
    RegisterSources(&env_, plan.fixture.sources, setup);
    MediatorService::Options options;
    options.workers = workers;
    options.queue_capacity = 4096;
    service_ = std::make_unique<MediatorService>(&env_, options);
    services = {service_.get()};
    for (int t = 0; t < clients; ++t) {
      transports_.push_back(std::make_unique<TracingTransport>(
          service_.get(), &transport, &trace));
    }
  }

  mix::Result<std::unique_ptr<FramedDocument>> Open(
      int thread, const std::string& text) override {
    return FramedDocument::Open(transports_[static_cast<size_t>(thread)].get(),
                                text);
  }

 private:
  SessionEnvironment env_;
  std::unique_ptr<MediatorService> service_;
  std::vector<std::unique_ptr<TracingTransport>> transports_;
};

/// remote_mix_tcp: clients reach the mediator over TCP; the mediator reaches
/// the XML sources over TCP too (a second service exporting them, 250 µs per
/// exchange), and the relational sources in process (250 µs per exchange).
class RemoteStack : public Stack {
 public:
  static constexpr int kXmlReadahead = 4;

  RemoteStack(const WorkloadPlan& plan, int clients) {
    const Sources& src = plan.fixture.sources;
    auto exported = [&](const mix::xml::Document* doc) {
      return std::make_unique<LatencyWrapper>(
          std::make_unique<mix::wrappers::XmlLxpWrapper>(doc),
          kRemoteLatencyNs, &wrappers, &trace, /*serialize=*/true);
    };
    homes_export_ = exported(src.homes.get());
    schools_export_ = exported(src.schools.get());
    source_env_.ExportWrapper("homes.xml", homes_export_.get(), true);
    source_env_.ExportWrapper("schools.xml", schools_export_.get(), true);
    MediatorService::Options source_options;
    source_options.workers = 4;
    source_options.queue_capacity = 4096;
    source_service_ =
        std::make_unique<MediatorService>(&source_env_, source_options);
    source_server_ = StartServer(source_service_.get(), 1);
    pool_ = std::make_unique<ConnectionPool>(source_server_->port(), 8);

    SourceSetup setup;
    setup.latency_ns = kRemoteLatencyNs;
    setup.tally = &wrappers;
    setup.trace = &trace;
    setup.xml.max_in_flight = kXmlReadahead;
    setup.xml.prefetch_per_command = 2;
    setup.xml.background_prefetch = true;
    setup.xml_factory = [pool = pool_.get()](const mix::xml::Document*,
                                             const char* uri)
        -> std::unique_ptr<mix::buffer::LxpWrapper> {
      return std::make_unique<mix::service::wire::FramedLxpWrapper>(
          pool->Next(), uri);
    };
    RegisterSources(&env_, src, setup);
    MediatorService::Options options;
    options.workers = 4;
    options.queue_capacity = 4096;
    options.source_cache_bytes = 8 << 20;
    options.prefetch_workers = 1;
    options.prefetch_fills_per_job = 4;
    service_ = std::make_unique<MediatorService>(&env_, options);
    server_ = StartServer(service_.get(), 2);
    services = {service_.get()};
    tcp = server_.get();
    max_in_flight = kXmlReadahead;
    for (int t = 0; t < clients; ++t) {
      conns_.push_back(Connect(server_->port()));
      transports_.push_back(std::make_unique<TracingTransport>(
          conns_.back().get(), &transport, &trace));
    }
  }

  mix::Result<std::unique_ptr<FramedDocument>> Open(
      int thread, const std::string& text) override {
    return FramedDocument::Open(transports_[static_cast<size_t>(thread)].get(),
                                text);
  }

  void StartMeasurement() override {
    next_invalidation_ns_.store(NowNs() + kPeriodNs);
  }

  /// Source-update notifications at a fixed rate, issued by whichever
  /// client starts a session once one is due: the write side of the mix.
  void BeforeSession() override {
    int64_t due = next_invalidation_ns_.load();
    if (due == 0 || NowNs() < due) return;
    if (!next_invalidation_ns_.compare_exchange_strong(due, due + kPeriodNs)) {
      return;
    }
    int64_t n = invalidation_count_.fetch_add(1);
    service_->InvalidateSource(n % 2 == 0 ? "homesSrc" : "schoolsSrc");
  }

  int64_t invalidations() const override { return invalidation_count_.load(); }

 private:
  static constexpr int64_t kPeriodNs =
      static_cast<int64_t>(1e9 / kInvalidationsPerSecond);

  SessionEnvironment source_env_;
  std::unique_ptr<LatencyWrapper> homes_export_;
  std::unique_ptr<LatencyWrapper> schools_export_;
  std::unique_ptr<MediatorService> source_service_;
  std::unique_ptr<mix::net::tcp::TcpServer> source_server_;
  std::unique_ptr<ConnectionPool> pool_;
  SessionEnvironment env_;
  std::unique_ptr<MediatorService> service_;
  std::unique_ptr<mix::net::tcp::TcpServer> server_;
  std::vector<std::unique_ptr<mix::service::wire::FrameTransport>> conns_;
  std::vector<std::unique_ptr<TracingTransport>> transports_;
  std::atomic<int64_t> next_invalidation_ns_{0};
  std::atomic<int64_t> invalidation_count_{0};
};

/// zipf_fleet_views: a router over three in-process backends, each with
/// plan, source and answer-view caches smaller than the pool's working set.
class FleetStack : public Stack {
 public:
  explicit FleetStack(const WorkloadPlan& plan) {
    SourceSetup setup;
    setup.latency_ns = kRemoteLatencyNs;
    setup.tally = &wrappers;
    setup.trace = &trace;
    RegisterSources(&env_, plan.fixture.sources, setup);
    std::vector<mix::fleet::SessionRouter::Backend> routes;
    for (int i = 0; i < kFleetBackends; ++i) {
      MediatorService::Options options;
      options.backend_id = "b" + std::to_string(i);
      options.workers = 2;
      options.queue_capacity = 4096;
      options.plan_cache_entries = kFleetPlanCacheEntries;
      options.source_cache_bytes = kFleetSourceCacheBytes;
      options.answer_view_cache_bytes = kFleetViewCacheBytes;
      backends_.push_back(std::make_unique<MediatorService>(&env_, options));
      MediatorService* backend = backends_.back().get();
      services.push_back(backend);
      routes.push_back({options.backend_id, [backend] {
                          return std::make_unique<
                              mix::fleet::BorrowedFrameTransport>(backend);
                        }});
    }
    router_ = std::make_unique<mix::fleet::SessionRouter>(
        std::move(routes), mix::fleet::SessionRouter::Options());
    router = router_.get();
  }

  mix::Result<std::unique_ptr<FramedDocument>> Open(
      int, const std::string& text) override {
    return FramedDocument::Open(
        std::make_unique<TracingTransport>(router_->MakeTransport(),
                                           &transport, &trace),
        text);
  }

 private:
  SessionEnvironment env_;
  std::vector<std::unique_ptr<MediatorService>> backends_;
  std::unique_ptr<mix::fleet::SessionRouter> router_;
};

struct Profile {
  int clients = 1;
  /// > 0: open loop at this many arrivals per second.
  double arrival_rate = 0;
};

Profile ProfileOf(const std::string& workload) {
  const int n = Nproc();
  Profile p;
  if (workload == "fig3_browse") {
    // Client threads and service workers share the benchmark's CPUs.
    p.clients = std::max(1, n / 2);
  } else if (workload == "remote_mix_tcp") {
    // With n clients on all n CPUs, runs on a contended 4-vCPU guest saw
    // 5-18% CPU steal while the 2-CPU workloads run just before and after
    // them saw 1-2%, and open_p90_us and cmd_p90_us spread by 0.3-0.4 of
    // their medians across seeds.
    p.clients = std::max(1, n / 2);
  } else {
    // One generator thread feeds the rest.
    p.clients = std::max(1, n - 1);
    p.arrival_rate = kFleetArrivalsPerSecond;
  }
  return p;
}

/// Restricts the process (the calling thread and every thread it starts
/// afterwards) to the last `count` CPUs it may use. CPU 0 is the last
/// choice: it tends to take more of the host's interrupts.
void PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++taken;
    }
  }
  if (taken > 0) sched_setaffinity(0, sizeof(chosen), &chosen);
}

std::unique_ptr<Stack> MakeStack(const WorkloadPlan& plan,
                                 const Profile& profile) {
  if (plan.name == "fig3_browse") {
    return std::make_unique<InProcessStack>(
        plan, profile.clients, std::max(1, Nproc() - profile.clients));
  }
  if (plan.name == "remote_mix_tcp") {
    return std::make_unique<RemoteStack>(plan, profile.clients);
  }
  return std::make_unique<FleetStack>(plan);
}

SessionTiming RunSession(Stack* stack, int thread, const WorkloadPlan& plan,
                         const SessionSpec& spec,
                         std::vector<int64_t>* cmd_ns) {
  const PoolQuery& query = plan.fixture.pool[static_cast<size_t>(spec.query)];
  CommandSink sink;
  sink.latency_ns = cmd_ns;
  return RunClientSession(stack->Open(thread, query.text), spec.steps, query,
                          sink);
}

/// Single-threaded warm phase: every pool query fetched whole once, then a
/// fixed number of the workload's own sessions (seeds disjoint from the
/// measured ones). Part of set-up.
std::string Warm(Stack* stack, const WorkloadPlan& plan, uint64_t seed) {
  std::vector<int64_t> ignored;
  for (size_t q = 0; q < plan.fixture.pool.size(); ++q) {
    SessionSpec spec;
    spec.query = static_cast<int>(q);
    spec.steps = {{Op::kFullAnswer, 0}};
    SessionTiming t = RunSession(stack, 0, plan, spec, &ignored);
    if (!t.ok) return "warm-up query " + std::to_string(q) + ": " + t.error;
    if (!t.mismatch.empty()) return "warm-up query " + std::to_string(q) +
                                    ": " + t.mismatch;
  }
  for (int k = 0; k < 32; ++k) {
    SessionTiming t =
        RunSession(stack, 0, plan, plan.Spec(SubSeed(seed, 50, k)), &ignored);
    if (!t.ok) return "warm-up session " + std::to_string(k) + ": " + t.error;
    if (!t.mismatch.empty()) return "warm-up session " + std::to_string(k) +
                                    ": " + t.mismatch;
  }
  return "";
}

/// Counters the program exports, summed over the stack's services.
struct Counters {
  WrapperTally::Snapshot wrappers;
  TransportTally::Snapshot transport;
  int64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0,
          cache_peak_bytes = 0;
  int64_t plan_hits = 0, plan_misses = 0;
  int64_t view_hits = 0, view_misses = 0, view_publishes = 0,
          view_evictions = 0, view_rejects = 0;
  int64_t rejected = 0, expired = 0;
  int64_t prefetch_jobs = 0, prefetch_fills = 0, prefetch_delivered = 0,
          prefetch_failures = 0;
  mix::service::NetStats net;
  mix::fleet::FleetStats fleet;
};

Counters ReadCounters(Stack* stack) {
  Counters c;
  c.wrappers = stack->wrappers.Read();
  c.transport = stack->transport.Read();
  for (MediatorService* s : stack->services) {
    mix::service::ServiceMetricsSnapshot m = s->Metrics();
    c.cache_hits += m.cache_hits;
    c.cache_misses += m.cache_misses;
    c.cache_evictions += m.cache_evictions;
    c.cache_peak_bytes = std::max(c.cache_peak_bytes, m.cache_peak_bytes);
    c.plan_hits += m.plan_cache_hits;
    c.plan_misses += m.plan_cache_misses;
    c.view_hits += m.view_hits;
    c.view_misses += m.view_misses;
    c.view_publishes += m.view_publishes;
    c.view_evictions += m.view_evictions;
    for (const auto& [reason, n] : m.view_rejects) c.view_rejects += n;
    c.rejected += m.requests_rejected;
    c.expired += m.requests_expired;
    c.prefetch_jobs += m.prefetch_jobs;
    c.prefetch_fills += m.prefetch_fills;
    c.prefetch_delivered += m.prefetch_delivered;
    c.prefetch_failures += m.prefetch_failures;
  }
  if (stack->tcp != nullptr) c.net = stack->tcp->stats();
  if (stack->router != nullptr) c.fleet = stack->router->stats();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Runs the measured load: `seconds` of closed loop, or the open-loop
/// schedule of `seconds` at the profile's rate. Session inputs depend only
/// on `seed`, so a traced run's two halves replay the same sessions.
/// `queue_depth_max` (optional) receives the deepest executor queue seen
/// after any session.
LoadResult Measure(Stack* stack, const WorkloadPlan& plan,
                   const Profile& profile, uint64_t seed, double seconds,
                   std::atomic<int64_t>* queue_depth_max) {
  auto session = [&](int thread, uint64_t session_seed,
                     std::vector<int64_t>* cmd_ns) {
    stack->BeforeSession();
    SessionTiming t =
        RunSession(stack, thread, plan, plan.Spec(session_seed), cmd_ns);
    if (queue_depth_max != nullptr) {
      for (MediatorService* s : stack->services) {
        int64_t depth = s->Metrics().queue_depth;
        int64_t seen = queue_depth_max->load();
        while (depth > seen &&
               !queue_depth_max->compare_exchange_weak(seen, depth)) {
        }
      }
    }
    if (!t.mismatch.empty()) {
      t.mismatch = "session seed " + std::to_string(session_seed) + " (query " +
                   std::to_string(plan.Spec(session_seed).query) +
                   "): " + t.mismatch;
    }
    return t;
  };
  stack->StartMeasurement();
  const int64_t injected0 = stack->wrappers.Read().injected_ns;
  LoadResult result;
  if (profile.arrival_rate > 0) {
    std::vector<int64_t> due =
        PoissonArrivals(profile.arrival_rate, seconds, SubSeed(seed, 60));
    result = RunOpenLoop(
        due, profile.clients,
        [&](int thread, int64_t index, std::vector<int64_t>* c) {
          return session(thread, SubSeed(seed, 61, index), c);
        });
  } else {
    result = RunClosedLoop(
        profile.clients, seconds,
        [&](int thread, int64_t k, std::vector<int64_t>* c) {
          return session(thread,
                         SubSeed(seed, 62,
                                 static_cast<uint64_t>(thread) << 32 |
                                     static_cast<uint64_t>(k)),
                         c);
        });
  }
  result.injected_ns = stack->wrappers.Read().injected_ns - injected0;
  return result;
}

/// Median CompileXmas + optimizer time over the pool, in ns.
double CompileNs(const WorkloadPlan& plan) {
  mix::mediator::passes::OptimizerOptions options =
      OptimizerFor(plan.fixture.sources);
  std::vector<double> per_query;
  for (const PoolQuery& q : plan.fixture.pool) {
    std::vector<double> reps;
    for (int i = 0; i < 7; ++i) {
      int64_t t0 = NowNs();
      auto compiled = mix::mediator::CompileXmas(q.text);
      MIX_CHECK(compiled.ok());
      mix::mediator::PlanPtr p = std::move(compiled).ValueOrDie();
      auto report = mix::mediator::passes::OptimizePlan(&p, options);
      MIX_CHECK(report.ok());
      reps.push_back(static_cast<double>(NowNs() - t0));
    }
    per_query.push_back(Median(reps));
  }
  double sum = 0;
  for (double v : per_query) sum += v;
  return per_query.empty() ? 0 : sum / static_cast<double>(per_query.size());
}

std::string Fmt(const char* format, double a, double b = 0, double c = 0,
                double d = 0, double e = 0, double f = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d, e, f);
  return buf;
}

/// The quiet quartile over `windows` of `stat(window)`: the lower quartile
/// of a lower-is-better figure, the upper quartile of a higher-is-better
/// one. Windows in which no session completed are skipped.
template <typename Stat>
double QuietQuartile(const std::vector<WindowSamples>& windows,
                     bool higher_is_better, Stat stat) {
  std::vector<double> values;
  for (const WindowSamples& w : windows) {
    if (w.completed > 0) values.push_back(stat(w));
  }
  return Quantile(values,
                  higher_is_better ? 1 - kQuietQuantile : kQuietQuantile);
}

double P(std::vector<int64_t> samples, double p) {
  return Percentile(&samples, p);
}

/// The run's tail windows: kTailWindowSpan adjacent windows each.
std::vector<WindowSamples> TailWindows(const LoadResult& l) {
  std::vector<WindowSamples> tails(
      (l.windows.size() + kTailWindowSpan - 1) / kTailWindowSpan);
  for (size_t i = 0; i < l.windows.size(); ++i) {
    tails[i / kTailWindowSpan].Add(l.windows[i]);
  }
  return tails;
}

/// Every figure but set-up, the OK share and memory is computed per
/// one-second window and reported as the quiet quartile over the run's
/// windows. On a shared host, outside load (CPU steal, noisy neighbours)
/// comes in bursts of seconds to tens of seconds that slow every thread
/// of the process at once; a median over windows moves as soon as such
/// bursts cover half the run, the quiet quartile only once they cover
/// three quarters of it. A change to the program moves every window, so it
/// moves the quiet quartile too. Work that recurs at a fixed sub-second
/// period (remote_mix_tcp's 20/s source invalidations) lands in every
/// window. The tails are p90s over three-second tail windows, which hold
/// some forty or more sessions beyond their p90 on every workload (the
/// notes give the count). A p99 would have a handful beyond it, and a p99
/// of sub-millisecond operations tracks the host's steal rather than the
/// program; the p99s over the whole run are in the notes and, for the
/// untraced half of a traced run, among the per-layer figures.
void AddEndToEnd(RunReport* report, const LoadResult& l, double setup_s) {
  const double window_s = static_cast<double>(l.window_ns) / 1e9;
  const std::vector<WindowSamples> tails = TailWindows(l);
  auto quantile = [&](const std::vector<int64_t> WindowSamples::*samples,
                      double p) {
    return QuietQuartile(p > 0.5 ? tails : l.windows, false,
                         [&](const WindowSamples& w) {
                           return P(w.*samples, p);
                         });
  };
  report->Add("setup_s", setup_s, "s");
  report->Add("session_p50_ms", quantile(&WindowSamples::session_ns, 0.5) / 1e6,
              "ms");
  report->Add("session_p90_ms", quantile(&WindowSamples::session_ns, 0.9) / 1e6,
              "ms");
  report->Add("open_p50_us", quantile(&WindowSamples::open_ns, 0.5) / 1e3, "us");
  report->Add("open_p90_us", quantile(&WindowSamples::open_ns, 0.9) / 1e3, "us");
  report->Add("cmd_p50_us", quantile(&WindowSamples::cmd_ns, 0.5) / 1e3, "us");
  report->Add("cmd_p90_us", quantile(&WindowSamples::cmd_ns, 0.9) / 1e3, "us");
  report->Add("sessions_per_s",
              QuietQuartile(l.windows, true, [&](const WindowSamples& w) {
                return static_cast<double>(w.completed) / window_s;
              }), "1/s");
  report->Add("cpu_us_per_cmd",
              QuietQuartile(l.windows, false, [](const WindowSamples& w) {
                return Ratio(static_cast<double>(w.cpu_ns) / 1e3,
                             static_cast<double>(w.commands));
              }), "us");
  report->Add("ok_share",
              Ratio(static_cast<double>(l.attempted - l.failed),
                    static_cast<double>(l.attempted)),
              "ratio");
  report->Add("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  const Profile profile = ProfileOf(options.workload);
  // Every workload runs on half the CPUs, kept busy by IdleSpinners. Each
  // command wakes threads several times (client to worker and back, TCP
  // event loops, the open-loop generator, the end of each injected sleep);
  // on a VM, a wake-up on an idle vCPU first waits for the hypervisor, a
  // delay that follows the whole host's load. With idle vCPUs,
  // zipf_fleet_views' session_p50_ms rose by some 65% at 8% host steal
  // and fig3_browse's cmd_p50_us read 34-37 us unpinned against 17-24 us
  // pinned; pinned and kept busy, every figure of the three workloads
  // stayed within 0.17 of its median across ten seeds while steal stayed
  // at a few per cent.
  PinToCpus(std::max(1, Nproc() / 2));
  IdleSpinners spinners;

  // Set up kSetups times and keep the last: setup_s is the median.
  std::unique_ptr<WorkloadPlan> plan;
  std::unique_ptr<Stack> stack;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    plan.reset();
    const int64_t t0 = NowNs();
    plan = std::make_unique<WorkloadPlan>(
        MakePlan(options.workload, options.seed));
    stack = MakeStack(*plan, profile);
    std::string warm = Warm(stack.get(), *plan, options.seed);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!warm.empty()) {
      report.correct = false;
      report.notes.push_back("workload " + options.workload + " seed " +
                             std::to_string(options.seed) + ": " + warm);
      return report;
    }
  }
  const double setup_s = Median(setups);

  auto account = [&](const LoadResult& l, const char* label) {
    report.attempted += l.attempted;
    report.failed += l.failed;
    if (l.mismatches > 0) {
      report.correct = false;
      report.notes.push_back("ORACLE MISMATCH workload " + options.workload +
                             " seed " + std::to_string(options.seed) + " " +
                             l.first_mismatch);
    }
    if (!l.first_error.empty()) {
      report.notes.push_back("first typed error: " + l.first_error);
    }
    report.notes.push_back(
        std::string(label) +
        Fmt(": sessions %.0f (failed %.0f), commands %.0f; samples: "
            "session %.0f, open %.0f, cmd %.0f",
            static_cast<double>(l.attempted), static_cast<double>(l.failed),
            static_cast<double>(l.all.commands),
            static_cast<double>(l.all.session_ns.size()),
            static_cast<double>(l.all.open_ns.size()),
            static_cast<double>(l.all.cmd_ns.size())));
    auto fewest = [&](const std::vector<WindowSamples>& windows) {
      size_t n = l.all.session_ns.size();
      for (const WindowSamples& w : windows) {
        n = std::min(n, w.session_ns.size());
      }
      return static_cast<double>(n);
    };
    const std::vector<WindowSamples> tails = TailWindows(l);
    report.notes.push_back(
        std::string(label) +
        Fmt(": %.0f windows of %.3f s, the smallest with %.0f sessions; "
            "%.0f tail windows, the smallest with %.0f sessions (%.0f beyond "
            "its session p90)",
            static_cast<double>(l.windows.size()),
            static_cast<double>(l.window_ns) / 1e9, fewest(l.windows),
            static_cast<double>(tails.size()), fewest(tails),
            fewest(tails) / 10));
    report.notes.push_back(
        std::string(label) +
        Fmt(": whole-run p90/p99 (not bounded): session %.3f / %.3f ms, "
            "open %.1f / %.1f us, cmd %.1f / %.1f us",
            P(l.all.session_ns, 0.9) / 1e6, P(l.all.session_ns, 0.99) / 1e6,
            P(l.all.open_ns, 0.9) / 1e3, P(l.all.open_ns, 0.99) / 1e3,
            P(l.all.cmd_ns, 0.9) / 1e3, P(l.all.cmd_ns, 0.99) / 1e3));
    report.notes.push_back(
        std::string(label) +
        Fmt(": wall %.3f s, process CPU %.3f s, injected source wait %.3f s "
            "(summed over exchanges), source invalidations so far %.0f",
            static_cast<double>(l.wall_ns) / 1e9,
            static_cast<double>(l.all.cpu_ns) / 1e9,
            static_cast<double>(l.injected_ns) / 1e9,
            static_cast<double>(stack->invalidations())));
  };

  if (!options.trace) {
    LoadResult load = Measure(stack.get(), *plan, profile, options.seed,
                              options.seconds, nullptr);
    account(load, "measured");
    AddEndToEnd(&report, load, setup_s);
    return report;
  }

  // Traced run: an untraced half, a traced half of the same inputs, then
  // the depth ladder.
  const Counters before = ReadCounters(stack.get());
  LoadResult plain = Measure(stack.get(), *plan, profile, options.seed,
                             options.seconds / 2, nullptr);
  account(plain, "untraced half");
  const Counters middle = ReadCounters(stack.get());
  stack->trace.store(true);
  std::atomic<int64_t> queue_depth_max{0};
  LoadResult traced = Measure(stack.get(), *plan, profile, options.seed,
                              options.seconds / 2, &queue_depth_max);
  stack->trace.store(false);
  account(traced, "traced half");
  const Counters after = ReadCounters(stack.get());

  std::vector<SessionSpec> sample;
  for (int i = 0; i < kLadderSessions; ++i) {
    sample.push_back(plan->Spec(SubSeed(options.seed, 70, i)));
  }
  LadderResult ladder =
      RunLadder(plan->fixture, sample, stack->max_in_flight, kLadderPasses);
  if (!ladder.identical) {
    report.correct = false;
    report.notes.push_back("DEPTH LADDER MISMATCH workload " +
                           options.workload + " seed " +
                           std::to_string(options.seed) + " " +
                           ladder.mismatch);
  }

  const double sessions = static_cast<double>(plain.attempted +
                                              traced.attempted);
  const double commands = static_cast<double>(plain.all.commands +
                                              traced.all.commands);
  double session_wall_ns = 0;
  for (int64_t ns : plain.all.session_ns) {
    session_wall_ns += static_cast<double>(ns);
  }
  for (int64_t ns : traced.all.session_ns) {
    session_wall_ns += static_cast<double>(ns);
  }
  const WrapperTally::Snapshot w = after.wrappers - before.wrappers;
  const WrapperTally::Snapshot wt = after.wrappers - middle.wrappers;
  const TransportTally::Snapshot f = after.transport - before.transport;
  const TransportTally::Snapshot ft = after.transport - middle.transport;
  const auto& d = ladder.ns_per_cmd;
  auto delta = [&](int64_t Counters::*field) {
    return static_cast<double>(after.*field - before.*field);
  };

  report.Add("algebra.self_ns_per_cmd", d[0], "ns");
  report.Add("algebra.source_navs_per_cmd", ladder.source_navs_per_cmd,
             "count");
  report.Add("buffer.self_ns_per_cmd", d[1] - d[0], "ns");
  report.Add("buffer.fills_per_session", ladder.fills_per_session, "count");
  report.Add("buffer.readahead_issued",
             static_cast<double>(ladder.readahead_issued), "count");
  report.Add("buffer.readahead_hits",
             static_cast<double>(ladder.readahead_hits), "count");
  report.Add("buffer.readahead_fallbacks",
             static_cast<double>(ladder.readahead_fallbacks), "count");
  report.Add("buffer.readahead_hit_ratio",
             Ratio(static_cast<double>(ladder.readahead_hits),
                   static_cast<double>(ladder.readahead_issued)),
             "ratio");
  report.Add("buffer.source_cache.hit_ratio",
             Ratio(delta(&Counters::cache_hits),
                   delta(&Counters::cache_hits) +
                       delta(&Counters::cache_misses)),
             "ratio");
  report.Add("buffer.source_cache.evictions", delta(&Counters::cache_evictions),
             "count");
  report.Add("buffer.source_cache.peak_bytes",
             static_cast<double>(after.cache_peak_bytes), "bytes");
  report.Add("wrappers.exchanges_per_session",
             Ratio(static_cast<double>(w.exchanges), sessions), "count");
  report.Add("wrappers.bytes_per_exchange",
             Ratio(static_cast<double>(w.bytes),
                   static_cast<double>(w.exchanges)),
             "bytes");
  report.Add("wrappers.cpu_ns_per_exchange",
             Ratio(static_cast<double>(wt.inner_ns),
                   static_cast<double>(wt.timed_exchanges)),
             "ns");
  report.Add("wrappers.injected_wait_share",
             Ratio(static_cast<double>(w.injected_ns), session_wall_ns),
             "ratio");
  report.Add("mediator.compile_ns", CompileNs(*plan), "ns");
  report.Add("mediator.plan_cache.hit_ratio",
             Ratio(delta(&Counters::plan_hits),
                   delta(&Counters::plan_hits) + delta(&Counters::plan_misses)),
             "ratio");
  report.Add("mediator.answer_view_cache.hit_ratio",
             Ratio(delta(&Counters::view_hits),
                   delta(&Counters::view_hits) + delta(&Counters::view_misses)),
             "ratio");
  report.Add("mediator.answer_view_cache.publishes",
             delta(&Counters::view_publishes), "count");
  report.Add("mediator.answer_view_cache.evictions",
             delta(&Counters::view_evictions), "count");
  report.Add("mediator.answer_view_cache.rejects",
             delta(&Counters::view_rejects), "count");
  report.Add("service.wire.frames_per_cmd",
             Ratio(static_cast<double>(f.frames), commands), "count");
  report.Add("service.wire.bytes_per_cmd",
             Ratio(static_cast<double>(f.bytes), commands), "bytes");
  report.Add("service.wire.codec_ns_per_frame",
             Ratio(static_cast<double>(ft.codec_ns),
                   static_cast<double>(ft.codec_frames)),
             "ns");
  report.Add("service.self_ns_per_cmd", d[2] - d[1], "ns");
  report.Add("service.queue_depth_max",
             static_cast<double>(queue_depth_max.load()), "count");
  report.Add("service.rejected", delta(&Counters::rejected), "count");
  report.Add("service.expired", delta(&Counters::expired), "count");
  report.Add("service.prefetcher.jobs", delta(&Counters::prefetch_jobs),
             "count");
  report.Add("service.prefetcher.fills", delta(&Counters::prefetch_fills),
             "count");
  report.Add("service.prefetcher.delivered",
             delta(&Counters::prefetch_delivered), "count");
  report.Add("service.prefetcher.failures",
             delta(&Counters::prefetch_failures), "count");

  // TCP and fleet counters: the workload's own server and router where it
  // has them, else the depth ladder's.
  const mix::service::NetStats net =
      stack->tcp != nullptr ? after.net : ladder.tcp;
  const mix::service::NetStats net0 =
      stack->tcp != nullptr ? before.net : mix::service::NetStats();
  const mix::fleet::FleetStats fleet =
      stack->router != nullptr ? after.fleet : ladder.fleet;
  const mix::fleet::FleetStats fleet0 =
      stack->router != nullptr ? before.fleet : mix::fleet::FleetStats();
  report.Add("net.tcp.self_ns_per_cmd", d[3] - d[2], "ns");
  report.Add("net.tcp.partial_reads_per_frame",
             Ratio(static_cast<double>(net.partial_reads - net0.partial_reads),
                   static_cast<double>(net.frames_in - net0.frames_in)),
             "ratio");
  report.Add("net.tcp.backpressure_stalls",
             static_cast<double>(net.backpressure_stalls -
                                 net0.backpressure_stalls),
             "count");
  report.Add("fleet.self_ns_per_cmd", d[4] - d[3], "ns");
  report.Add("fleet.spills",
             static_cast<double>(fleet.open_spills - fleet0.open_spills),
             "count");
  report.Add("fleet.sheds", static_cast<double>(fleet.sheds - fleet0.sheds),
             "count");
  report.Add("fleet.failovers",
             static_cast<double>(fleet.failovers - fleet0.failovers), "count");

  report.Add("loadgen.late_p99_ms", P(traced.late_ns, 0.99) / 1e6, "ms");
  const double plain_p50 = P(plain.all.session_ns, 0.5);
  report.Add("trace.overhead_share",
             Ratio(P(traced.all.session_ns, 0.5) - plain_p50, plain_p50),
             "ratio");
  for (size_t i = 0; i < LadderResult::kDepths; ++i) {
    const std::string depth = "ladder.depth" + std::to_string(i + 1);
    report.Add(depth + "_ns_per_cmd", d[i], "ns");
    report.Add(depth + "_p50_ns", ladder.p50_ns[i], "ns");
  }
  report.Add("ladder.commands_per_pass",
             static_cast<double>(ladder.commands_per_pass), "count");
  const double inproc_cmd_p50_us = P(plain.all.cmd_ns, 0.5) / 1e3;
  report.Add("e2e.cmd_p50_us", inproc_cmd_p50_us, "us");
  report.Add("e2e.session_p99_ms", P(plain.all.session_ns, 0.99) / 1e6, "ms");
  report.Add("e2e.open_p99_us", P(plain.all.open_ns, 0.99) / 1e3, "us");
  report.Add("e2e.cmd_p99_us", P(plain.all.cmd_ns, 0.99) / 1e3, "us");

  report.notes.push_back(Fmt(
      "depth ladder ns/cmd: d1 %.0f  d2 %.0f  d3 %.0f  d4 %.0f  d5 %.0f",
      d[0], d[1], d[2], d[3], d[4]));
  report.notes.push_back(
      Fmt("self ns/cmd: algebra %.0f  buffer %.0f  service %.0f  tcp %.0f  "
          "fleet %.0f",
          d[0], d[1] - d[0], d[2] - d[1], d[3] - d[2], d[4] - d[3]));
  // The depth at which the workload's own clients reach the mediator.
  const size_t own = options.workload == "fig3_browse"      ? 2
                     : options.workload == "remote_mix_tcp" ? 3
                                                            : 4;
  const auto& p50 = ladder.p50_ns;
  report.notes.push_back(
      Fmt("depth ladder p50 us/cmd: d1 %.2f  d2 %.2f  d3 %.2f  d4 %.2f  "
          "d5 %.2f",
          p50[0] / 1e3, p50[1] / 1e3, p50[2] / 1e3, p50[3] / 1e3,
          p50[4] / 1e3));
  report.notes.push_back(
      Fmt("untraced cmd_p50 %.2f us on the workload's own stack; ladder "
          "depth %.0f p50 %.2f us",
          inproc_cmd_p50_us, static_cast<double>(own + 1), p50[own] / 1e3));
  return report;
}

}  // namespace navbench
