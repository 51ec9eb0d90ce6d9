// Sample statistics and the result record the benchmark prints.
#ifndef NAVBENCH_STATS_H_
#define NAVBENCH_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace navbench {

/// Nearest-rank percentile (p in [0, 1]) of `samples`, which it sorts.
/// 0 for an empty sample.
double Percentile(std::vector<int64_t>* samples, double p);
double Median(std::vector<double> values);
/// Quantile q in [0, 1] of `values`, interpolating linearly between order
/// statistics. 0 for an empty list.
double Quantile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// The one-line JSON result object.
  std::string ToJson() const;
};

/// Process CPU time (user + system) in ns, leaving out the CPU of any
/// IdleSpinners; and peak resident set in MiB.
int64_t ProcessCpuNs();
double PeakRssMiB();

/// Keeps the CPUs the process may use from going idle while it exists: one
/// thread per CPU, pinned to it, spinning at SCHED_IDLE priority, so that a
/// thread of the process woken on that CPU preempts it at once. On a VM, a
/// thread woken on an idle vCPU first waits for the hypervisor to run that
/// vCPU again, a delay that follows the load of the whole host; a vCPU that
/// is busy has none. ProcessCpuNs() leaves the spinners' CPU out.
class IdleSpinners {
 public:
  IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
  ~IdleSpinners();

  int count() const { return static_cast<int>(threads_.size()); }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace navbench

#endif  // NAVBENCH_STATS_H_
