#include "stats.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace navbench {

double Percentile(std::vector<int64_t>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples->size())));
  rank = std::clamp<size_t>(rank, 1, samples->size());
  return static_cast<double>((*samples)[rank - 1]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double at = std::clamp(q, 0.0, 1.0) *
                    static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

std::string RunReport::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU clocks of the running spinners, and the CPU of those that ended.
struct SpinnerCpu {
  std::mutex mu;
  std::vector<clockid_t> live;
  int64_t ended_ns = 0;

  int64_t Total() {
    std::lock_guard<std::mutex> lock(mu);
    int64_t total = ended_ns;
    for (clockid_t c : live) total += ClockNs(c);
    return total;
  }
};

SpinnerCpu& Spinners() {
  static SpinnerCpu* s = new SpinnerCpu();
  return *s;
}

}  // namespace

int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime) - Spinners().Total();
}

IdleSpinners::IdleSpinners() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      clockid_t clock;
      pthread_getcpuclockid(pthread_self(), &clock);
      SpinnerCpu& cpu_of = Spinners();
      {
        std::lock_guard<std::mutex> lock(cpu_of.mu);
        cpu_of.live.push_back(clock);
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  // yields the core to an SMT sibling
#endif
      }
      std::lock_guard<std::mutex> lock(cpu_of.mu);
      cpu_of.ended_ns += ClockNs(CLOCK_THREAD_CPUTIME_ID);
      cpu_of.live.erase(
          std::find(cpu_of.live.begin(), cpu_of.live.end(), clock));
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace navbench
