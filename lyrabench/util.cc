#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "bench.h"

namespace lyrabench {

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

double Report::Get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  return 0.0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + (i + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) & 0xffffffffull;  // keep seeds short and printable
}

std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

double ThreadCpuSeconds(int tid) {
  // The kernel's per-thread CPU clock id (the encoding glibc's
  // pthread_getcpuclockid uses): thread-scheduler clock of `tid`.
  const clockid_t clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    return -1.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double CalibrationProbe() {
  const double start = NowSeconds();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::vector<std::uint32_t> keys(1 << 17);
  for (std::uint32_t& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = static_cast<std::uint32_t>(x);
  }
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint32_t, std::uint32_t> counts;
  counts.reserve(keys.size() / 4);
  for (std::size_t i = 0; i < keys.size(); i += 4) {
    ++counts[keys[i] >> 8];
  }
  std::uint64_t sum = 0;
  for (std::uint32_t key : keys) {
    const auto it = counts.find(key >> 8);
    sum += it != counts.end() ? it->second : 0;
  }
  // Dependent loads around one random cycle through 8 MiB: memory latency,
  // the other resource neighbours on a shared host take away.
  static std::vector<std::uint32_t> cycle = [] {
    std::vector<std::uint32_t> order(1 << 21);
    for (std::uint32_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::uint64_t y = 0x2545f4914f6cdd1dull;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      y ^= y << 13;
      y ^= y >> 7;
      y ^= y << 17;
      std::swap(order[i], order[y % (i + 1)]);
    }
    std::vector<std::uint32_t> next(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      next[order[i]] = order[(i + 1) % order.size()];
    }
    return next;
  }();
  std::uint32_t at = 0;
  for (int step = 0; step < (1 << 16); ++step) {
    at = cycle[at];
  }
  sum += at;
  const double elapsed = NowSeconds() - start;
  return sum == 0 ? -elapsed : elapsed;  // `sum` is never 0; keeps the work live
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

std::vector<int> ProcessTids() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return tids;
  }
  while (dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) {
      tids.push_back(tid);
    }
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

}  // namespace lyrabench
