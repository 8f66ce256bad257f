// Scheduler tick cost against the pending-queue length (DESIGN.md "Cost of a
// Lyra scheduling round", ROADMAP item 3).
//
// Builds a Lyra engine the way lyra_schedd does at --scale (default 0.05:
// 22 training + 26 inference servers) and floods it with ROADMAP's overload
// recipe: 1-GPU x 3,600 s jobs arriving at 470 per virtual minute, the
// recipe's average (452k jobs pending after about 57,600 virtual seconds).
// For each target queue length it starts a fresh engine and submits `target`
// jobs at t = 0. The first tick that sees them sorts the whole flood; it is
// reported apart, as first_tick_us (the largest over the runs). Then, one
// scheduler tick per virtual minute, --per-minute jobs arrive before each
// tick. The queue grows by about --per-minute a tick, so a run measures
// target / per-minute ticks (at least 1, at most --minutes) and is repeated
// with fresh engines until --minutes ticks are measured: every measured tick
// sees between `target` and about 2 * target pending jobs (or
// target + --minutes * --per-minute).
//
//   bench_pending_flood [--targets=1000,10000,100000,400000]
//                       [--per-minute=470] [--minutes=60] [--scale=0.05]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/sim/inference_cluster.h"
#include "src/sim/simulator.h"
#include "src/svc/registry.h"

namespace {

// Times each Schedule call of the wrapped scheduler that sees a queue.
class TickTimer : public lyra::JobScheduler {
 public:
  explicit TickTimer(lyra::JobScheduler* inner) : inner_(inner) {}
  const char* name() const override { return inner_->name(); }
  void Schedule(lyra::SchedulerContext& ctx) override {
    const auto start = std::chrono::steady_clock::now();
    inner_->Schedule(ctx);
    if (ctx.pending.empty()) {
      return;
    }
    seconds_.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    pending_.push_back(ctx.pending.size());
  }
  const std::vector<double>& seconds() const { return seconds_; }
  const std::vector<std::size_t>& pending() const { return pending_; }

 private:
  lyra::JobScheduler* inner_;
  std::vector<double> seconds_;
  std::vector<std::size_t> pending_;
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1))];
}

lyra::JobSpec FloodJob(lyra::TimeSec at) {
  lyra::JobSpec spec;
  spec.submit_time = at;
  spec.total_work = 3600.0;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::string targets = "1000,10000,100000,400000";
  int per_minute = 470;
  int minutes = 60;
  double scale = 0.05;
  lyra::FlagSet flags(
      "bench_pending_flood: Lyra scheduler tick time against the pending-queue length");
  flags.AddString("targets", &targets, "comma-separated queue lengths to measure at");
  flags.AddInt("per-minute", &per_minute, "jobs arriving per virtual minute");
  flags.AddInt("minutes", &minutes, "ticks measured per target (one per virtual minute)");
  flags.AddDouble("scale", &scale, "cluster scale (1.0 = 443+520 servers)");
  const lyra::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || per_minute < 1 || minutes < 1) {
    std::fprintf(stderr, "%s\n%s", parsed.ok() ? "--per-minute and --minutes must be >= 1"
                                               : parsed.message().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }
  const lyra::StatusOr<lyra::svc::PaperCluster> cluster = lyra::svc::PaperClusterAt(scale);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().message().c_str());
    return 1;
  }

  std::printf("%10s %8s %12s %12s %12s %14s %16s\n", "pending", "ticks", "tick_p50_us",
              "tick_p90_us", "tick_mean_us", "first_tick_us", "pending_range");
  std::size_t begin = 0;
  while (begin < targets.size()) {
    std::size_t end = targets.find(',', begin);
    end = end == std::string::npos ? targets.size() : end;
    const long target = std::stol(targets.substr(begin, end - begin));
    begin = end + 1;
    const int run_minutes =
        static_cast<int>(std::clamp<long>(target / per_minute, 1, minutes));

    std::vector<double> seconds;
    std::vector<std::size_t> pending;
    double first_tick = 0.0;
    for (int measured = 0; measured < minutes; measured += run_minutes) {
      auto lyra_scheduler = lyra::svc::MakeScheduler("lyra", false, false);
      auto reclaim = lyra::svc::MakeReclaim("lyra");
      if (!lyra_scheduler.ok() || !reclaim.ok()) {
        return 1;
      }
      TickTimer timer(lyra_scheduler.value().get());
      lyra::Trace empty;
      empty.duration = (run_minutes + 2) * lyra::kMinute;
      lyra::SimulatorOptions options;
      options.training_servers = cluster.value().training_servers;
      lyra::Simulator sim(options, empty, &timer, reclaim.value().get(),
                          lyra::MakeInferenceCluster(cluster.value().inference_servers,
                                                     empty.duration, 42,
                                                     lyra::svc::MakeUsagePredictor(false)));
      for (long i = 0; i < target; ++i) {
        if (!sim.SubmitJob(FloodJob(0.0)).ok()) {
          return 1;
        }
      }
      // The tick at t = 0 runs before the flood arrives; the next one sorts it.
      sim.StepUntil(lyra::kMinute);
      for (int minute = 1; minute <= run_minutes; ++minute) {
        for (int i = 0; i < per_minute; ++i) {
          if (!sim.SubmitJob(FloodJob(minute * lyra::kMinute)).ok()) {
            return 1;
          }
        }
        sim.StepUntil((minute + 1) * lyra::kMinute);
      }
      if (timer.seconds().empty()) {
        continue;
      }
      first_tick = std::max(first_tick, timer.seconds().front());
      seconds.insert(seconds.end(), timer.seconds().begin() + 1, timer.seconds().end());
      pending.insert(pending.end(), timer.pending().begin() + 1, timer.pending().end());
    }
    if (seconds.empty()) {
      continue;
    }
    double total = 0.0;
    for (const double s : seconds) {
      total += s;
    }
    const auto [low, high] = std::minmax_element(pending.begin(), pending.end());
    std::printf("%10ld %8zu %12.1f %12.1f %12.1f %14.1f %8zu-%zu\n", target, seconds.size(),
                Quantile(seconds, 0.5) * 1e6, Quantile(seconds, 0.9) * 1e6,
                total / static_cast<double>(seconds.size()) * 1e6, first_tick * 1e6, *low,
                *high);
  }
  return 0;
}
