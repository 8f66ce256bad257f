// lyrabench: the repository benchmark binary (see README.md).
//
//   lyrabench --workload <sim_lyra|sim_afs|svc_ingest|svc_replay>
//             --seed <n> --seconds <s> --trace <0|1> [--pins <file>]
//
// Run it from the checkout root: sockets and snapshots go to .bench_build/.
//
// Prints human-readable lines (machine and build, per-run details, the
// workload-specific metrics, and in a traced run the layer ledger), then one
// line "RESULT {...}" with the metrics as measured. lyrabench/run.py builds
// this binary and turns that line into the benchmark's result line.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace lyrabench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lyrabench --workload <sim_lyra|sim_afs|svc_ingest|svc_replay> "
               "--seed <n> --seconds <s> --trace <0|1> [--pins <file>]\n");
  return 1;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += Format("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

// Compiler, optimization and sanitizer state of this very binary, so every
// result says what it was measured with.
std::string BuildInfo(bool* trustworthy) {
  bool optimized = false;
  bool sanitized = false;
#ifdef __OPTIMIZE__
  optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  *trustworthy = optimized && !sanitized;
  return Format("\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"cxx_flags\": \"%s\", \"optimized\": %s, \"sanitizer\": %s",
                std::thread::hardware_concurrency(), JsonEscape(__VERSION__).c_str(),
                LYRABENCH_BUILD_TYPE, JsonEscape(LYRABENCH_CXX_FLAGS).c_str(),
                optimized ? "true" : "false", sanitized ? "true" : "false");
}

// Host-speed normalization of the end-to-end timings.
//
// On a shared VM the same work runs up to ~1.8x slower for minutes at a time
// (other tenants; the thread stays on-CPU, so CPU time slows too). Every
// run therefore times a fixed calibration kernel (CalibrationProbe, no engine
// code) between units of work. The end-to-end time metrics are scaled by
// kProbeReferenceSeconds / p10(probe), i.e. reported at the host speed where
// the probe takes its reference time: its p10 on a quiet 4-vCPU x86-64 VM
// (2.1 GHz, g++ 12.2, Release). Rates are scaled inversely; memory is not
// scaled. The raw values are printed on the "raw" line, and the traced run
// reports the probe as host.probe_ms.
constexpr double kProbeReferenceSeconds = 0.020;

void NormalizeEndToEnd(Report& report) {
  if (report.probes().empty()) {
    return;
  }
  const double probe = Quantile(report.probes(), 0.1);
  const double factor = kProbeReferenceSeconds / probe;
  std::string raw = "raw (unscaled):";
  for (const Metric& metric : report.metrics()) {
    raw += Format(" %s %.6g", metric.name.c_str(), metric.value);
  }
  std::printf("%s\nhost probe p10 %.5f s over %zu probes: timings scaled by %.4f\n",
              raw.c_str(), probe, report.probes().size(), factor);
  for (const char* name : {"setup_s", "op_p50_ms", "op_p90_ms"}) {
    report.Set(name, report.Get(name) * factor, name[0] == 's' ? "s" : "ms");
  }
  report.Set("jobs_per_s", report.Get("jobs_per_s") / factor, "1/s");
}

void PrintLedger(const Report& report) {
  const auto& ledger = report.ledger();
  if (ledger.empty()) {
    return;
  }
  double sum = 0.0;
  std::size_t owner = 0;
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    sum += ledger[i].seconds;
    if (ledger[i].seconds > ledger[owner].seconds) {
      owner = i;
    }
  }
  std::printf("ledger:\n");
  for (const LedgerEntry& entry : ledger) {
    std::printf("  %-28s %10.4f s  %5.1f%%\n", entry.layer.c_str(), entry.seconds,
                sum > 0 ? 100.0 * entry.seconds / sum : 0.0);
  }
  std::printf("  %-28s %10.4f s\n", "(sum)", sum);
  std::printf("ledger owner: %s (%.1f%% of the ledger)\n", ledger[owner].layer.c_str(),
              sum > 0 ? 100.0 * ledger[owner].seconds / sum : 0.0);
}

}  // namespace
}  // namespace lyrabench

int main(int argc, char** argv) {
  using namespace lyrabench;
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--pins") {
      config.pins_path = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || (argc - 1) % 2 != 0 || !(config.seconds > 0.0)) {
    return Usage();
  }

  bool trustworthy = false;
  const std::string build = BuildInfo(&trustworthy);
  std::printf("machine: {%s, \"seed\": %" PRIu64 ", \"workload\": \"%s\", "
              "\"seconds\": %g, \"trace\": %d}\n",
              build.c_str(), config.seed, config.workload.c_str(), config.seconds,
              config.trace ? 1 : 0);
  if (!trustworthy) {
    std::printf("WARNING: unoptimized or sanitizer build; timings are not "
                "comparable with Release results\n");
  }
  std::fflush(stdout);

  Report report;
  if (config.workload == "sim_lyra" || config.workload == "sim_afs") {
    RunSimWorkload(config, report);
  } else if (config.workload == "svc_ingest") {
    RunIngestWorkload(config, report);
  } else if (config.workload == "svc_replay") {
    RunReplayWorkload(config, report);
  } else {
    std::fprintf(stderr, "lyrabench: unknown workload '%s'\n", config.workload.c_str());
    return Usage();
  }

  if (config.trace) {
    report.Set("host.probe_ms", Quantile(report.probes(), 0.1) * 1e3, "ms");
  }
  for (const std::string& line : report.notes()) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  const double error_share =
      report.attempted() > 0
          ? static_cast<double>(report.failed()) / static_cast<double>(report.attempted())
          : 0.0;
  std::printf("error_share %.6f (%" PRIu64 " failed of %" PRIu64 " attempted)\n",
              error_share, report.failed(), report.attempted());
  if (config.trace) {
    PrintLedger(report);
    if (report.ledger_total() > 0.0) {
      double sum = 0.0;
      for (const LedgerEntry& entry : report.ledger()) {
        sum += entry.seconds;
      }
      const double gap = std::fabs(sum - report.ledger_total()) / report.ledger_total();
      std::printf("ledger sum %.4f s vs %s %.4f s: %.2f%% apart (limit 5%%)\n", sum,
                  report.ledger_total_name().c_str(), report.ledger_total(), 100.0 * gap);
      report.Attempt();
      if (gap > 0.05) {
        report.Fail("layer self times do not add up to " + report.ledger_total_name());
        std::printf("FAILED: layer self times do not add up to %s\n",
                    report.ledger_total_name().c_str());
      }
    }
  }
  if (!config.trace) {
    NormalizeEndToEnd(report);
  }
  for (const Metric& metric : report.metrics()) {
    if (!std::isfinite(metric.value)) {
      report.Fail("metric " + metric.name + " is not finite");
      std::printf("FAILED: metric %s is not finite\n", metric.name.c_str());
    }
    std::printf("metric %-32s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json = Format("{\"correct\": %s, \"attempted\": %" PRIu64
                            ", \"failed\": %" PRIu64 ", \"metrics\": {",
                            report.failed() == 0 ? "true" : "false",
                            std::max<std::uint64_t>(report.attempted(), 1),
                            report.failed());
  for (std::size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& metric = report.metrics()[i];
    json += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                   metric.name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                   metric.unit.c_str());
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return 0;
}
