// Learned scheduler vs classic schemes on the Table 5 mixed scenario
// (DESIGN.md §12).
//
// Scores a trained policy (`--weights=policy.lyrapol`, or a small inline
// REINFORCE smoke-train when no weights are given) against Lyra, Pollux, AFS,
// and FIFO on the mixed elastic + fungible workload, all schemes under the
// same loaning + reclaiming configuration. Writes an "rl_policy" section into
// BENCH_perf.json (path from LYRA_BENCH_PERF_JSON, =0 disables), preserving
// every other section in the file.
//
// Exits 1 when the learned policy fails to beat FIFO mean JCT — the bench is
// the acceptance gate for the RL subsystem, not just a scoreboard.
//
//   bench_rl_policy [--weights=policy.lyrapol] [--episodes=8] [--batch=4]
//                   [--seed=1] [--scale=0.05] [--days=1]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/common/table.h"
#include "src/rl/policy.h"
#include "src/rl/trainer.h"

namespace {

void MergeReport(const std::string& path, const lyra::JsonValue& section) {
  lyra::JsonValue report = lyra::JsonValue::MakeObject();
  std::ifstream in(path);
  if (in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    lyra::StatusOr<lyra::JsonValue> existing =
        lyra::JsonValue::Parse(buffer.str());
    if (existing.ok() && existing.value().is_object()) {
      for (const auto& [key, value] : existing.value().AsObject()) {
        if (key != "rl_policy") {
          report.Set(key, value);
        }
      }
    }
  }
  report.Set("rl_policy", section);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_rl_policy: cannot write %s\n", path.c_str());
    return;
  }
  out << report.Dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string weights;
  int episodes = 8;
  int batch = 4;
  int seed = 1;
  double scale = 0.05;
  double days = 1.0;

  lyra::FlagSet flags(
      "bench_rl_policy: learned scheduler vs classic schemes (Table 5 mixed)");
  flags.AddString("weights", &weights,
                  "LYRAPOL file to evaluate (default: smoke-train inline)");
  flags.AddInt("episodes", &episodes, "inline smoke-train episode budget");
  flags.AddInt("batch", &batch, "inline smoke-train episodes per update");
  flags.AddInt("seed", &seed, "inline smoke-train seed");
  flags.AddDouble("scale", &scale, "cluster scale (1.0 = paper size)");
  flags.AddDouble("days", &days, "trace length in days");
  const lyra::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.message().c_str(), flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }

  lyra::ExperimentConfig config;
  config.scale = scale;
  config.days = days;
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("RL policy: learned vs classic schemes (mixed scenario)",
                    config);

  // The policy under test: a trained LYRAPOL file, or a small deterministic
  // smoke-train on the very scenario it is evaluated against.
  auto policy = std::make_shared<lyra::rl::PolicyNet>();
  if (!weights.empty()) {
    lyra::StatusOr<lyra::rl::PolicyNet> loaded =
        lyra::rl::PolicyNet::Load(weights);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", weights.c_str(),
                   loaded.status().message().c_str());
      return 1;
    }
    *policy = std::move(loaded.value());
    std::printf("weights  %s hash=%016llx\n", weights.c_str(),
                static_cast<unsigned long long>(policy->WeightsHash()));
  } else {
    lyra::rl::PolicyOptions policy_options;
    policy_options.seed = static_cast<std::uint64_t>(seed);
    *policy = lyra::rl::PolicyNet(policy_options);
    lyra::rl::TrainOptions train;
    train.episodes = episodes;
    train.batch = batch;
    train.seed = static_cast<std::uint64_t>(seed);
    train.env = config;
    train.base.loaning = true;
    train.verbose = true;
    const lyra::StatusOr<lyra::rl::TrainReport> trained =
        lyra::rl::TrainPolicy(train, policy.get());
    if (!trained.ok()) {
      std::fprintf(stderr, "smoke training failed: %s\n",
                   trained.status().message().c_str());
      return 1;
    }
    std::printf("trained  %d episode(s), hash=%016llx\n",
                trained.value().episodes,
                static_cast<unsigned long long>(trained.value().weights_hash));
  }

  // Every scheme under the same loaning + Lyra-reclaiming configuration, so
  // the comparison isolates the queue-ordering + elastic-sizing policy.
  struct Scheme {
    const char* name;
    const char* scheduler;
  };
  const std::vector<Scheme> schemes = {
      {"Learned", "learned"},
      {"Lyra", "lyra"},
      {"Pollux", "pollux"},
      {"AFS", "afs"},
      {"FIFO", "fifo"},
  };
  std::vector<lyra::ExperimentRun> runs;
  for (const Scheme& scheme : schemes) {
    lyra::RunSpec spec;
    spec.scheduler = scheme.scheduler;
    spec.reclaim = "lyra";
    spec.loaning = true;
    if (spec.scheduler == "learned") {
      spec.policy = policy;
    }
    runs.push_back({std::string("rl_policy/") + scheme.name, config, spec});
  }
  const std::vector<lyra::SimulationResult> results = lyra::RunExperiments(runs);

  lyra::TextTable table({"scheme", "queue mean", "JCT mean", "JCT p50",
                         "JCT p95", "train use"});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const lyra::SimulationResult& r = results[i];
    table.AddRow({schemes[i].name, lyra::Secs(r.queuing.mean),
                  lyra::Secs(r.jct.mean), lyra::Secs(r.jct.p50),
                  lyra::Secs(r.jct.p95), lyra::FormatDouble(r.training_usage, 2)});
  }
  table.Print();

  const double learned_jct = results[0].jct.mean;
  const double fifo_jct = results.back().jct.mean;
  const bool beats_fifo = learned_jct < fifo_jct;
  std::printf("\nlearned JCT mean %.0fs vs FIFO %.0fs -> %s\n", learned_jct,
              fifo_jct, beats_fifo ? "PASS" : "FAIL");

  const char* report_env = std::getenv("LYRA_BENCH_PERF_JSON");
  const std::string report_path =
      report_env != nullptr ? report_env : "BENCH_perf.json";
  if (report_path != "0") {
    lyra::JsonValue section = lyra::JsonValue::MakeObject();
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(policy->WeightsHash()));
    section.Set("weights_hash", lyra::JsonValue::MakeString(hash));
    section.Set("beats_fifo", lyra::JsonValue::MakeBool(beats_fifo));
    lyra::JsonValue rows = lyra::JsonValue::MakeArray();
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const lyra::SimulationResult& r = results[i];
      lyra::JsonValue row = lyra::JsonValue::MakeObject();
      row.Set("scheme", lyra::JsonValue::MakeString(schemes[i].name));
      row.Set("jct_mean", lyra::JsonValue::MakeNumber(r.jct.mean));
      row.Set("jct_p50", lyra::JsonValue::MakeNumber(r.jct.p50));
      row.Set("jct_p95", lyra::JsonValue::MakeNumber(r.jct.p95));
      row.Set("queue_mean", lyra::JsonValue::MakeNumber(r.queuing.mean));
      row.Set("training_usage", lyra::JsonValue::MakeNumber(r.training_usage));
      rows.Append(std::move(row));
    }
    section.Set("schemes", std::move(rows));
    MergeReport(report_path, section);
    std::printf("merged rl_policy section into %s\n", report_path.c_str());
  }
  return beats_fifo ? 0 : 1;
}
