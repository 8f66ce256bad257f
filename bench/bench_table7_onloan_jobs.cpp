// Table 7: queuing time and JCT of jobs running on on-loan servers,
// compared with the same trace under the FIFO Baseline (§7.3, loaning only).
#include <cstdio>

#include "bench/harness.h"
#include "src/common/table.h"

int main() {
  lyra::ExperimentConfig config;
  config.scale = 0.5;
  config.days = 6.0;
  config = lyra::WithEnvOverrides(config);
  lyra::PrintBanner("Table 7: jobs that ran on on-loan servers", config);

  lyra::RunSpec baseline;
  baseline.scheduler = "fifo";
  baseline.loaning = false;
  const lyra::SimulationResult base = RunExperiment(config, baseline);

  lyra::RunSpec loaning;
  loaning.scheduler = "lyra-no-elastic";
  loaning.reclaim = "lyra";
  loaning.loaning = true;
  const lyra::SimulationResult with_loans = RunExperiment(config, loaning);

  lyra::TextTable table({"scheme", "queue mean", "queue p50", "queue p95", "JCT mean",
                         "JCT p50", "JCT p95"});
  table.AddRow({"Baseline (all jobs)", lyra::Secs(base.queuing.mean),
                lyra::Secs(base.queuing.p50), lyra::Secs(base.queuing.p95),
                lyra::Secs(base.jct.mean), lyra::Secs(base.jct.p50),
                lyra::Secs(base.jct.p95)});
  table.AddRow({"Lyra (on-loan jobs)", lyra::Secs(with_loans.queuing_on_loan.mean),
                lyra::Secs(with_loans.queuing_on_loan.p50),
                lyra::Secs(with_loans.queuing_on_loan.p95),
                lyra::Secs(with_loans.jct_on_loan.mean),
                lyra::Secs(with_loans.jct_on_loan.p50),
                lyra::Secs(with_loans.jct_on_loan.p95)});
  table.Print();

  std::printf("\n%zu of %zu jobs ran on loaned servers; on-loan usage %.0f%%.\n",
              with_loans.jct_on_loan_samples.size(), with_loans.total_jobs,
              with_loans.onloan_usage * 100.0);
  std::printf(
      "Paper reference (Table 7): median / p95 queuing improve 4.68x / 3.22x over\n"
      "Baseline for jobs that ran on loaned servers; JCT mean 6887 vs 11547.\n");
  return 0;
}
