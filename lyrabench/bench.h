// Shared vocabulary of the repository benchmark (see README.md for the
// workloads, the metric definitions and the layer -> end-to-end map).
//
// Every workload fills one Report: the run's attempted/failed operation
// counts, the metrics it measured (end-to-end ones in an untraced run,
// per-layer ones in a traced run), and the layer ledger that a traced run
// prints. main.cc turns the report into the result line.
#ifndef LYRABENCH_BENCH_H_
#define LYRABENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lyrabench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Pinned outcome hashes ("<workload> <sub-seed> <hash>" lines); empty when
  // the file is absent.
  std::string pins_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One line of a traced run's ledger: a layer's self (or busy) time.
struct LedgerEntry {
  std::string layer;
  double seconds = 0.0;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Records a failed output check (counted in `failed`, printed to stdout).
  void Fail(const std::string& what);
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  // Human-readable line printed before the result (latency sample counts,
  // the workload-specific metrics named in README.md, ...).
  void Note(const std::string& line) { notes_.push_back(line); }

  // A CalibrationProbe() duration taken during the run (see main.cc).
  void AddProbe(double seconds) { probes_.push_back(seconds); }
  const std::vector<double>& probes() const { return probes_; }

  void AddLedger(const std::string& layer, double seconds) {
    ledger_.push_back({layer, seconds});
  }
  // The wall time the ledger's layers should add up to (0: no sum check).
  void SetLedgerTotal(const std::string& what, double seconds) {
    ledger_total_name_ = what;
    ledger_total_ = seconds;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<LedgerEntry>& ledger() const { return ledger_; }
  const std::string& ledger_total_name() const { return ledger_total_name_; }
  double ledger_total() const { return ledger_total_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failures_.size(); }
  double Get(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::vector<LedgerEntry> ledger_;
  std::vector<double> probes_;
  std::string ledger_total_name_;
  double ledger_total_ = 0.0;
  std::uint64_t attempted_ = 0;
};

// Workload entry points.
void RunSimWorkload(const RunConfig& config, Report& report);
void RunIngestWorkload(const RunConfig& config, Report& report);
void RunReplayWorkload(const RunConfig& config, Report& report);

// --- Small shared helpers ---------------------------------------------------

double NowSeconds();  // steady clock
double Median(std::vector<double> values);
// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double PeakRssMb();
// Derives the i-th independent sub-seed of a run seed (SplitMix64).
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t i);
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// One run of a fixed kernel (sort and hash map over 128k keys, then a
// dependent-load walk through 8 MiB; ~20 ms) that shares no code with the
// engine; its duration tracks how fast the host runs this process right now.
double CalibrationProbe();

// Per-thread CPU time (seconds) of thread `tid` of this process; -1 when the
// kernel does not expose it.
double ThreadCpuSeconds(int tid);
int CurrentTid();
// Thread ids of this process, ascending.
std::vector<int> ProcessTids();

}  // namespace lyrabench

#endif  // LYRABENCH_BENCH_H_
