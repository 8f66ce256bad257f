// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// A MetricsRegistry is scoped to one simulation (the Simulator owns one and
// installs it as the thread-current ObsContext for the duration of Run), so
// parallel bench runs never share metric state. Recording is handle-based:
// components look a metric up once (map lookup) and then record through the
// returned pointer, which is a plain member increment — cheap enough to sit
// on hot paths. Export is deterministic (name-sorted) JSON or CSV.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace lyra {
class JsonValue;  // src/common/json.h
}

namespace lyra::obs {

class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket histogram: bucket i counts samples <= upper_bounds[i]; one
// implicit overflow bucket catches the rest. Bounds are set at creation and
// never reallocated, so Record is two comparisons plus an increment for
// typical (small) bucket counts.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  // Builds a histogram from pre-counted buckets (the service telemetry
  // shards count into single-writer atomic buckets and materialize an
  // obs::Histogram only at scrape time). `bucket_counts` must have
  // upper_bounds.size() + 1 entries (last = overflow). Exact min/max are not
  // known from counts alone; they are estimated as the bounds bracketing the
  // first/last occupied bucket, which is all Quantile needs.
  Histogram(std::vector<double> upper_bounds,
            std::vector<std::uint64_t> bucket_counts, double sum);

  void Record(double x);

  // Adds `other`'s samples into this histogram. Bounds must match exactly
  // (shards of one metric share one bucket layout by construction).
  void Merge(const Histogram& other);

  // Subtracts `earlier`'s counts (an older scrape of the same cumulative
  // histogram), leaving the samples recorded in between — the windowed view
  // lyra_top and the loadgen cross-check use. Bounds must match; counts
  // clamp at zero so a racy scrape never underflows.
  void Subtract(const Histogram& earlier);

  // Quantile estimate (q in [0,1]) by linear interpolation inside the
  // bucket containing the q-th sample, Prometheus histogram_quantile-style:
  // the error is bounded by that bucket's width. Falls back to min/max at
  // the extremes and to the highest finite bound inside the overflow bucket.
  double Quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  const std::vector<double>& upper_bounds() const { return bounds_; }
  // Size is upper_bounds().size() + 1; the last entry is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// A copy of a registry's values at one moment, detached from the live
// metrics: what the daemon's read snapshot carries, what a fleet merges and
// what the Prometheus renderer writes. Name-sorted.
struct MetricsValues {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  // Adds `other` in: counters and gauges sum, histograms merge bucketwise,
  // and a metric only `other` has is copied.
  void Merge(const MetricsValues& other);

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {"count",
  // "sum", "min", "max", "bounds", "buckets"}}}, name-sorted, doubles
  // rounded to nine significant digits (the precision the export has
  // always had, so documents compare across versions).
  JsonValue ToJson() const;
};

class MetricsRegistry {
 public:
  // Get-or-create; returned pointers stay valid for the registry's lifetime.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  // A second lookup of an existing histogram ignores `upper_bounds`.
  Histogram* histogram(const std::string& name, std::vector<double> upper_bounds = {});

  // Power-of-4 bounds from 1 up to ~4^12, a decade-ish spread that fits both
  // microsecond timings and queue depths.
  static std::vector<double> DefaultBuckets();

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

  // Every metric's current value, copied.
  MetricsValues Values() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace lyra::obs

#endif  // SRC_OBS_METRICS_H_
