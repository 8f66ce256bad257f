#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/json.h"

namespace lyra::obs {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  LYRA_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

Histogram::Histogram(std::vector<double> upper_bounds,
                     std::vector<std::uint64_t> bucket_counts, double sum)
    : bounds_(std::move(upper_bounds)), counts_(std::move(bucket_counts)), sum_(sum) {
  LYRA_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  LYRA_CHECK_EQ(counts_.size(), bounds_.size() + 1);
  for (const std::uint64_t c : counts_) {
    count_ += c;
  }
  if (count_ > 0) {
    // Bracket min/max by the occupied buckets: tight enough for Quantile's
    // edge cases, and the best a pre-counted histogram can know.
    std::size_t first = 0;
    while (counts_[first] == 0) {
      ++first;
    }
    std::size_t last = counts_.size() - 1;
    while (counts_[last] == 0) {
      --last;
    }
    min_ = first == 0 ? 0.0 : bounds_[first - 1];
    max_ = last < bounds_.size() ? bounds_[last] : bounds_.back();
  }
}

void Histogram::Merge(const Histogram& other) {
  LYRA_CHECK(bounds_ == other.bounds_);
  if (other.count_ == 0) {
    return;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::Subtract(const Histogram& earlier) {
  LYRA_CHECK(bounds_ == earlier.bounds_);
  count_ = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] -= std::min(counts_[i], earlier.counts_[i]);
    count_ += counts_[i];
  }
  sum_ = std::max(0.0, sum_ - earlier.sum_);
  if (count_ > 0) {
    std::size_t first = 0;
    while (counts_[first] == 0) {
      ++first;
    }
    std::size_t last = counts_.size() - 1;
    while (counts_[last] == 0) {
      --last;
    }
    min_ = first == 0 ? std::min(min_, bounds_.empty() ? min_ : bounds_[0])
                      : bounds_[first - 1];
    max_ = last < bounds_.size() ? std::min(max_, bounds_[last])
                                 : max_;
  } else {
    min_ = 0.0;
    max_ = 0.0;
  }
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < rank) {
      continue;
    }
    if (i == counts_.size() - 1) {
      // Overflow bucket: no finite upper edge; the tracked max is the best
      // honest answer (>= the highest finite bound by construction).
      return max_;
    }
    double lower = i == 0 ? std::min(min_, bounds_[0]) : bounds_[i - 1];
    double upper = bounds_[i];
    // Clamp interpolation to the observed range so a single-bucket
    // histogram answers inside [min, max], not at an unoccupied edge.
    lower = std::max(lower, std::min(min_, upper));
    upper = std::min(upper, max_);
    if (upper <= lower) {
      return upper;
    }
    const double within =
        (rank - before) / static_cast<double>(counts_[i]);
    return lower + (upper - lower) * std::min(1.0, std::max(0.0, within));
  }
  return max_;
}

void Histogram::Record(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (upper_bounds.empty()) {
      upper_bounds = DefaultBuckets();
    }
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return slot.get();
}

std::vector<double> MetricsRegistry::DefaultBuckets() {
  std::vector<double> bounds;
  double b = 1.0;
  for (int i = 0; i < 12; ++i) {
    bounds.push_back(b);
    b *= 4.0;
  }
  return bounds;
}

void MetricsValues::Merge(const MetricsValues& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] += value;
  }
  for (const auto& [name, histogram] : other.histograms) {
    const auto [it, inserted] = histograms.emplace(name, histogram);
    if (!inserted) {
      it->second.Merge(histogram);
    }
  }
}

JsonValue MetricsValues::ToJson() const {
  const auto number = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return JsonValue::MakeNumber(std::strtod(buf, nullptr));
  };
  const auto count = [](std::uint64_t v) {
    return JsonValue::MakeNumber(static_cast<double>(v));
  };
  JsonValue counter_json = JsonValue::MakeObject();
  for (const auto& [name, value] : counters) {
    counter_json.Set(name, count(value));
  }
  JsonValue gauge_json = JsonValue::MakeObject();
  for (const auto& [name, value] : gauges) {
    gauge_json.Set(name, number(value));
  }
  JsonValue histogram_json = JsonValue::MakeObject();
  for (const auto& [name, h] : histograms) {
    JsonValue bounds = JsonValue::MakeArray();
    for (const double bound : h.upper_bounds()) {
      bounds.Append(number(bound));
    }
    JsonValue buckets = JsonValue::MakeArray();
    for (const std::uint64_t bucket : h.bucket_counts()) {
      buckets.Append(count(bucket));
    }
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("count", count(h.count()));
    entry.Set("sum", number(h.sum()));
    entry.Set("min", number(h.min()));
    entry.Set("max", number(h.max()));
    entry.Set("bounds", std::move(bounds));
    entry.Set("buckets", std::move(buckets));
    histogram_json.Set(name, std::move(entry));
  }
  JsonValue json = JsonValue::MakeObject();
  json.Set("counters", std::move(counter_json));
  json.Set("gauges", std::move(gauge_json));
  json.Set("histograms", std::move(histogram_json));
  return json;
}

MetricsValues MetricsRegistry::Values() const {
  MetricsValues values;
  for (const auto& [name, c] : counters_) {
    values.counters.emplace_hint(values.counters.end(), name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    values.gauges.emplace_hint(values.gauges.end(), name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    values.histograms.emplace_hint(values.histograms.end(), name, *h);
  }
  return values;
}

}  // namespace lyra::obs
