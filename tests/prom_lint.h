// The exposition lint shared by the telemetry tests and the snapshot-restore
// fuzzer: every /metrics document must pass it, whatever the daemon's
// topology and however it was restored.
#ifndef TESTS_PROM_LINT_H_
#define TESTS_PROM_LINT_H_

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "src/svc/prom.h"

namespace lyra::svc {

inline bool NameLintClean(const std::string& name) {
  if (name.empty() || (!std::islower(static_cast<unsigned char>(name[0])) &&
                       name[0] != '_')) {
    return false;
  }
  for (const char c : name) {
    if (!std::islower(static_cast<unsigned char>(c)) &&
        !std::isdigit(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

// Strips the histogram-series suffixes back to the family name.
inline std::string FamilyOf(const std::string& sample_name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (sample_name.size() > s.size() &&
        sample_name.compare(sample_name.size() - s.size(), s.size(), s) == 0) {
      return sample_name.substr(0, sample_name.size() - s.size());
    }
  }
  return sample_name;
}

// The lint every exposition must pass, whatever the daemon's topology:
// lint-clean sample names, every sample in a HELP'd and TYPE'd family,
// counters ending in _total, at most one HELP and one TYPE per family, and
// each family's lines (headers and samples) forming one contiguous group.
inline void ExpectLintClean(const std::string& text, const std::string& topology) {
  SCOPED_TRACE(topology);
  StatusOr<PromScrape> parsed = ParsePrometheus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const PromScrape& scrape = parsed.value();
  ASSERT_FALSE(scrape.samples.empty());
  for (const PromSample& sample : scrape.samples) {
    EXPECT_TRUE(NameLintClean(sample.name)) << sample.name;
    const std::string family = FamilyOf(sample.name);
    EXPECT_TRUE(scrape.types.count(family)) << "untyped family " << family;
    EXPECT_TRUE(scrape.helps.count(family)) << "no HELP for " << family;
  }
  for (const auto& [family, type] : scrape.types) {
    if (type == "counter") {
      EXPECT_TRUE(family.size() > 6 &&
                  family.compare(family.size() - 6, 6, "_total") == 0)
          << "counter " << family << " must end in _total";
    }
  }

  std::map<std::string, int> helps;
  std::map<std::string, int> types;
  std::set<std::string> finished;
  std::string current;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::string family;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      family = line.substr(7, line.find(' ', 7) - 7);
      ++(line[2] == 'H' ? helps : types)[family];
    } else if (!line.empty() && line[0] != '#') {
      family = FamilyOf(line.substr(0, line.find_first_of("{ ")));
    } else {
      continue;
    }
    if (family != current) {
      EXPECT_FALSE(finished.count(family))
          << "family " << family << " is split around " << current;
      finished.insert(current);
      current = family;
    }
  }
  for (const auto& [family, count] : helps) {
    EXPECT_EQ(count, 1) << "HELP lines for " << family;
  }
  for (const auto& [family, count] : types) {
    EXPECT_EQ(count, 1) << "TYPE lines for " << family;
  }
}

}  // namespace lyra::svc

#endif  // TESTS_PROM_LINT_H_
