#pragma once
// Metric samples, their medians, and the one-line JSON result.

#include <ostream>
#include <string>
#include <vector>

#include "calls.hpp"

namespace e2e {

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;  ///< one per round; the value is the median
};

[[nodiscard]] double median(std::vector<double> v);

/// Per metric: median, first and third quartile, sample count.
void print_summary(std::ostream& os, const std::vector<Metric>& metrics);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
[[nodiscard]] std::string result_json(bool correct, const Tally& tally,
                                      const std::vector<Metric>& metrics);

}  // namespace e2e
