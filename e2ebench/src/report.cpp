#include "report.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

namespace e2e {
namespace {

/// Linear-interpolation quantile of sorted data (0 <= q <= 1).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

void print_summary(std::ostream& os, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::vector<double> v = m.samples;
    std::sort(v.begin(), v.end());
    char line[256];
    std::snprintf(line, sizeof line,
                  "# %-34s %-9s median %-12.6g q1 %-12.6g q3 %-12.6g n %zu\n",
                  m.name.c_str(), m.unit.c_str(), quantile(v, 0.5),
                  quantile(v, 0.25), quantile(v, 0.75), v.size());
    os << line << "#   samples";
    for (double x : m.samples) os << ' ' << x;
    os << '\n';
  }
}

std::string result_json(bool correct, const Tally& tally,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i > 0 ? ", " : "") << '"' << metrics[i].name
       << "\": {\"value\": " << median(metrics[i].samples) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace e2e
