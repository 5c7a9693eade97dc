#pragma once
// Traced run: per-layer metrics from spans the benchmark records around
// each public call, plus the runtime's own obs counters.

#include <cstdint>
#include <string>
#include <vector>

#include "host.hpp"
#include "report.hpp"

namespace e2e {

/// Measure every per-layer metric on `w` for about `seconds` (at least one
/// round). Writes the spans as JSON to `spans_path` unless it is empty.
[[nodiscard]] std::vector<Metric> measure_layers(const Workload& w,
                                                 double seconds,
                                                 std::uint64_t seed,
                                                 const HostInfo& host,
                                                 const std::string& spans_path,
                                                 Tally& tally);

}  // namespace e2e
