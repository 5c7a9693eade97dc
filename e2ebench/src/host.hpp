#pragma once
// Host fingerprint, STREAM-style bandwidth probe and process memory, so
// every report says what machine and build produced its numbers.

#include <cstddef>
#include <string>

namespace e2e {

struct HostInfo {
  unsigned cpus = 0;             ///< online logical CPUs
  long l1d_bytes = 0;            ///< per core, as the OS reports it
  long l2_bytes = 0;
  long l3_bytes = 0;             ///< last-level cache
  std::string build_type;        ///< CMAKE_BUILD_TYPE of this binary
  bool optimized = false;        ///< Release build with NDEBUG
  std::string git_sha;
  std::string loadavg;           ///< /proc/loadavg at start (1, 5, 15 min)
};

[[nodiscard]] HostInfo probe_host(const std::string& git_sha);

/// One-line JSON object of the fingerprint.
[[nodiscard]] std::string to_json(const HostInfo& h);

struct TriadResult {
  double gbs = 0.0;              ///< best of the repetitions, 1e9 bytes/s
  std::size_t array_bytes = 0;   ///< bytes per array (three arrays)
  int threads = 0;
};

/// a[i] = b[i] + s * c[i] over three arrays of `array_bytes` each, with
/// `threads` OpenMP threads and first-touch initialization; reports the
/// best of `reps` passes counting 3 arrays' bytes per pass (STREAM's
/// convention: no write-allocate traffic).
[[nodiscard]] TriadResult triad(std::size_t array_bytes, int threads,
                                int reps);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace e2e
