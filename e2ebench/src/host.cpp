#include "host.hpp"

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "ajac/util/timer.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

HostInfo probe_host(const std::string& git_sha) {
  HostInfo h;
  h.cpus = static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  h.l1d_bytes = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  h.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  h.l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  h.build_type = E2E_BUILD_TYPE;
#ifdef NDEBUG
  h.optimized = h.build_type == "Release";
#endif
  h.git_sha = git_sha.empty() ? "unknown" : git_sha;
  std::ifstream in("/proc/loadavg");
  double l1 = 0, l5 = 0, l15 = 0;
  if (in >> l1 >> l5 >> l15) {
    std::ostringstream os;
    os << l1 << ' ' << l5 << ' ' << l15;
    h.loadavg = os.str();
  } else {
    h.loadavg = "unknown";
  }
  return h;
}

std::string to_json(const HostInfo& h) {
  std::ostringstream os;
  os << "{\"cpus\": " << h.cpus << ", \"l1d_bytes\": " << h.l1d_bytes
     << ", \"l2_bytes\": " << h.l2_bytes << ", \"l3_bytes\": " << h.l3_bytes
     << ", \"build_type\": \"" << h.build_type
     << "\", \"optimized\": " << (h.optimized ? "true" : "false")
     << ", \"git_sha\": \"" << h.git_sha << "\", \"loadavg\": \"" << h.loadavg
     << "\"}";
  return os.str();
}

TriadResult triad(std::size_t array_bytes, int threads, int reps) {
  const std::size_t n = array_bytes / sizeof(double);
  // Deliberately uninitialized storage: the parallel loop below does the
  // first touch, so each thread's pages land on its own memory node.
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto sn = static_cast<std::int64_t>(n);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < sn; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double s = 0.5 + r;
    ajac::WallTimer t;
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t i = 0; i < sn; ++i) a[i] = b[i] + s * c[i];
    const double secs = t.seconds();
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) /
                              secs / 1e9);
  }
  // The last pass used s = reps - 0.5; a wrong value means the probe
  // measured something other than the triad.
  if (a[n / 2] != 1.0 + (reps - 0.5) * 2.0) {
    throw std::runtime_error("triad probe produced a wrong result");
  }
  return {best, n * sizeof(double), threads};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2e
