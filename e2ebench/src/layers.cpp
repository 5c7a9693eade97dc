#include "layers.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>

#include "ajac/mesh/mesh_jacobi.hpp"
#include "ajac/obs/metrics.hpp"
#include "ajac/partition/partition.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/solvers/krylov.hpp"
#include "ajac/sparse/blocked_csr.hpp"
#include "ajac/sparse/sell_csr.hpp"
#include "ajac/util/timer.hpp"

namespace e2e {
namespace {

using ajac::index_t;
using ajac::obs::Counter;

/// Columns of the batch measured on every workload.
constexpr index_t kBatchRhs = 8;
/// Three triad arrays together span 4x the last-level cache.
constexpr double kTriadLlcMultiple = 4.0;

struct Span {
  std::string name;
  std::int64_t solve = 0;  ///< the solve (column) the call belongs to
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span log, written out once at the end of the run.
class SpanLog {
 public:
  template <class F>
  auto record(const char* name, std::int64_t solve, F&& f) {
    const double t0 = clock_.seconds() * 1e6;
    auto result = f();
    spans_.push_back({name, solve, t0, clock_.seconds() * 1e6});
    return result;
  }
  /// Duration of the latest span, seconds.
  [[nodiscard]] double last_s() const {
    return (spans_.back().end_us - spans_.back().start_us) * 1e-6;
  }

  void write(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    out << "{" << header << ", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i > 0 ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"solve\": " << s.solve << ", \"start_us\": " << s.start_us
          << ", \"end_us\": " << s.end_us << "}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  ajac::WallTimer clock_;
  std::vector<Span> spans_;
};

std::uint64_t total(const ajac::obs::MetricsRegistry& reg, Counter c) {
  return reg.snapshot().totals[static_cast<std::size_t>(c)];
}

/// Sums over one round's calls; each round yields one sample per metric.
struct RoundSums {
  double calls = 0, plain_runs = 0;
  double parallel_s = 0, parallel_traced_s = 0;
  double relaxations = 0, relaxations_traced = 0;
  double residual_check_s = 0;
  double iter_spread = 0, sync_sweeps = 0, polish = 0;
  double mesh_setup_s = 0, mesh_parallel_s = 0, mesh_relax_per_row = 0;
  double pcg_iterations = 0, pcg_s = 0;
};

}  // namespace

std::vector<Metric> measure_layers(const Workload& w, double seconds,
                                   std::uint64_t seed, const HostInfo& host,
                                   const std::string& spans_path,
                                   Tally& tally) {
  const double tol = w.tolerance;
  SpanLog log;

  const auto triad_bytes = static_cast<std::size_t>(
      kTriadLlcMultiple * static_cast<double>(std::max(host.l3_bytes, 1L << 24)) /
      3.0);
  const TriadResult tr = triad(triad_bytes, static_cast<int>(kThreads), 5);
  std::cout << "# triad " << tr.gbs << " GB/s, threads " << tr.threads
            << ", 3 arrays of " << tr.array_bytes / (1 << 20)
            << " MiB, LLC " << host.l3_bytes / (1 << 20) << " MiB\n";

  std::vector<Metric> m = {
      {"partition.nnz_balanced_s", "s", {}},
      {"partition.block_nnz_imbalance", "ratio", {}},
      {"sparse.blocked_build_s", "s", {}},
      {"sparse.residual_s", "s", {}},
      {"sparse.sell_build_s", "s", {}},
      {"sparse.spmv_gbs", "GB/s", {}},
      {"host.triad_gbs", "GB/s", {tr.gbs}},
      {"runtime.parallel_s", "s", {}},
      {"runtime.residual_check_share", "fraction", {}},
      {"runtime.relax_mrows_per_s", "Mrows/s", {}},
      {"runtime.bw_fraction", "fraction", {}},
      {"runtime.relax_per_row", "count", {}},
      {"runtime.thread_iter_spread", "ratio", {}},
      {"runtime.sync_sweeps", "count", {}},
      {"runtime.polish_sweeps", "count", {}},
      {"runtime.batch_setup_s", "s", {}},
      {"runtime.batch_useful_lane_share", "fraction", {}},
      {"mesh.setup_s", "s", {}},
      {"mesh.parallel_s", "s", {}},
      {"mesh.relax_per_row", "count", {}},
      {"solvers.pcg_iterations", "count", {}},
      {"solvers.pcg_iter_s", "s", {}},
      {"obs.tracing_overhead", "ratio", {}},
  };
  auto put = [&m](const std::string& name, double v) {
    for (Metric& x : m) {
      if (x.name == name) {
        x.samples.push_back(v);
        return;
      }
    }
    throw std::logic_error("unknown metric " + name);
  };

  // Warm up the cores and the allocator before the first measured round.
  {
    const SamplePtr s = w.next_sample();
    (void)ajac::solve(s->a, s->cols[0].b, s->cols[0].x0,
                      facade_config(tol, false));
  }

  std::int64_t solve_id = 0;
  ajac::WallTimer clock;
  double longest_round = 0.0;
  for (int round = 0;; ++round) {
    if (round > 0 && clock.seconds() + longest_round > seconds) break;
    ajac::WallTimer rt;
    const SamplePtr s = w.next_sample();
    const ajac::CsrMatrix& a = s->a;
    const auto n = static_cast<double>(a.num_rows());
    const auto nnz = static_cast<double>(a.num_nonzeros());
    const Column& c0 = s->cols[0];
    const std::int64_t first = solve_id;

    // Set-up layers, one public call each, as solve_shared runs them.
    const ajac::partition::Partition part =
        log.record("partition::nnz_balanced_partition", first, [&] {
          return ajac::partition::nnz_balanced_partition(a, kThreads);
        });
    put("partition.nnz_balanced_s", log.last_s());
    {
      double max_nnz = 0.0;
      for (index_t t = 0; t < part.num_parts(); ++t) {
        max_nnz = std::max(max_nnz, static_cast<double>(
                                        a.row_ptr()[part.part_end(t)] -
                                        a.row_ptr()[part.part_begin(t)]));
      }
      put("partition.block_nnz_imbalance",
          max_nnz / (nnz / static_cast<double>(part.num_parts())));
    }
    const ajac::BlockedCsr blocked = log.record("BlockedCsr", first, [&] {
      return ajac::BlockedCsr(a, part.block_starts);
    });
    put("sparse.blocked_build_s", log.last_s());
    (void)log.record("SellCsr", first, [&] { return ajac::SellCsr(blocked); });
    put("sparse.sell_build_s", log.last_s());
    ajac::Vector resid(c0.b.size());
    (void)log.record("CsrMatrix::residual", first, [&] {
      a.residual(c0.x0, c0.b, resid);
      return 0;
    });
    put("sparse.residual_s", log.last_s());
    {
      // Single-threaded, as PCG runs it. Computed bytes: values and column
      // indices (8 + 8 per entry), row pointers, x once, y written.
      ajac::Vector y(c0.b.size());
      std::vector<double> gbs;
      for (int rep = 0; rep < 5; ++rep) {
        (void)log.record("CsrMatrix::spmv", first, [&] {
          a.spmv(c0.x_star, y);
          return 0;
        });
        gbs.push_back((16.0 * nnz + 24.0 * n) / log.last_s() / 1e9);
      }
      put("sparse.spmv_gbs", median(gbs));
    }

    // Shared runtime, direct calls with the facade's options.
    RoundSums sums;
    for (const Column& c : s->cols) {
      const std::int64_t id = solve_id++;
      // Untraced, traced, traced, untraced: the order cancels any drift
      // between the first and the second solve of a pair.
      const ajac::runtime::SharedOptions opts = shared_options(a, tol, false);
      auto plain = [&] {
        const auto r = log.record("runtime::solve_shared", id, [&] {
          return ajac::runtime::solve_shared(a, c.b, c.x0, opts);
        });
        tally.add(r.converged && passes(a, c, r.x, tol));
        const auto [min_it, max_it] = std::minmax_element(
            r.iterations_per_thread.begin(), r.iterations_per_thread.end());
        sums.plain_runs += 1;
        sums.parallel_s += r.seconds;
        sums.relaxations += static_cast<double>(r.total_relaxations);
        sums.iter_spread += static_cast<double>(*max_it) /
                            static_cast<double>(std::max<index_t>(*min_it, 1));
        sums.polish += static_cast<double>(r.polish_sweeps);
      };
      auto traced = [&] {
        ajac::obs::MetricsRegistry reg;
        ajac::runtime::SharedOptions traced_opts = opts;
        traced_opts.metrics = &reg;
        const auto r = log.record("runtime::solve_shared(traced)", id, [&] {
          return ajac::runtime::solve_shared(a, c.b, c.x0, traced_opts);
        });
        tally.add(r.converged && passes(a, c, r.x, tol));
        sums.parallel_traced_s += r.seconds;
        sums.relaxations_traced +=
            static_cast<double>(total(reg, Counter::kRelaxations));
        sums.residual_check_s +=
            static_cast<double>(total(reg, Counter::kResidualCheckNs)) * 1e-9;
      };
      plain();
      traced();
      traced();
      plain();

      const ajac::runtime::SharedOptions sync_opts = shared_options(a, tol, true);
      const auto sync = log.record("runtime::solve_shared(sync)", id, [&] {
        return ajac::runtime::solve_shared(a, c.b, c.x0, sync_opts);
      });
      tally.add(sync.converged && passes(a, c, sync.x, tol));

      const auto mesh = log.record("mesh::solve_mesh", id, [&] {
        return ajac::mesh::solve_mesh(a, c.b, c.x0, mesh_options(tol));
      });
      const double mesh_wall = log.last_s();
      tally.add(mesh.converged && passes(a, c, mesh.x, tol));

      ajac::obs::MetricsRegistry pcg_reg;
      ajac::solvers::CgOptions pcg_opts = pcg_options(tol);
      pcg_opts.metrics = &pcg_reg;
      const auto pcg = log.record("solvers::conjugate_gradient", id, [&] {
        return ajac::solvers::conjugate_gradient(a, c.b, c.x0, pcg_opts);
      });
      const double pcg_wall = log.last_s();
      tally.add(pcg.converged && passes(a, c, pcg.x, tol));

      sums.calls += 1;
      sums.sync_sweeps += static_cast<double>(sync.iterations_per_thread[0]);
      sums.mesh_setup_s += mesh_wall - mesh.seconds;
      sums.mesh_parallel_s += mesh.seconds;
      sums.mesh_relax_per_row += static_cast<double>(mesh.total_relaxations) / n;
      sums.pcg_iterations += static_cast<double>(pcg.iterations);
      sums.pcg_s += pcg_wall;
    }
    const double threads = static_cast<double>(kThreads);
    const double share =
        sums.residual_check_s / (threads * sums.parallel_traced_s);
    // Computed bytes per relaxed row: its entries' values and column
    // indices, plus row pointer, b, inv_diag, and the x read and write.
    const double bytes_per_row = 16.0 * nnz / n + 40.0;
    put("runtime.parallel_s", sums.parallel_s / sums.plain_runs);
    put("runtime.residual_check_share", share);
    put("runtime.relax_mrows_per_s",
        sums.relaxations_traced /
            (sums.parallel_traced_s - sums.residual_check_s / threads) / 1e6);
    put("runtime.bw_fraction", sums.relaxations * bytes_per_row /
                                   sums.parallel_s / (tr.gbs * 1e9));
    put("runtime.relax_per_row", sums.relaxations / n / sums.plain_runs);
    put("runtime.thread_iter_spread", sums.iter_spread / sums.plain_runs);
    put("runtime.sync_sweeps", sums.sync_sweeps / sums.calls);
    put("runtime.polish_sweeps", sums.polish / sums.plain_runs);
    put("mesh.setup_s", sums.mesh_setup_s / sums.calls);
    put("mesh.parallel_s", sums.mesh_parallel_s / sums.calls);
    put("mesh.relax_per_row", sums.mesh_relax_per_row / sums.calls);
    put("solvers.pcg_iterations", sums.pcg_iterations / sums.calls);
    put("solvers.pcg_iter_s", sums.pcg_s / sums.pcg_iterations);
    // Both sums cover two solves per column.
    put("obs.tracing_overhead", sums.parallel_traced_s / sums.parallel_s);

    // Batched runtime on kBatchRhs columns of the same matrix.
    {
      const std::vector<Column> cols = batch_columns(*s, kBatchRhs, seed);
      ajac::MultiVector b;
      ajac::MultiVector x0;
      pack(cols, a.num_rows(), b, x0);
      ajac::obs::MetricsRegistry reg;
      ajac::runtime::SharedOptions opts = shared_options(a, tol, false);
      opts.metrics = &reg;
      const std::int64_t id = solve_id++;
      const auto batch = log.record("runtime::solve_shared_batch", id, [&] {
        return ajac::runtime::solve_shared_batch(a, b, x0, opts);
      });
      const double wall = log.last_s();
      bool ok = true;
      for (index_t c = 0; c < kBatchRhs; ++c) {
        ok = ok && batch.converged[static_cast<std::size_t>(c)] &&
             passes(a, cols[static_cast<std::size_t>(c)], batch.x.column(c),
                    tol);
      }
      tally.add(ok);
      put("runtime.batch_setup_s", wall - batch.seconds);
      put("runtime.batch_useful_lane_share",
          static_cast<double>(total(reg, Counter::kLaneRelaxations)) /
              (static_cast<double>(total(reg, Counter::kRelaxations)) *
               static_cast<double>(kBatchRhs)));
    }
    longest_round = std::max(longest_round, rt.seconds());
  }

  if (!spans_path.empty()) {
    log.write(spans_path, "\"host\": " + to_json(host) + ", \"workload\": \"" +
                              w.name + "\"");
    std::cout << "# spans written to " << spans_path << '\n';
  }
  return m;
}

}  // namespace e2e
