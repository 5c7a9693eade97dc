// Time-to-tolerance benchmark. One process runs one workload:
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--spans <file>]
//
// --trace 0 times whole public calls (ajac::solve, ajac::solve_batch,
// mesh::solve_mesh, solvers::conjugate_gradient) and prints the end-to-end
// metrics; --trace 1 runs the per-layer measurements (layers.cpp). Every
// result is checked independently (check.cpp). The last stdout line is the
// JSON result; lines before it starting with '#' are the report.

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "ajac/util/timer.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "report.hpp"

namespace {

using e2e::Metric;
using e2e::Op;

/// Untimed calls before the timed rounds (the first two ops of a round,
/// 2.8-4.8 s): the first solves after the host has been idle run up to 5x
/// slow for about a second. A fixed count, not a fixed time, so that every
/// run makes the same calls before peak_rss_mb is read.
constexpr std::size_t kWarmupOps = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Timed rounds of every op, rotating the start so no op always runs first.
/// A round starts only if it is expected to end within `seconds`.
std::vector<Metric> measure_end_to_end(const e2e::Workload& w, double seconds,
                                       e2e::Tally& tally, bool& warmup_ok) {
  e2e::Tally warm;
  for (std::size_t i = 0; i < std::min(kWarmupOps, w.ops.size()); ++i) {
    (void)e2e::run_op(w.ops[i], *w.next_sample(), w.tolerance, warm);
  }
  warmup_ok = warm.failed == 0;

  std::map<Op, std::vector<double>> per_op;
  std::vector<double> setup;
  ajac::WallTimer clock;
  double longest_round = 0.0;
  double peak_rss = 0.0;
  for (std::size_t round = 0;; ++round) {
    if (round > 0 && clock.seconds() + longest_round > seconds) break;
    ajac::WallTimer rt;
    for (std::size_t j = 0; j < w.ops.size(); ++j) {
      const Op op = w.ops[(j + round) % w.ops.size()];
      const e2e::SamplePtr s = w.next_sample();
      const e2e::OpOutcome o = e2e::run_op(op, *s, w.tolerance, tally);
      per_op[op].push_back(o.wall_s);
      if (op == w.default_op) setup.push_back(o.setup_s);
    }
    longest_round = std::max(longest_round, rt.seconds());
    // Read after the first round, so the value does not depend on how
    // many rounds fit: repeated solve_batch calls grow the heap.
    if (round == 0) peak_rss = e2e::peak_rss_mb();
  }

  const bool batched = w.default_op == Op::kBatch;
  return {
      {"solve_s", "s", per_op[w.default_op]},
      {"sync_solve_s", "s", per_op[batched ? Op::kBatchSync : Op::kSync]},
      {"pcg_solve_s", "s", per_op[Op::kPcg]},
      {"mesh_solve_s", "s", per_op[Op::kMesh]},
      // The columns one after another through ajac::solve; on a
      // single-RHS workload that is the default call itself.
      {"scalar_loop_s", "s", per_op[Op::kAsync]},
      {"setup_s", "s", setup},
      {"peak_rss_mb", "MB", {peak_rss}},
  };
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const e2e::HostInfo host = e2e::probe_host(args.git_sha);
    std::cout << "# host " << e2e::to_json(host) << '\n';
    if (!host.optimized) {
      std::cerr << "e2e_bench: build type '" << host.build_type
                << "' is not an optimized Release build; timings would be "
                   "meaningless\n";
      return 3;
    }
    const e2e::Workload w = e2e::make_workload(args.workload, args.seed);
    std::cout << "# workload " << w.name << ' ' << w.describe << " threads "
              << e2e::kThreads << " tolerance " << w.tolerance << " seed "
              << args.seed << '\n';

    e2e::Tally tally;
    bool correct = true;
    std::vector<Metric> metrics;
    if (args.trace) {
      metrics = e2e::measure_layers(w, args.seconds, args.seed, host,
                                    args.spans, tally);
    } else {
      metrics = measure_end_to_end(w, args.seconds, tally, correct);
    }
    correct = correct && tally.failed == 0;
    e2e::print_summary(std::cout, metrics);
    std::cout << e2e::result_json(correct, tally, metrics) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << '\n';
    return 2;
  }
}
