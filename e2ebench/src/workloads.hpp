#pragma once
// Benchmark workloads: seeded inputs and the public calls timed on them.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ajac/sparse/csr.hpp"
#include "ajac/sparse/multi_vector.hpp"

namespace e2e {

/// Threads (agents) of every parallel solve: one fewer than the 4-core
/// reference host, so the OS and the harness keep a core (a fourth busy
/// thread makes synchronous solves up to 7x slower there).
inline constexpr ajac::index_t kThreads = 3;
/// Jacobi-PCG stops on its 2-norm; this factor on the tolerance makes it
/// pass the shared 1-norm check (observed 1-norm/2-norm ratio 0.5-0.7).
inline constexpr double kPcgTolFactor = 0.5;

/// One right-hand side with its start vector and exact solution:
/// b = A x_star, so every result can be checked against x_star.
struct Column {
  ajac::Vector b;
  ajac::Vector x0;
  ajac::Vector x_star;
};

/// Inputs of one timed operation.
struct Sample {
  ajac::CsrMatrix a;
  std::vector<Column> cols;
};
using SamplePtr = std::shared_ptr<const Sample>;

/// The timed operations. Each goes through one public entry point.
enum class Op {
  kAsync,       ///< ajac::solve, asynchronous (the facade default), one
                ///< call per column: the scalar loop on a batched workload
  kSync,        ///< ajac::solve with synchronous = true
  kPcg,         ///< solvers::conjugate_gradient, Jacobi preconditioner
  kMesh,        ///< mesh::solve_mesh with kThreads agents
  kBatch,       ///< ajac::solve_batch over all columns at once
  kBatchSync,   ///< ajac::solve_batch with synchronous = true
};

struct Workload {
  std::string name;
  double tolerance = 1e-6;
  /// One round of timed operations, in order (rounds rotate the start).
  std::vector<Op> ops;
  /// The workload's default call: its time is solve_s, its time outside
  /// the reported parallel phase is setup_s.
  Op default_op = Op::kAsync;
  /// Inputs for the next timed operation. ensemble-rhs8 repeats its solves
  /// on one system and returns the same sample; parabolic-1m builds a
  /// matrix the process has not solved before on every call.
  std::function<SamplePtr()> next_sample;
  /// Matrix and input sizes for the report.
  std::string describe;
};

/// Build a workload's inputs from `seed`. Throws on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The first k columns of `s`; columns past s.cols are made up from seeded
/// exact solutions on s.a (x0 = 0).
[[nodiscard]] std::vector<Column> batch_columns(const Sample& s,
                                                ajac::index_t k,
                                                std::uint64_t seed);

/// Pack columns into the n x k right-hand side and start batches.
void pack(const std::vector<Column>& cols, ajac::index_t n,
          ajac::MultiVector& b, ajac::MultiVector& x0);

}  // namespace e2e
