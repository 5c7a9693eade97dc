#include "workloads.hpp"

#include <sstream>
#include <stdexcept>

#include "ajac/gen/analogues.hpp"
#include "ajac/util/rng.hpp"

namespace e2e {
namespace {

using ajac::CsrMatrix;
using ajac::index_t;
using ajac::Vector;

/// Independent generator per (seed, purpose, serial).
ajac::Rng stream(std::uint64_t seed, std::uint64_t purpose,
                 std::uint64_t serial) {
  return ajac::Rng(seed ^ (purpose << 56) ^ (serial * 0x9E3779B97F4A7C15ULL));
}

/// The Table-I parabolic_fem analogue (I + 5 L on an m x m grid).
CsrMatrix parabolic(index_t m) {
  const double r = static_cast<double>(m) / 230.0;  // analogue's base grid
  CsrMatrix a = ajac::gen::make_analogue("parabolic_fem", r * r);
  if (a.num_rows() != m * m) {
    throw std::logic_error("parabolic_fem analogue: unexpected size");
  }
  return a;
}

Column column_for(const CsrMatrix& a, ajac::Rng& rng) {
  Column c;
  const auto n = static_cast<std::size_t>(a.num_rows());
  c.x_star.resize(n);
  for (double& v : c.x_star) v = rng.uniform(-1.0, 1.0);
  c.b.resize(n);
  a.spmv(c.x_star, c.b);
  c.x0.assign(n, 0.0);
  return c;
}

std::string describe(const CsrMatrix& a, std::size_t cols,
                     const std::string& extra) {
  const double n = static_cast<double>(a.num_rows());
  const double nnz = static_cast<double>(a.num_nonzeros());
  // CSR (8-byte values and indices) plus b, x0, x, x* and the solver's
  // x, r and inv_diag per column.
  const double mb = (16.0 * nnz + 8.0 * n + 7.0 * 8.0 * n *
                                                static_cast<double>(cols)) /
                    1e6;
  std::ostringstream os;
  os << "{\"rows\": " << a.num_rows() << ", \"nnz\": " << a.num_nonzeros()
     << ", \"columns\": " << cols << ", \"working_set_mb\": " << mb << extra
     << "}";
  return os.str();
}

Workload parabolic_1m(std::uint64_t seed) {
  auto base = std::make_shared<const CsrMatrix>(parabolic(1000));
  // Diagonal positions, to perturb a copy of the base matrix cheaply.
  auto diag = std::make_shared<std::vector<index_t>>();
  for (index_t i = 0; i < base->num_rows(); ++i) {
    for (index_t p = base->row_ptr()[i]; p < base->row_ptr()[i + 1]; ++p) {
      if (base->col_idx()[p] == i) diag->push_back(p);
    }
  }
  Workload w;
  w.name = "parabolic-1m";
  w.ops = {Op::kAsync, Op::kSync, Op::kPcg, Op::kMesh};
  w.describe = describe(*base, 1, ", \"diag_shift\": 1e-3");
  auto serial = std::make_shared<std::uint64_t>(0);
  w.next_sample = [=] {
    // A matrix no earlier solve has seen: the base values with each
    // diagonal raised by a seeded relative amount in [0, 1e-3). That keeps
    // A symmetric and strictly diagonally dominant and leaves the sweep
    // count unchanged, while a cache keyed on the matrix never hits.
    ajac::Rng rng = stream(seed, 1, (*serial)++);
    auto s = std::make_shared<Sample>();
    s->a = *base;
    auto v = s->a.mutable_values();
    for (index_t p : *diag) v[p] *= 1.0 + 1e-3 * rng.uniform();
    s->cols.push_back(column_for(s->a, rng));
    return SamplePtr(std::move(s));
  };
  return w;
}

/// k = 8 independent right-hand sides on one matrix.
Workload ensemble_rhs8(std::uint64_t seed) {
  constexpr int kRhs = 8;
  auto s = std::make_shared<Sample>();
  s->a = parabolic(512);
  ajac::Rng rng = stream(seed, 3, 0);
  for (int c = 0; c < kRhs; ++c) s->cols.push_back(column_for(s->a, rng));
  Workload w;
  w.name = "ensemble-rhs8";
  w.ops = {Op::kBatch, Op::kBatchSync, Op::kAsync, Op::kPcg, Op::kMesh};
  w.default_op = Op::kBatch;
  w.describe = describe(s->a, kRhs, "");
  SamplePtr fixed = std::move(s);
  w.next_sample = [fixed] { return fixed; };
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "parabolic-1m") return parabolic_1m(seed);
  if (name == "ensemble-rhs8") return ensemble_rhs8(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<Column> batch_columns(const Sample& s, index_t k,
                                  std::uint64_t seed) {
  std::vector<Column> cols;
  ajac::Rng rng = stream(seed, 4, 0);
  for (index_t c = 0; c < k; ++c) {
    cols.push_back(static_cast<std::size_t>(c) < s.cols.size()
                       ? s.cols[static_cast<std::size_t>(c)]
                       : column_for(s.a, rng));
  }
  return cols;
}

void pack(const std::vector<Column>& cols, index_t n, ajac::MultiVector& b,
          ajac::MultiVector& x0) {
  const auto k = static_cast<index_t>(cols.size());
  b = ajac::MultiVector(n, k);
  x0 = ajac::MultiVector(n, k);
  for (index_t i = 0; i < n; ++i) {
    for (index_t c = 0; c < k; ++c) {
      b(i, c) = cols[static_cast<std::size_t>(c)].b[static_cast<std::size_t>(i)];
      x0(i, c) = cols[static_cast<std::size_t>(c)].x0[static_cast<std::size_t>(i)];
    }
  }
}

}  // namespace e2e
