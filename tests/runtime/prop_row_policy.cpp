// Property tests for the pluggable row-selection policies
// (ajac/runtime/row_policy.hpp): the PolicyClock stream contract, uniform
// coverage within concentration bounds, weighted frequencies tracking the
// |r_i| weights, the zero-weight fallback, and the natural-order inertness
// guarantee (policy fields present but policy == kNaturalOrder must leave
// the solver bitwise unchanged). Each property sweeps many seeds derived
// from testing::test_seed so the suite runs a few hundred seeded cases.

#include "ajac/runtime/row_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ajac/fault/fault_plan.hpp"
#include "ajac/gen/fd.hpp"
#include "ajac/gen/problem.hpp"
#include "ajac/runtime/shared_jacobi.hpp"
#include "ajac/sparse/csr.hpp"
#include "test_helpers.hpp"

namespace ajac::runtime {
namespace {

using ajac::testing::test_seed;

TEST(PropRowPolicy, StreamIsCoordinateDeterministic) {
  // Draws are a pure function of (seed, worker, iter, slot): rebuilding the
  // sampler — or drawing the coordinates in any order — changes nothing.
  for (std::uint64_t s = 0; s < 40; ++s) {
    const std::uint64_t seed = test_seed(s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RowSampler a(RowPolicy::kUniformRandom, seed, /*worker=*/2, 10, 42, 4);
    RowSampler b(RowPolicy::kUniformRandom, seed, /*worker=*/2, 10, 42, 4);
    for (index_t iter = 0; iter < 8; ++iter) {
      for (index_t slot = 0; slot < 32; ++slot) {
        EXPECT_EQ(a.next(iter, slot), b.next(iter, slot));
      }
    }
    // Reversed replay on a fresh sampler: still identical (no hidden
    // sequential state).
    RowSampler c(RowPolicy::kUniformRandom, seed, /*worker=*/2, 10, 42, 4);
    for (index_t iter = 7; iter >= 0; --iter) {
      for (index_t slot = 31; slot >= 0; --slot) {
        EXPECT_EQ(c.next(iter, slot), a.next(iter, slot));
      }
    }
  }
}

TEST(PropRowPolicy, DistinctWorkersAndSeedsDecorrelate) {
  for (std::uint64_t s = 0; s < 20; ++s) {
    const std::uint64_t seed = test_seed(100 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RowSampler w0(RowPolicy::kUniformRandom, seed, 0, 0, 64, 4);
    RowSampler w1(RowPolicy::kUniformRandom, seed, 1, 0, 64, 4);
    RowSampler other(RowPolicy::kUniformRandom, seed + 1, 0, 0, 64, 4);
    int same_worker = 0;
    int same_seed = 0;
    const int draws = 256;
    for (index_t k = 0; k < draws; ++k) {
      if (w0.next(k, 0) == w1.next(k, 0)) ++same_worker;
      if (w0.next(k, 0) == other.next(k, 0)) ++same_seed;
    }
    // Independent uniform streams over 64 rows collide ~1/64 of the time;
    // identical streams would collide 256/256.
    EXPECT_LT(same_worker, draws / 8);
    EXPECT_LT(same_seed, draws / 8);
  }
}

TEST(PropRowPolicy, PolicyClockIndependentOfFaultClock) {
  // The PolicyClock salts the seed, so even at identical (stream, a, b, c)
  // coordinates its bits never track the FaultClock built from the same
  // plan seed — sharing one seed between a fault plan and the policy
  // stream is safe.
  for (std::uint64_t s = 0; s < 40; ++s) {
    const std::uint64_t seed = test_seed(200 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const PolicyClock pc(seed);
    const fault::FaultClock fc(seed);
    for (std::uint64_t a = 0; a < 5; ++a) {
      for (std::uint64_t b = 0; b < 5; ++b) {
        EXPECT_NE(pc.bits(PolicyClock::kRowPick, a, b, 0),
                  fc.bits(fault::FaultClock::kStragglerStream, a, b, 0));
      }
    }
  }
}

TEST(PropRowPolicy, UniformCoverageWithinConcentrationBounds) {
  // Every row of the block is visited T +- 6 sqrt(T) times over T
  // iterations of n draws (Chernoff-style concentration for the binomial
  // count with mean T).
  const index_t n = 64;
  const index_t iters = 2000;
  for (std::uint64_t s = 0; s < 10; ++s) {
    const std::uint64_t seed = test_seed(300 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RowSampler sampler(RowPolicy::kUniformRandom, seed, 0, 0, n, 4);
    std::vector<index_t> counts(static_cast<std::size_t>(n), 0);
    for (index_t iter = 0; iter < iters; ++iter) {
      for (index_t slot = 0; slot < n; ++slot) {
        const index_t i = sampler.next(iter, slot);
        ASSERT_GE(i, 0);
        ASSERT_LT(i, n);
        ++counts[static_cast<std::size_t>(i)];
      }
    }
    const double dev = 6.0 * std::sqrt(static_cast<double>(iters));
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(static_cast<double>(counts[static_cast<std::size_t>(i)]),
                  static_cast<double>(iters), dev)
          << "row " << i;
    }
  }
}

/// Expected draw probabilities for a fixed weight snapshot, mirroring the
/// documented transform exactly: clamp raw |w_i| at kWeightCap * mean(|w|),
/// then blend in the kUniformMix exploration floor.
std::vector<double> expected_probabilities(const std::vector<double>& w) {
  const auto n = static_cast<double>(w.size());
  double raw_total = 0.0;
  for (const double wi : w) raw_total += std::abs(wi);
  const double cap = RowSampler::kWeightCap * raw_total / n;
  std::vector<double> clamped(w.size());
  double clamped_total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    clamped[i] = std::min(std::abs(w[i]), cap);
    clamped_total += clamped[i];
  }
  const double mix = RowSampler::kUniformMix;
  std::vector<double> p(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    p[i] = (clamped[i] + mix * clamped_total / n) /
           (clamped_total * (1.0 + mix));
  }
  return p;
}

void expect_weighted_frequencies(const std::vector<double>& w,
                                 std::uint64_t seed, index_t iters) {
  const auto n = static_cast<index_t>(w.size());
  RowSampler sampler(RowPolicy::kResidualWeighted, seed, 0, 0, n, 1);
  std::vector<index_t> counts(w.size(), 0);
  for (index_t iter = 0; iter < iters; ++iter) {
    if (sampler.refresh_due(iter)) {
      sampler.refresh_weights(
          [&](index_t i) { return w[static_cast<std::size_t>(i)]; });
    }
    for (index_t slot = 0; slot < n; ++slot) {
      ++counts[static_cast<std::size_t>(sampler.next(iter, slot))];
    }
  }
  const double draws = static_cast<double>(iters) * static_cast<double>(n);
  const std::vector<double> p = expected_probabilities(w);
  for (index_t i = 0; i < n; ++i) {
    const double freq =
        static_cast<double>(counts[static_cast<std::size_t>(i)]) / draws;
    const double sigma =
        std::sqrt(p[static_cast<std::size_t>(i)] *
                  (1.0 - p[static_cast<std::size_t>(i)]) / draws);
    EXPECT_NEAR(freq, p[static_cast<std::size_t>(i)], 6.0 * sigma + 1e-12)
        << "row " << i;
  }
}

TEST(PropRowPolicy, WeightedFrequenciesTrackWeights) {
  // With fixed weights w_i the empirical draw frequency of row i must
  // approach the documented mixture of the clamped weight and the
  // exploration floor (see expected_probabilities) — the prefix-sum
  // inversion samples the intended distribution. The ramp keeps every
  // weight under kWeightCap * mean, so here clamped == |w_i|.
  const index_t n = 16;
  for (std::uint64_t s = 0; s < 10; ++s) {
    const std::uint64_t seed = test_seed(400 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<double> w(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      // Deterministic skewed weights, including a sign flip: the sampler
      // must weight by |w_i|.
      w[static_cast<std::size_t>(i)] =
          (i % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(i + 1);
    }
    expect_weighted_frequencies(w, seed, /*iters=*/3000);
  }
}

TEST(PropRowPolicy, WeightedClampBoundsSpikeRows) {
  // A single spike carrying ~90% of the raw mass must be clamped to
  // kWeightCap * mean: the spike's draw rate lands on the capped
  // probability, and the remaining mass is redistributed to the flat rows
  // instead of being starved.
  const index_t n = 16;
  for (std::uint64_t s = 0; s < 10; ++s) {
    const std::uint64_t seed = test_seed(450 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<double> w(static_cast<std::size_t>(n), 1.0);
    w[3] = 135.0;  // raw mass 150, mean 9.375, cap 18.75 << 135
    expect_weighted_frequencies(w, seed, /*iters=*/3000);
  }
}

TEST(PropRowPolicy, ZeroWeightsFallBackToUniformStream) {
  // An all-zero weight snapshot (e.g. a solved block) must degrade to the
  // uniform stream, not to a degenerate row: the two samplers draw the
  // same rows coordinate for coordinate because the fallback reuses the
  // kRowPick stream.
  for (std::uint64_t s = 0; s < 20; ++s) {
    const std::uint64_t seed = test_seed(500 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RowSampler weighted(RowPolicy::kResidualWeighted, seed, 3, 5, 37, 1);
    weighted.refresh_weights([](index_t) { return 0.0; });
    RowSampler uniform(RowPolicy::kUniformRandom, seed, 3, 5, 37, 1);
    for (index_t iter = 0; iter < 16; ++iter) {
      for (index_t slot = 0; slot < 32; ++slot) {
        EXPECT_EQ(weighted.next(iter, slot), uniform.next(iter, slot));
      }
    }
  }
}

TEST(PropRowPolicy, WeightedDrawsStayInRange) {
  for (std::uint64_t s = 0; s < 20; ++s) {
    const std::uint64_t seed = test_seed(600 + s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const index_t lo = 7;
    const index_t hi = 29;
    RowSampler sampler(RowPolicy::kResidualWeighted, seed, 1, lo, hi, 1);
    // Extreme skew: all weight on the last row still may not escape the
    // block, and the clamp keeps upper_bound's end() case in range.
    sampler.refresh_weights(
        [&](index_t i) { return i == hi - 1 ? 1e30 : 1e-30; });
    for (index_t iter = 0; iter < 50; ++iter) {
      for (index_t slot = 0; slot < 22; ++slot) {
        const index_t i = sampler.next(iter, slot);
        ASSERT_GE(i, lo);
        ASSERT_LT(i, hi);
      }
    }
  }
}

TEST(PropRowPolicy, NaturalOrderLeavesSolverBitwiseUnchanged) {
  // The policy fields are inert on the natural path: setting them (with
  // the policy left at kNaturalOrder) must not move a single bit of the
  // solution. Synchronous multi-thread runs are deterministic, so the
  // comparison is exact.
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(10, 10),
                                   test_seed(700));
  SharedOptions base;
  base.num_threads = 4;
  base.synchronous = true;
  base.tolerance = 0.0;
  base.max_iterations = 40;
  base.record_history = false;
  const SharedResult plain = solve_shared(p.a, p.b, p.x0, base);

  SharedOptions tagged = base;
  tagged.policy = RowPolicy::kNaturalOrder;  // explicit default
  tagged.policy_seed = 0xfeedULL;            // inert without sampling
  tagged.weight_refresh = 3;
  const SharedResult r = solve_shared(p.a, p.b, p.x0, tagged);
  ASSERT_EQ(plain.x.size(), r.x.size());
  for (std::size_t i = 0; i < plain.x.size(); ++i) {
    ASSERT_EQ(plain.x[i], r.x[i]) << "row " << i;
  }
  EXPECT_EQ(plain.total_relaxations, r.total_relaxations);
}

TEST(PropRowPolicy, SampledConfigChecks) {
  const auto p = gen::make_problem("fd", gen::fd_laplacian_2d(6, 6),
                                   test_seed(800));
  SharedOptions o;
  o.num_threads = 2;
  o.max_iterations = 4;
  o.tolerance = 0.0;
  o.record_history = false;
  o.policy = RowPolicy::kUniformRandom;

  SharedOptions sync = o;
  sync.synchronous = true;
  EXPECT_THROW(solve_shared(p.a, p.b, p.x0, sync), std::logic_error);

  SharedOptions gs = o;
  gs.local_gauss_seidel = true;
  EXPECT_THROW(solve_shared(p.a, p.b, p.x0, gs), std::logic_error);

  SharedOptions bad_refresh = o;
  bad_refresh.policy = RowPolicy::kResidualWeighted;
  bad_refresh.weight_refresh = 0;
  EXPECT_THROW(solve_shared(p.a, p.b, p.x0, bad_refresh), std::logic_error);
}

}  // namespace
}  // namespace ajac::runtime
