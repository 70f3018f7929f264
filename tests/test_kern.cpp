// Property tests for the runtime-dispatched SIMD kernel library.
//
// Every kernel is swept over n = 0 … 3·(widest lane count)+1 at
// unaligned offsets, so each SIMD implementation exercises its empty,
// partial-vector, exactly-one-vector, and multi-vector-plus-tail paths
// against the scalar reference. The determinism policy of kern.hpp is
// enforced literally: elementwise kernels and the integer kernels
// (census, sweep draws) must match the scalar backend bit for bit;
// reductions (which reassociate under SIMD) must match to ULP-scale
// tolerance; the fused RK4 step kernels must be bitwise equal to the
// unfused kernel sequence of the SAME backend.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "kern/kern.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace {

using namespace rumor;

constexpr std::size_t kWidestLanes = 8;  // avx512: 8 doubles / vector
constexpr std::size_t kMaxN = 3 * kWidestLanes + 1;
constexpr std::size_t kOffsets[] = {0, 1, 3};  // doubles, off 64B grid

// Backends to compare against scalar: whatever this binary carries AND
// this CPU can run. On a machine without AVX the list is empty and the
// cross-backend assertions vacuously pass (the scalar self-checks and
// the dispatch tests still run).
std::vector<const kern::Ops*> simd_backends() {
  std::vector<const kern::Ops*> out;
  for (kern::Backend b : {kern::Backend::kAvx2, kern::Backend::kAvx512}) {
    if (kern::compiled(b) && kern::cpu_supports(b)) {
      out.push_back(&kern::ops(b));
    }
  }
  return out;
}

// A buffer whose data pointer can be bumped off the allocation's
// natural alignment, so the sweeps cover loads the SIMD kernels must
// not assume aligned.
struct Buf {
  explicit Buf(std::size_t n, std::size_t offset, util::Xoshiro256& rng,
               double lo = 0.05, double hi = 0.95)
      : storage(n + 8) {
    for (auto& x : storage) x = lo + (hi - lo) * rng.uniform();
    ptr = storage.data() + offset;
  }
  std::vector<double> storage;
  double* ptr;
};

void expect_bitwise(const double* got, const double* want, std::size_t n,
                    const char* what, const kern::Ops& ops) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], want[i])
        << what << " diverges from scalar at i=" << i << " n=" << n
        << " backend=" << kern::to_string(ops.backend);
  }
}

void expect_close(double got, double want, const char* what,
                  const kern::Ops& ops, std::size_t n) {
  const double tol = 1e-12 * std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, tol)
      << what << " n=" << n << " backend=" << kern::to_string(ops.backend);
}

TEST(KernSweep, ElementwiseMapsBitIdentical) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  for (const kern::Ops* simd : simd_backends()) {
    util::Xoshiro256 rng(1234);
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      for (std::size_t off : kOffsets) {
        Buf y(n, off, rng), k1(n, off, rng), k2(n, off, rng),
            k3(n, off, rng), k4(n, off, rng);
        std::vector<double> want(n), got(n);

        scalar.lerp(y.ptr, k1.ptr, 0.37, want.data(), n);
        simd->lerp(y.ptr, k1.ptr, 0.37, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "lerp", *simd);

        scalar.axpy_out(y.ptr, k1.ptr, 0.013, want.data(), n);
        simd->axpy_out(y.ptr, k1.ptr, 0.013, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "axpy_out", *simd);

        scalar.combine2(y.ptr, k1.ptr, k2.ptr, 0.01, want.data(), n);
        simd->combine2(y.ptr, k1.ptr, k2.ptr, 0.01, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "combine2", *simd);

        scalar.rk4_combine(y.ptr, k1.ptr, k2.ptr, k3.ptr, k4.ptr, 0.003,
                           want.data(), n);
        simd->rk4_combine(y.ptr, k1.ptr, k2.ptr, k3.ptr, k4.ptr, 0.003,
                          got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "rk4_combine", *simd);

        // The in-place accumulators: run both backends from the same
        // starting accumulator contents.
        Buf acc(n, off, rng);
        want.assign(acc.ptr, acc.ptr + n);
        got.assign(acc.ptr, acc.ptr + n);
        scalar.accumulate(y.ptr, want.data(), n);
        simd->accumulate(y.ptr, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "accumulate", *simd);

        want.assign(acc.ptr, acc.ptr + n);
        got.assign(acc.ptr, acc.ptr + n);
        scalar.accumulate_sq(y.ptr, want.data(), n);
        simd->accumulate_sq(y.ptr, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "accumulate_sq", *simd);
      }
    }
  }
}

TEST(KernSweep, ReductionsUlpClose) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  for (const kern::Ops* simd : simd_backends()) {
    util::Xoshiro256 rng(5678);
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      for (std::size_t off : kOffsets) {
        Buf a(n, off, rng), b(n, off, rng), c(n, off, rng), d(n, off, rng);

        expect_close(simd->dot(a.ptr, b.ptr, n), scalar.dot(a.ptr, b.ptr, n),
                     "dot", *simd, n);
        expect_close(simd->sum(a.ptr, n), scalar.sum(a.ptr, n), "sum", *simd,
                     n);

        // Gather over a small weight table with wrap-around indices.
        Buf table(64, off, rng);
        std::vector<std::uint32_t> idx(n);
        for (std::size_t i = 0; i < n; ++i) {
          idx[i] = static_cast<std::uint32_t>(rng() % 64);
        }
        expect_close(simd->gather_sum(table.ptr, idx.data(), n),
                     scalar.gather_sum(table.ptr, idx.data(), n),
                     "gather_sum", *simd, n);

        // Strictly increasing quadrature grid.
        Buf t(n, off, rng);
        for (std::size_t i = 0; i < n; ++i) {
          t.ptr[i] = 0.1 * static_cast<double>(i) + 0.05 * t.ptr[i];
        }
        expect_close(simd->trapezoid(t.ptr, a.ptr, n),
                     scalar.trapezoid(t.ptr, a.ptr, n), "trapezoid", *simd,
                     n);

        double want4[4], got4[4];
        scalar.knot4(a.ptr, b.ptr, c.ptr, d.ptr, n, want4);
        simd->knot4(a.ptr, b.ptr, c.ptr, d.ptr, n, got4);
        for (int j = 0; j < 4; ++j) {
          expect_close(got4[j], want4[j], "knot4", *simd, n);
        }
      }
    }
  }
}

TEST(KernSweep, RhsKernelsUlpClose) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  for (const kern::Ops* simd : simd_backends()) {
    util::Xoshiro256 rng(9012);
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      for (std::size_t off : kOffsets) {
        Buf s(n, off, rng), i(n, off, rng), lambda(n, off, rng),
            phi(n, off, rng), psi(n, off, rng), phic(n, off, rng),
            phi_over_k(n, off, rng);
        std::vector<double> want_a(n), want_b(n), got_a(n), got_b(n);

        // sir_rhs embeds the Θ reduction, so outputs are ULP-close, not
        // bitwise.
        const double theta_want =
            scalar.sir_rhs(s.ptr, i.ptr, lambda.ptr, phi.ptr, n, 6.0, 0.05,
                           0.1, 0.2, want_a.data(), want_b.data());
        const double theta_got =
            simd->sir_rhs(s.ptr, i.ptr, lambda.ptr, phi.ptr, n, 6.0, 0.05,
                          0.1, 0.2, got_a.data(), got_b.data());
        expect_close(theta_got, theta_want, "sir_rhs theta", *simd, n);
        for (std::size_t j = 0; j < n; ++j) {
          expect_close(got_a[j], want_a[j], "sir_rhs dS", *simd, n);
          expect_close(got_b[j], want_b[j], "sir_rhs dI", *simd, n);
        }

        for (bool diagonal : {false, true}) {
          scalar.costate_rhs(s.ptr, i.ptr, psi.ptr, phic.ptr, lambda.ptr,
                             phi_over_k.ptr, n, -0.1, -0.2, 0.05, 0.1, 0.21,
                             diagonal, want_a.data(), want_b.data());
          simd->costate_rhs(s.ptr, i.ptr, psi.ptr, phic.ptr, lambda.ptr,
                            phi_over_k.ptr, n, -0.1, -0.2, 0.05, 0.1, 0.21,
                            diagonal, got_a.data(), got_b.data());
          if (diagonal) {
            // Diagonal truncation drops the coupling reduction — the
            // kernel is purely elementwise and must match exactly.
            expect_bitwise(got_a.data(), want_a.data(), n,
                           "costate_rhs[diag] dpsi", *simd);
            expect_bitwise(got_b.data(), want_b.data(), n,
                           "costate_rhs[diag] dphi", *simd);
          } else {
            for (std::size_t j = 0; j < n; ++j) {
              expect_close(got_a[j], want_a[j], "costate_rhs dpsi", *simd,
                           n);
              expect_close(got_b[j], want_b[j], "costate_rhs dphi", *simd,
                           n);
            }
          }
        }
      }
    }
  }
}

// The fused whole-RK4-step kernels promise bitwise equality with the
// unfused kernel sequence of the SAME backend (kern.hpp). Compose that
// sequence out of the backend's own sir_rhs/axpy_out/rk4_combine and
// demand exact agreement — this pins the fused kernels' stage order,
// coefficients, and rounding, for every n and alignment.
TEST(KernSweep, FusedSirStepMatchesUnfusedSequence) {
  for (kern::Backend b :
       {kern::Backend::kScalar, kern::Backend::kAvx2,
        kern::Backend::kAvx512}) {
    if (!kern::compiled(b) || !kern::cpu_supports(b)) continue;
    const kern::Ops& ops = kern::ops(b);
    util::Xoshiro256 rng(3456);
    for (std::size_t n = 1; n <= kMaxN; ++n) {
      const std::size_t dim = 2 * n;
      for (std::size_t off : kOffsets) {
        Buf y(dim, off, rng), lambda(n, off, rng), phi(n, off, rng);
        const double e1[3] = {0.11, 0.12, 0.13};
        const double e2[3] = {0.21, 0.22, 0.23};
        const double h = 0.02, mean_k = 6.0, alpha = 0.05;

        std::vector<double> scratch(kern::fused_scratch_doubles(n));
        std::vector<double> fused(dim);
        ops.sir_rk4_step(y.ptr, n, mean_k, alpha, e1, e2, lambda.ptr,
                         phi.ptr, h, fused.data(), scratch.data());

        std::vector<double> k1(dim), k2(dim), k3(dim), k4(dim), tmp(dim),
            want(dim);
        const auto rhs = [&](const double* yy, std::size_t stage,
                             double* k) {
          ops.sir_rhs(yy, yy + n, lambda.ptr, phi.ptr, n, mean_k, alpha,
                      e1[stage], e2[stage], k, k + n);
        };
        rhs(y.ptr, 0, k1.data());
        ops.axpy_out(y.ptr, k1.data(), 0.5 * h, tmp.data(), dim);
        rhs(tmp.data(), 1, k2.data());
        ops.axpy_out(y.ptr, k2.data(), 0.5 * h, tmp.data(), dim);
        rhs(tmp.data(), 1, k3.data());
        ops.axpy_out(y.ptr, k3.data(), h, tmp.data(), dim);
        rhs(tmp.data(), 2, k4.data());
        ops.rk4_combine(y.ptr, k1.data(), k2.data(), k3.data(), k4.data(),
                        h / 6.0, want.data(), dim);
        expect_bitwise(fused.data(), want.data(), dim, "sir_rk4_step", ops);
      }
    }
  }
}

TEST(KernSweep, FusedCostateStepMatchesUnfusedSequence) {
  for (kern::Backend b :
       {kern::Backend::kScalar, kern::Backend::kAvx2,
        kern::Backend::kAvx512}) {
    if (!kern::compiled(b) || !kern::cpu_supports(b)) continue;
    const kern::Ops& ops = kern::ops(b);
    util::Xoshiro256 rng(7890);
    for (std::size_t n = 1; n <= kMaxN; ++n) {
      const std::size_t dim = 2 * n;
      for (std::size_t off : kOffsets) {
        for (bool diagonal : {false, true}) {
          Buf w(dim, off, rng), y0(dim, off, rng), ymid(dim, off, rng),
              y1(dim, off, rng), lambda(n, off, rng),
              phi_over_k(n, off, rng);
          const double theta[3] = {0.21, 0.22, 0.23};
          const double e1[3] = {0.11, 0.12, 0.13};
          const double e2[3] = {0.31, 0.32, 0.33};
          const double c1 = 5.0, c2 = 10.0, h = 0.02;

          std::vector<double> scratch(kern::fused_scratch_doubles(n));
          std::vector<double> fused(dim);
          ops.costate_rk4_step(w.ptr, n, y0.ptr, ymid.ptr, y1.ptr,
                               lambda.ptr, phi_over_k.ptr, theta, e1, e2,
                               c1, c2, h, diagonal, fused.data(),
                               scratch.data());

          std::vector<double> k1(dim), k2(dim), k3(dim), k4(dim), tmp(dim),
              want(dim);
          const auto rhs = [&](const double* ww, const double* yy,
                               std::size_t stage, double* k) {
            ops.costate_rhs(yy, yy + n, ww, ww + n, lambda.ptr,
                            phi_over_k.ptr, n,
                            -2.0 * c1 * e1[stage] * e1[stage],
                            -2.0 * c2 * e2[stage] * e2[stage], e1[stage],
                            e2[stage], theta[stage], diagonal, k, k + n);
          };
          rhs(w.ptr, y0.ptr, 0, k1.data());
          ops.axpy_out(w.ptr, k1.data(), 0.5 * h, tmp.data(), dim);
          rhs(tmp.data(), ymid.ptr, 1, k2.data());
          ops.axpy_out(w.ptr, k2.data(), 0.5 * h, tmp.data(), dim);
          rhs(tmp.data(), ymid.ptr, 1, k3.data());
          ops.axpy_out(w.ptr, k3.data(), h, tmp.data(), dim);
          rhs(tmp.data(), y1.ptr, 2, k4.data());
          ops.rk4_combine(w.ptr, k1.data(), k2.data(), k3.data(), k4.data(),
                          h / 6.0, want.data(), dim);
          expect_bitwise(fused.data(), want.data(), dim, "costate_rk4_step",
                         ops);
        }
      }
    }
  }
}

TEST(KernSweep, Census2ExactInEveryBackend) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  const auto backends = simd_backends();
  util::Xoshiro256 rng(2468);
  // 32 nodes per word; the avx512 path eats several words per vector,
  // so sweep well past three vectors' worth of nodes, crossing every
  // word and vector boundary.
  for (std::size_t nnodes = 0; nnodes <= 3 * 256 + 1; ++nnodes) {
    const std::size_t nwords = (nnodes + 31) / 32;
    std::vector<std::uint64_t> words(nwords + 1);
    std::uint64_t naive[2] = {0, 0};
    for (std::size_t w = 0; w < words.size(); ++w) {
      const std::uint64_t r = rng();
      // Legal 2-bit compartments only: no 11 fields.
      words[w] = r & ~((r & 0x5555555555555555ULL) << 1);
    }
    // Garbage beyond nnodes must be masked off — poison the tail.
    if (nnodes % 32 != 0 && nwords > 0) {
      words[nwords - 1] |= ~0ULL << (2 * (nnodes % 32));
      words[nwords - 1] &=
          ~((words[nwords - 1] & 0x5555555555555555ULL) << 1);
    }
    for (std::size_t node = 0; node < nnodes; ++node) {
      const unsigned field = (words[node / 32] >> (2 * (node % 32))) & 3u;
      if (field == 1) ++naive[0];
      if (field == 2) ++naive[1];
    }
    std::uint64_t got[2];
    scalar.census2(words.data(), nnodes, got);
    ASSERT_EQ(got[0], naive[0]) << "scalar census infected, n=" << nnodes;
    ASSERT_EQ(got[1], naive[1]) << "scalar census recovered, n=" << nnodes;
    for (const kern::Ops* simd : backends) {
      simd->census2(words.data(), nnodes, got);
      ASSERT_EQ(got[0], naive[0])
          << kern::to_string(simd->backend) << " census infected, n="
          << nnodes;
      ASSERT_EQ(got[1], naive[1])
          << kern::to_string(simd->backend) << " census recovered, n="
          << nnodes;
    }
  }
}

// Reference for Ops::sweep_draws built from util::CounterRng itself:
// each S or I node's first draw decides its compartment's trial through
// CounterRng::bernoulli, as the dense agent engine does.
struct SweepCase {
  double p_immunize;
  double p_block;
};

void reference_sweep(const std::vector<std::uint64_t>& words,
                     const std::vector<std::uint32_t>& counts, std::size_t lo,
                     std::size_t hi, std::uint64_t step_key,
                     const SweepCase& c, std::vector<std::uint64_t>& recover,
                     std::vector<std::uint64_t>& exposed) {
  recover.assign((hi - lo + 63) / 64, 0);
  exposed.assign(recover.size(), 0);
  for (std::size_t v = lo; v < hi; ++v) {
    const unsigned field = (words[v / 32] >> (2 * (v % 32))) & 3u;
    util::CounterRng draw(util::hash_mix(step_key, v));
    const std::uint64_t bit = 1ULL << ((v - lo) % 64);
    if (field == 0) {
      if (draw.bernoulli(c.p_immunize)) {
        recover[(v - lo) / 64] |= bit;
      } else if (counts[v] > 0) {
        exposed[(v - lo) / 64] |= bit;
      }
    } else if (field == 1 && draw.bernoulli(c.p_block)) {
      recover[(v - lo) / 64] |= bit;
    }
  }
}

TEST(KernSweep, SweepDrawsMatchCounterRngInEveryBackend) {
  std::vector<const kern::Ops*> backends = {
      &kern::ops(kern::Backend::kScalar)};
  for (const kern::Ops* simd : simd_backends()) backends.push_back(simd);
  // Degenerate thresholds (0 and 2^53), the agent engine's usual
  // per-step probabilities, and mid-range ones where both outcomes are
  // common.
  const SweepCase cases[] = {{0.0, 0.0},   {1.0, 1.0},   {0.0, 1.0},
                             {0.002, 0.005}, {0.3, 0.7}, {0.97, 1e-9}};
  util::Xoshiro256 rng(8642);
  constexpr std::size_t kSentinels = 2;
  constexpr std::uint64_t kPoison = 0xDEADBEEFCAFEF00DULL;
  // Sweeps start on a 64-node boundary (the kernel's contract) and run
  // every length through three full mask words plus a partial fourth,
  // then a whole agent-engine chunk and a ragged one.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 3 * 64 + 9; ++len) lengths.push_back(len);
  lengths.push_back(2048);
  lengths.push_back(2043);
  for (const std::size_t lo : {std::size_t{0}, std::size_t{64},
                               std::size_t{4096}}) {
    for (const std::size_t len : lengths) {
      const std::size_t hi = lo + len;
      // Exact-size inputs, so an overread past `hi` is a heap overflow.
      std::vector<std::uint64_t> words((hi + 31) / 32);
      for (std::size_t w = 0; w < words.size(); ++w) {
        const std::uint64_t r = rng();
        words[w] = r & ~((r & 0x5555555555555555ULL) << 1);
        // Every fourth word all-R: no node in it may set a bit.
        if (w % 4 == 3) words[w] = 0xAAAAAAAAAAAAAAAAULL;
      }
      std::vector<std::uint32_t> counts(hi);
      for (auto& count : counts) {
        count = rng.bernoulli(0.5) ? 0u : static_cast<std::uint32_t>(rng());
      }
      const std::uint64_t step_key = rng();
      for (const SweepCase& c : cases) {
        std::vector<std::uint64_t> want_recover, want_exposed;
        reference_sweep(words, counts, lo, hi, step_key, c, want_recover,
                        want_exposed);
        const std::size_t nwords = want_recover.size();
        for (const kern::Ops* ops : backends) {
          std::vector<std::uint64_t> recover(nwords + kSentinels, kPoison);
          std::vector<std::uint64_t> exposed(nwords + kSentinels, kPoison);
          ops->sweep_draws(words.data(), counts.data(), lo, hi, step_key,
                           util::bernoulli_threshold(c.p_immunize),
                           util::bernoulli_threshold(c.p_block),
                           recover.data(), exposed.data());
          for (std::size_t w = 0; w < nwords + kSentinels; ++w) {
            const std::uint64_t want_r =
                w < nwords ? want_recover[w] : kPoison;
            const std::uint64_t want_e =
                w < nwords ? want_exposed[w] : kPoison;
            ASSERT_EQ(recover[w], want_r)
                << kern::to_string(ops->backend) << " recover word " << w
                << " lo=" << lo << " len=" << len
                << " p_immunize=" << c.p_immunize;
            ASSERT_EQ(exposed[w], want_e)
                << kern::to_string(ops->backend) << " exposed word " << w
                << " lo=" << lo << " len=" << len
                << " p_immunize=" << c.p_immunize;
          }
        }
      }
    }
  }
}

TEST(KernDispatch, ParseBackendRoundTrips) {
  EXPECT_EQ(kern::parse_backend("scalar"), kern::Backend::kScalar);
  EXPECT_EQ(kern::parse_backend("avx2"), kern::Backend::kAvx2);
  EXPECT_EQ(kern::parse_backend("avx512"), kern::Backend::kAvx512);
  EXPECT_THROW(kern::parse_backend("neon"), util::InvalidArgument);
  EXPECT_THROW(kern::parse_backend(""), util::InvalidArgument);
  EXPECT_THROW(kern::parse_backend("AVX2"), util::InvalidArgument);
}

TEST(KernDispatch, ResolveHonorsOverrideAndFallsBack) {
  // No override: best compiled+supported backend, never a crash.
  const kern::Backend auto_pick = kern::resolve_backend(nullptr);
  EXPECT_TRUE(kern::compiled(auto_pick));
  EXPECT_TRUE(kern::cpu_supports(auto_pick));
  EXPECT_EQ(kern::resolve_backend(""), auto_pick);

  // Scalar is always compiled and supported, so forcing it must work.
  EXPECT_EQ(kern::resolve_backend("scalar"), kern::Backend::kScalar);

  // Any usable backend must be honored verbatim; an unusable one must
  // throw rather than silently fall back.
  for (kern::Backend b : {kern::Backend::kAvx2, kern::Backend::kAvx512}) {
    const char* token = kern::to_string(b);
    if (kern::compiled(b) && kern::cpu_supports(b)) {
      EXPECT_EQ(kern::resolve_backend(token), b);
    } else {
      EXPECT_THROW(kern::resolve_backend(token), util::InvalidArgument);
    }
  }
  EXPECT_THROW(kern::resolve_backend("sparc"), util::InvalidArgument);
}

TEST(KernDispatch, PublishedTablesAreComplete) {
  for (kern::Backend b :
       {kern::Backend::kScalar, kern::Backend::kAvx2,
        kern::Backend::kAvx512}) {
    if (!kern::compiled(b)) continue;
    const kern::Ops& ops = kern::ops(b);
    EXPECT_EQ(ops.backend, b);
    EXPECT_NE(ops.dot, nullptr);
    EXPECT_NE(ops.sum, nullptr);
    EXPECT_NE(ops.gather_sum, nullptr);
    EXPECT_NE(ops.trapezoid, nullptr);
    EXPECT_NE(ops.knot4, nullptr);
    EXPECT_NE(ops.sir_rhs, nullptr);
    EXPECT_NE(ops.costate_rhs, nullptr);
    EXPECT_NE(ops.sir_rk4_step, nullptr);
    EXPECT_NE(ops.costate_rk4_step, nullptr);
    EXPECT_NE(ops.lerp, nullptr);
    EXPECT_NE(ops.axpy_out, nullptr);
    EXPECT_NE(ops.combine2, nullptr);
    EXPECT_NE(ops.rk4_combine, nullptr);
    EXPECT_NE(ops.accumulate, nullptr);
    EXPECT_NE(ops.accumulate_sq, nullptr);
    EXPECT_NE(ops.census2, nullptr);
    EXPECT_NE(ops.sweep_draws, nullptr);
  }
}

// ---- batched lane-per-problem kernels ------------------------------
//
// Two properties, checked literally from the determinism policy:
// (a) every batch_* kernel is bit-identical across ALL backends (SIMD
//     vectorizes across lanes; per lane the reduction order is the
//     scalar left-to-right order, so there is nothing to reassociate);
// (b) each lane of a batched call, deinterleaved, is bit-identical to
//     the SCALAR backend's sequential one-problem kernel on that
//     lane's data — the property the batched solver's "lane l equals
//     the sequential solve" guarantee rests on.

// Batch widths that run every ragged tail of both SIMD widths — AVX2
// remainders 1–3 and AVX-512 remainders 1–7 — alone and behind one or
// two full vectors, plus the exact multiples 8 and 16.
constexpr std::size_t kBatchLanes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9,
                                       12, 15, 16, 17};

// Deterministic interleaved problem set: every per-group array is
// n×lanes SoA (a[j*lanes+l]), per-lane arrays length lanes, stage
// arrays 3×lanes stage-major.
struct BatchData {
  BatchData(std::size_t n, std::size_t lanes, util::Xoshiro256& rng)
      : s(n * lanes),
        i(n * lanes),
        psi(n * lanes),
        phic(n * lanes),
        lambda(n * lanes),
        phi(n * lanes),
        phi_over_k(n * lanes),
        t(n),
        alpha(lanes),
        e1(lanes),
        e2(lanes),
        c1(lanes),
        c2(lanes),
        c1e1(lanes),
        c2e2(lanes),
        theta(lanes),
        e1s(3 * lanes),
        e2s(3 * lanes),
        thetas(3 * lanes) {
    const auto fill = [&](std::vector<double>& v, double lo, double hi) {
      for (auto& x : v) x = lo + (hi - lo) * rng.uniform();
    };
    fill(s, 0.05, 0.95);
    fill(i, 0.01, 0.5);
    fill(psi, -1.0, 1.0);
    fill(phic, -1.0, 1.0);
    fill(lambda, 0.1, 2.0);
    fill(phi, 0.2, 1.0);
    fill(phi_over_k, 0.01, 0.2);
    for (std::size_t j = 0; j < n; ++j) t[j] = 0.3 * static_cast<double>(j);
    fill(alpha, 0.01, 0.1);
    fill(e1, 0.0, 0.7);
    fill(e2, 0.0, 0.7);
    fill(c1, 1.0, 8.0);
    fill(c2, 1.0, 12.0);
    fill(theta, 0.05, 0.6);
    fill(e1s, 0.0, 0.7);
    fill(e2s, 0.0, 0.7);
    fill(thetas, 0.05, 0.6);
    for (std::size_t l = 0; l < lanes; ++l) {
      c1e1[l] = -2.0 * c1[l] * e1[l] * e1[l];
      c2e2[l] = -2.0 * c2[l] * e2[l] * e2[l];
    }
  }
  std::vector<double> s, i, psi, phic, lambda, phi, phi_over_k, t;
  std::vector<double> alpha, e1, e2, c1, c2, c1e1, c2e2, theta;
  std::vector<double> e1s, e2s, thetas;  // stage-major 3×lanes
};

// Every batched output (and the fused steps' scratch) is allocated
// kGuard slots past its extent, filled with kSentinel, so a test can
// check that no kernel writes past the end.
constexpr std::size_t kGuard = 2 * kWidestLanes;
constexpr double kSentinel = -1234.5;

std::vector<double> guarded(std::size_t size) {
  return std::vector<double>(size + kGuard, kSentinel);
}

// Run every batched kernel once under `ops` and collect the outputs.
struct BatchOut {
  BatchOut(const kern::Ops& ops, const BatchData& d, std::size_t n,
           std::size_t lanes, bool diagonal)
      : dot(guarded(lanes)),
        trap(guarded(lanes)),
        knot4(guarded(4 * lanes)),
        ds(guarded(n * lanes)),
        di(guarded(n * lanes)),
        th(guarded(lanes)),
        dpsi(guarded(n * lanes)),
        dphi(guarded(n * lanes)),
        y_next(guarded(2 * n * lanes)),
        w_next(guarded(2 * n * lanes)),
        scratch(guarded(kern::batch_scratch_doubles(n, lanes))) {
    ops.batch_dot(d.s.data(), d.i.data(), n, lanes, dot.data());
    ops.batch_trapezoid(d.t.data(), d.s.data(), n, lanes, trap.data());
    ops.batch_knot4(d.s.data(), d.i.data(), d.psi.data(), d.phic.data(), n,
                    lanes, knot4.data());
    ops.batch_sir_rhs(d.s.data(), d.i.data(), d.lambda.data(), d.phi.data(),
                      n, lanes, 6.5, d.alpha.data(), d.e1.data(), d.e2.data(),
                      ds.data(), di.data(), th.data());
    ops.batch_costate_rhs(d.s.data(), d.i.data(), d.psi.data(),
                          d.phic.data(), d.lambda.data(), d.phi_over_k.data(),
                          n, lanes, d.c1e1.data(), d.c2e2.data(), d.e1.data(),
                          d.e2.data(), d.theta.data(), diagonal, dpsi.data(),
                          dphi.data());
    // [S | I] lane-interleaved halves for the fused steps.
    std::vector<double> y(2 * n * lanes), w(2 * n * lanes);
    std::copy(d.s.begin(), d.s.end(), y.begin());
    std::copy(d.i.begin(), d.i.end(), y.begin() + n * lanes);
    std::copy(d.psi.begin(), d.psi.end(), w.begin());
    std::copy(d.phic.begin(), d.phic.end(), w.begin() + n * lanes);
    ops.batch_sir_rk4_step(y.data(), n, lanes, 6.5, d.alpha.data(),
                           d.e1s.data(), d.e2s.data(), d.lambda.data(),
                           d.phi.data(), 0.05, y_next.data(), scratch.data());
    // Forward states at the three stage times: reuse y for all three
    // (the kernel treats them as independent inputs).
    ops.batch_costate_rk4_step(w.data(), n, lanes, y.data(), y.data(),
                               y.data(), d.lambda.data(), d.phi_over_k.data(),
                               d.thetas.data(), d.e1s.data(), d.e2s.data(),
                               d.c1.data(), d.c2.data(), 0.05, diagonal,
                               w_next.data(), scratch.data());
  }
  std::vector<double> dot, trap, knot4, ds, di, th, dpsi, dphi, y_next,
      w_next, scratch;
};

TEST(KernBatch, CrossBackendBitIdentical) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  for (const kern::Ops* simd : simd_backends()) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{10}, std::size_t{17}}) {
      for (const std::size_t lanes : kBatchLanes) {
        for (bool diagonal : {false, true}) {
          util::Xoshiro256 rng(n * 131 + lanes * 7 + (diagonal ? 1 : 0));
          const BatchData d(n, lanes, rng);
          const BatchOut want(scalar, d, n, lanes, diagonal);
          const BatchOut got(*simd, d, n, lanes, diagonal);
          const auto check = [&](const std::vector<double>& g,
                                 const std::vector<double>& w,
                                 const char* what) {
            ASSERT_EQ(g.size(), w.size());
            for (std::size_t x = 0; x < g.size(); ++x) {
              ASSERT_EQ(g[x], w[x])
                  << what << " diverges from scalar at flat index " << x
                  << " n=" << n << " lanes=" << lanes
                  << " diagonal=" << diagonal
                  << " backend=" << kern::to_string(simd->backend);
            }
          };
          check(got.dot, want.dot, "batch_dot");
          check(got.trap, want.trap, "batch_trapezoid");
          check(got.knot4, want.knot4, "batch_knot4");
          check(got.ds, want.ds, "batch_sir_rhs.ds");
          check(got.di, want.di, "batch_sir_rhs.di");
          check(got.th, want.th, "batch_sir_rhs.theta");
          check(got.dpsi, want.dpsi, "batch_costate_rhs.dpsi");
          check(got.dphi, want.dphi, "batch_costate_rhs.dphi");
          check(got.y_next, want.y_next, "batch_sir_rk4_step");
          check(got.w_next, want.w_next, "batch_costate_rk4_step");
        }
      }
    }
  }
}

TEST(KernBatch, LaneMatchesSequentialScalarKernels) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  std::vector<const kern::Ops*> backends = {&scalar};
  for (const kern::Ops* simd : simd_backends()) backends.push_back(simd);
  for (const kern::Ops* ops : backends) {
    for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{10},
                          std::size_t{23}}) {
      for (const std::size_t lanes : kBatchLanes) {
        for (bool diagonal : {false, true}) {
          util::Xoshiro256 rng(n * 977 + lanes * 13 + (diagonal ? 1 : 0));
          const BatchData d(n, lanes, rng);
          const BatchOut got(*ops, d, n, lanes, diagonal);

          // Deinterleave one lane of an n×lanes array.
          const auto lane = [&](const std::vector<double>& v, std::size_t l) {
            std::vector<double> out(n);
            for (std::size_t j = 0; j < n; ++j) out[j] = v[j * lanes + l];
            return out;
          };
          for (std::size_t l = 0; l < lanes; ++l) {
            const auto s = lane(d.s, l), i = lane(d.i, l),
                       psi = lane(d.psi, l), phic = lane(d.phic, l),
                       lam = lane(d.lambda, l), phi = lane(d.phi, l),
                       pok = lane(d.phi_over_k, l);
            const char* b = kern::to_string(ops->backend);

            ASSERT_EQ(got.dot[l], scalar.dot(s.data(), i.data(), n))
                << "batch_dot lane " << l << " n=" << n << " lanes=" << lanes
                << " backend=" << b;
            ASSERT_EQ(got.trap[l],
                      scalar.trapezoid(d.t.data(), s.data(), n))
                << "batch_trapezoid lane " << l << " backend=" << b;
            double k4[4];
            scalar.knot4(s.data(), i.data(), psi.data(), phic.data(), n, k4);
            for (std::size_t q = 0; q < 4; ++q) {
              ASSERT_EQ(got.knot4[q * lanes + l], k4[q])
                  << "batch_knot4 lane " << l << " component " << q
                  << " backend=" << b;
            }

            std::vector<double> ds(n), di(n);
            const double th =
                scalar.sir_rhs(s.data(), i.data(), lam.data(), phi.data(), n,
                               6.5, d.alpha[l], d.e1[l], d.e2[l], ds.data(),
                               di.data());
            ASSERT_EQ(got.th[l], th) << "theta lane " << l << " backend=" << b;
            for (std::size_t j = 0; j < n; ++j) {
              ASSERT_EQ(got.ds[j * lanes + l], ds[j])
                  << "batch_sir_rhs.ds lane " << l << " j=" << j
                  << " backend=" << b;
              ASSERT_EQ(got.di[j * lanes + l], di[j])
                  << "batch_sir_rhs.di lane " << l << " j=" << j
                  << " backend=" << b;
            }

            std::vector<double> dpsi(n), dphi(n);
            scalar.costate_rhs(s.data(), i.data(), psi.data(), phic.data(),
                               lam.data(), pok.data(), n, d.c1e1[l],
                               d.c2e2[l], d.e1[l], d.e2[l], d.theta[l],
                               diagonal, dpsi.data(), dphi.data());
            for (std::size_t j = 0; j < n; ++j) {
              ASSERT_EQ(got.dpsi[j * lanes + l], dpsi[j])
                  << "batch_costate_rhs.dpsi lane " << l << " j=" << j
                  << " diagonal=" << diagonal << " backend=" << b;
              ASSERT_EQ(got.dphi[j * lanes + l], dphi[j])
                  << "batch_costate_rhs.dphi lane " << l << " j=" << j
                  << " diagonal=" << diagonal << " backend=" << b;
            }

            // Fused steps: sequential layout is [S(n) | I(n)] /
            // [ψ(n) | φ(n)], stage controls are 3-vectors.
            std::vector<double> y(2 * n), w(2 * n), y_next(2 * n),
                w_next(2 * n),
                scratch(kern::fused_scratch_doubles(n));
            std::copy(s.begin(), s.end(), y.begin());
            std::copy(i.begin(), i.end(), y.begin() + n);
            std::copy(psi.begin(), psi.end(), w.begin());
            std::copy(phic.begin(), phic.end(), w.begin() + n);
            const double e1st[3] = {d.e1s[0 * lanes + l],
                                    d.e1s[1 * lanes + l],
                                    d.e1s[2 * lanes + l]};
            const double e2st[3] = {d.e2s[0 * lanes + l],
                                    d.e2s[1 * lanes + l],
                                    d.e2s[2 * lanes + l]};
            const double thst[3] = {d.thetas[0 * lanes + l],
                                    d.thetas[1 * lanes + l],
                                    d.thetas[2 * lanes + l]};
            scalar.sir_rk4_step(y.data(), n, 6.5, d.alpha[l], e1st, e2st,
                                lam.data(), phi.data(), 0.05, y_next.data(),
                                scratch.data());
            scalar.costate_rk4_step(w.data(), n, y.data(), y.data(),
                                    y.data(), lam.data(), pok.data(), thst,
                                    e1st, e2st, d.c1[l], d.c2[l], 0.05,
                                    diagonal, w_next.data(), scratch.data());
            for (std::size_t j = 0; j < 2 * n; ++j) {
              // Batch halves are n·lanes wide; sequential halves n wide.
              const std::size_t half = j < n ? 0 : 1;
              const std::size_t jj = j - half * n;
              const std::size_t flat = half * n * lanes + jj * lanes + l;
              ASSERT_EQ(got.y_next[flat], y_next[j])
                  << "batch_sir_rk4_step lane " << l << " j=" << j
                  << " backend=" << b;
              ASSERT_EQ(got.w_next[flat], w_next[j])
                  << "batch_costate_rk4_step lane " << l << " j=" << j
                  << " diagonal=" << diagonal << " backend=" << b;
            }
          }
        }
      }
    }
  }
}

// Masked tail stores are the batched kernels' one way to write past an
// output: the sentinel margin BatchOut leaves past every output (lanes,
// n·lanes, 4·lanes for knot4, 2n·lanes for the fused steps, and the
// scratch size) must survive every kernel on every backend.
TEST(KernBatch, OutputsStayWithinTheirExtent) {
  std::vector<const kern::Ops*> backends = {
      &kern::ops(kern::Backend::kScalar)};
  for (const kern::Ops* simd : simd_backends()) backends.push_back(simd);
  for (const kern::Ops* ops : backends) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
      for (const std::size_t lanes : kBatchLanes) {
        for (bool diagonal : {false, true}) {
          util::Xoshiro256 rng(n * 59 + lanes * 3 + (diagonal ? 1 : 0));
          const BatchData d(n, lanes, rng);
          const BatchOut got(*ops, d, n, lanes, diagonal);
          const std::pair<const std::vector<double>*, const char*> outputs[] =
              {{&got.dot, "batch_dot"},
               {&got.trap, "batch_trapezoid"},
               {&got.knot4, "batch_knot4"},
               {&got.ds, "batch_sir_rhs.ds"},
               {&got.di, "batch_sir_rhs.di"},
               {&got.th, "batch_sir_rhs.theta"},
               {&got.dpsi, "batch_costate_rhs.dpsi"},
               {&got.dphi, "batch_costate_rhs.dphi"},
               {&got.y_next, "batch_sir_rk4_step"},
               {&got.w_next, "batch_costate_rk4_step"},
               {&got.scratch, "batch fused-step scratch"}};
          for (const auto& [v, what] : outputs) {
            for (std::size_t x = v->size() - kGuard; x < v->size(); ++x) {
              ASSERT_EQ((*v)[x], kSentinel)
                  << what << " wrote past its extent at margin slot "
                  << x - (v->size() - kGuard) << " n=" << n
                  << " lanes=" << lanes << " diagonal=" << diagonal
                  << " backend=" << kern::to_string(ops->backend);
            }
          }
        }
      }
    }
  }
}

TEST(KernDispatch, ZeroLengthIsValidEverywhere) {
  for (kern::Backend b :
       {kern::Backend::kScalar, kern::Backend::kAvx2,
        kern::Backend::kAvx512}) {
    if (!kern::compiled(b) || !kern::cpu_supports(b)) continue;
    const kern::Ops& ops = kern::ops(b);
    EXPECT_EQ(ops.dot(nullptr, nullptr, 0), 0.0);
    EXPECT_EQ(ops.sum(nullptr, 0), 0.0);
    EXPECT_EQ(ops.gather_sum(nullptr, nullptr, 0), 0.0);
    EXPECT_EQ(ops.trapezoid(nullptr, nullptr, 0), 0.0);
    double out4[4] = {1, 1, 1, 1};
    ops.knot4(nullptr, nullptr, nullptr, nullptr, 0, out4);
    EXPECT_EQ(out4[0], 0.0);
    EXPECT_EQ(out4[3], 0.0);
    std::uint64_t c[2] = {9, 9};
    ops.census2(nullptr, 0, c);
    EXPECT_EQ(c[0], 0u);
    EXPECT_EQ(c[1], 0u);
    std::uint64_t mask = 7;
    ops.sweep_draws(nullptr, nullptr, 64, 64, 1, 2, 3, &mask, &mask);
    EXPECT_EQ(mask, 7u);
  }
}

}  // namespace
