// AVX-512 backend: 8-lane double kernels (512-bit), compiled with
// -mavx512f -mavx512dq -mavx512bw -mavx512vl and -ffp-contract=off.
// Same contract as the AVX2 backend: elementwise kernels replay the
// scalar per-element IEEE sequence lane by lane (bit-identical),
// reductions keep 8 lane partials and fold at the end (tolerance).
// dispatch.cpp only publishes this table after CPUID confirms
// F+DQ+BW+VL.
#include <immintrin.h>

#include "kern/batch_impl.hpp"
#include "kern/kern.hpp"
#include "kern/scalar_impl.hpp"
#include "kern/tables.hpp"
#include "kern/varint_simd.hpp"

namespace rumor::kern {

namespace {

constexpr std::size_t kLanes = 8;

// Below two full vectors of groups the 512-bit model kernels lose to
// the 256-bit ones — masked loads plus the deeper horizontal Θ /
// coupling reductions cost more than the halved lane count saves, and
// the paper-scale optimal-control solves run at n ≈ 10–20. The model
// kernels forward to the AVX2 table there (bitwise-consistently: the
// rhs and fused-step kernels forward at the same threshold, and the
// elementwise stage kernels are bit-identical across backends).
constexpr std::size_t kSmallN = 2 * kLanes;

inline __m512d negate(__m512d v) {
  return _mm512_xor_pd(v, _mm512_set1_pd(-0.0));
}

double dot(const double* a, const double* b, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i)));
  }
  return _mm512_reduce_add_pd(acc) + scalar::dot(a + main, b + main, n - main);
}

double sum(const double* a, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    acc = _mm512_add_pd(acc, _mm512_loadu_pd(a + i));
  }
  return _mm512_reduce_add_pd(acc) + scalar::sum(a + main, n - main);
}

double gather_sum(const double* w, const std::uint32_t* idx, std::size_t n) {
  if (n < 2 * kLanes) return scalar::gather_sum(w, idx, n);
  const std::size_t main = n - n % kLanes;
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m256i lanes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    acc = _mm512_add_pd(acc, _mm512_i32gather_pd(lanes, w, 8));
  }
  return _mm512_reduce_add_pd(acc) +
         scalar::gather_sum(w, idx + main, n - main);
}

double trapezoid(const double* t, const double* y, std::size_t n) {
  if (n < 2) return 0.0;
  const std::size_t intervals = n - 1;
  const std::size_t main = intervals - intervals % kLanes;
  const __m512d half = _mm512_set1_pd(0.5);
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m512d dt =
        _mm512_sub_pd(_mm512_loadu_pd(t + i + 1), _mm512_loadu_pd(t + i));
    const __m512d ys =
        _mm512_add_pd(_mm512_loadu_pd(y + i + 1), _mm512_loadu_pd(y + i));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_mul_pd(half, dt), ys));
  }
  return _mm512_reduce_add_pd(acc) +
         scalar::trapezoid(t + main, y + main, n - main);
}

void knot4(const double* s, const double* i, const double* psi,
           const double* phi, std::size_t n, double out[4]) {
  const std::size_t main = n - n % kLanes;
  __m512d psi_s = _mm512_setzero_pd(), s2 = _mm512_setzero_pd();
  __m512d phi_i = _mm512_setzero_pd(), i2 = _mm512_setzero_pd();
  for (std::size_t j = 0; j < main; j += kLanes) {
    const __m512d sv = _mm512_loadu_pd(s + j);
    const __m512d iv = _mm512_loadu_pd(i + j);
    psi_s =
        _mm512_add_pd(psi_s, _mm512_mul_pd(_mm512_loadu_pd(psi + j), sv));
    s2 = _mm512_add_pd(s2, _mm512_mul_pd(sv, sv));
    phi_i =
        _mm512_add_pd(phi_i, _mm512_mul_pd(_mm512_loadu_pd(phi + j), iv));
    i2 = _mm512_add_pd(i2, _mm512_mul_pd(iv, iv));
  }
  double tail[4];
  scalar::knot4(s + main, i + main, psi + main, phi + main, n - main, tail);
  out[0] = _mm512_reduce_add_pd(psi_s) + tail[0];
  out[1] = _mm512_reduce_add_pd(s2) + tail[1];
  out[2] = _mm512_reduce_add_pd(phi_i) + tail[2];
  out[3] = _mm512_reduce_add_pd(i2) + tail[3];
}

double sir_rhs(const double* s, const double* i, const double* lambda,
               const double* phi, std::size_t n, double mean_k, double alpha,
               double e1, double e2, double* ds, double* di) {
#ifdef RUMOR_KERN_HAVE_AVX2
  if (n < kSmallN) {
    return avx2_ops().sir_rhs(s, i, lambda, phi, n, mean_k, alpha, e1, e2,
                              ds, di);
  }
#endif
  const double theta = dot(phi, i, n) / mean_k;
  const std::size_t main = n - n % kLanes;
  const __m512d th = _mm512_set1_pd(theta);
  const __m512d al = _mm512_set1_pd(alpha);
  const __m512d e1v = _mm512_set1_pd(e1);
  const __m512d e2v = _mm512_set1_pd(e2);
  for (std::size_t j = 0; j < main; j += kLanes) {
    const __m512d sv = _mm512_loadu_pd(s + j);
    const __m512d iv = _mm512_loadu_pd(i + j);
    const __m512d infection =
        _mm512_mul_pd(_mm512_mul_pd(_mm512_loadu_pd(lambda + j), sv), th);
    _mm512_storeu_pd(ds + j, _mm512_sub_pd(_mm512_sub_pd(al, infection),
                                           _mm512_mul_pd(e1v, sv)));
    _mm512_storeu_pd(di + j,
                     _mm512_sub_pd(infection, _mm512_mul_pd(e2v, iv)));
  }
  scalar::sir_rhs_body(s, i, lambda, main, n, alpha, e1, e2, theta, ds, di);
  return theta;
}

void costate_rhs(const double* s, const double* i, const double* psi,
                 const double* phic, const double* lambda,
                 const double* phi_over_k, std::size_t n, double c1e1,
                 double c2e2, double e1, double e2, double theta,
                 bool diagonal, double* dpsi, double* dphi) {
#ifdef RUMOR_KERN_HAVE_AVX2
  if (n < kSmallN) {
    avx2_ops().costate_rhs(s, i, psi, phic, lambda, phi_over_k, n, c1e1,
                           c2e2, e1, e2, theta, diagonal, dpsi, dphi);
    return;
  }
#endif
  double coupling = 0.0;
  const std::size_t main = n - n % kLanes;
  if (!diagonal) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t j = 0; j < main; j += kLanes) {
      const __m512d diff = _mm512_sub_pd(_mm512_loadu_pd(psi + j),
                                         _mm512_loadu_pd(phic + j));
      acc = _mm512_add_pd(
          acc,
          _mm512_mul_pd(_mm512_mul_pd(diff, _mm512_loadu_pd(lambda + j)),
                        _mm512_loadu_pd(s + j)));
    }
    coupling = _mm512_reduce_add_pd(acc);
    for (std::size_t j = main; j < n; ++j) {
      coupling += (psi[j] - phic[j]) * lambda[j] * s[j];
    }
  }
  const __m512d thv = _mm512_set1_pd(theta);
  const __m512d e1v = _mm512_set1_pd(e1);
  const __m512d e2v = _mm512_set1_pd(e2);
  const __m512d c1v = _mm512_set1_pd(c1e1);
  const __m512d c2v = _mm512_set1_pd(c2e2);
  const __m512d cpl = _mm512_set1_pd(coupling);
  for (std::size_t j = 0; j < main; j += kLanes) {
    const __m512d sv = _mm512_loadu_pd(s + j);
    const __m512d iv = _mm512_loadu_pd(i + j);
    const __m512d psiv = _mm512_loadu_pd(psi + j);
    const __m512d phv = _mm512_loadu_pd(phic + j);
    const __m512d lv = _mm512_loadu_pd(lambda + j);
    const __m512d dpsi_dt = _mm512_sub_pd(
        _mm512_add_pd(
            _mm512_mul_pd(c1v, sv),
            _mm512_mul_pd(psiv,
                          _mm512_add_pd(_mm512_mul_pd(lv, thv), e1v))),
        _mm512_mul_pd(_mm512_mul_pd(phv, lv), thv));
    const __m512d group_coupling =
        diagonal ? _mm512_mul_pd(
                       _mm512_mul_pd(_mm512_sub_pd(psiv, phv), lv), sv)
                 : cpl;
    const __m512d dphi_dt = _mm512_add_pd(
        _mm512_add_pd(
            _mm512_mul_pd(c2v, iv),
            _mm512_mul_pd(_mm512_loadu_pd(phi_over_k + j), group_coupling)),
        _mm512_mul_pd(phv, e2v));
    _mm512_storeu_pd(dpsi + j, negate(dpsi_dt));
    _mm512_storeu_pd(dphi + j, negate(dphi_dt));
  }
  scalar::costate_rhs_body(s, i, psi, phic, lambda, phi_over_k, main, n, c1e1,
                           c2e2, e1, e2, theta, diagonal, coupling, dpsi,
                           dphi);
}

void axpy_out(const double* y, const double* k, double a, double* out,
              std::size_t n);
void rk4_combine(const double* y, const double* k1, const double* k2,
                 const double* k3, const double* k4, double h6, double* out,
                 std::size_t n);

/// Split-half aligned partition of the fused-step scratch — see the
/// AVX2 TU for the store-to-load-forwarding rationale; the layout here
/// pads each half to 8-lane multiples.
inline double* fused_base(double* scratch) {
  return reinterpret_cast<double*>(
      (reinterpret_cast<std::uintptr_t>(scratch) + 63) &
      ~static_cast<std::uintptr_t>(63));
}

/// Whole RK4 step fused into one dispatch (see the AVX2 TU): stage RHS
/// and combines are direct, inlinable calls inside this TU, over
/// split-half aligned stage buffers.
void sir_rk4_step(const double* y, std::size_t n, double mean_k, double alpha,
                  const double* e1, const double* e2, const double* lambda,
                  const double* phi, double h, double* y_next,
                  double* scratch) {
#ifdef RUMOR_KERN_HAVE_AVX2
  if (n < kSmallN) {
    avx2_ops().sir_rk4_step(y, n, mean_k, alpha, e1, e2, lambda, phi, h,
                            y_next, scratch);
    return;
  }
#endif
  const std::size_t pad = (n + kLanes - 1) & ~(kLanes - 1);
  double* base = fused_base(scratch);
  double* k1s = base;
  double* k1i = base + pad;
  double* k2s = base + 2 * pad;
  double* k2i = base + 3 * pad;
  double* k3s = base + 4 * pad;
  double* k3i = base + 5 * pad;
  double* k4s = base + 6 * pad;
  double* k4i = base + 7 * pad;
  double* ts = base + 8 * pad;
  double* ti = base + 9 * pad;
  const double* S = y;
  const double* I = y + n;
  sir_rhs(S, I, lambda, phi, n, mean_k, alpha, e1[0], e2[0], k1s, k1i);
  axpy_out(S, k1s, 0.5 * h, ts, n);
  axpy_out(I, k1i, 0.5 * h, ti, n);
  sir_rhs(ts, ti, lambda, phi, n, mean_k, alpha, e1[1], e2[1], k2s, k2i);
  axpy_out(S, k2s, 0.5 * h, ts, n);
  axpy_out(I, k2i, 0.5 * h, ti, n);
  sir_rhs(ts, ti, lambda, phi, n, mean_k, alpha, e1[1], e2[1], k3s, k3i);
  axpy_out(S, k3s, h, ts, n);
  axpy_out(I, k3i, h, ti, n);
  sir_rhs(ts, ti, lambda, phi, n, mean_k, alpha, e1[2], e2[2], k4s, k4i);
  rk4_combine(S, k1s, k2s, k3s, k4s, h / 6.0, y_next, n);
  rk4_combine(I, k1i, k2i, k3i, k4i, h / 6.0, y_next + n, n);
}

void costate_rk4_step(const double* w, std::size_t n, const double* y0,
                      const double* ymid, const double* y1,
                      const double* lambda, const double* phi_over_k,
                      const double* theta, const double* e1, const double* e2,
                      double c1, double c2, double h, bool diagonal,
                      double* w_next, double* scratch) {
#ifdef RUMOR_KERN_HAVE_AVX2
  if (n < kSmallN) {
    avx2_ops().costate_rk4_step(w, n, y0, ymid, y1, lambda, phi_over_k,
                                theta, e1, e2, c1, c2, h, diagonal, w_next,
                                scratch);
    return;
  }
#endif
  const std::size_t pad = (n + kLanes - 1) & ~(kLanes - 1);
  double* base = fused_base(scratch);
  double* k1p = base;
  double* k1f = base + pad;
  double* k2p = base + 2 * pad;
  double* k2f = base + 3 * pad;
  double* k3p = base + 4 * pad;
  double* k3f = base + 5 * pad;
  double* k4p = base + 6 * pad;
  double* k4f = base + 7 * pad;
  double* tp = base + 8 * pad;
  double* tf = base + 9 * pad;
  const auto stage = [&](const double* psi, const double* phic,
                         const double* y, std::size_t s, double* kp,
                         double* kf) {
    costate_rhs(y, y + n, psi, phic, lambda, phi_over_k, n,
                -2.0 * c1 * e1[s] * e1[s], -2.0 * c2 * e2[s] * e2[s], e1[s],
                e2[s], theta[s], diagonal, kp, kf);
  };
  stage(w, w + n, y0, 0, k1p, k1f);
  axpy_out(w, k1p, 0.5 * h, tp, n);
  axpy_out(w + n, k1f, 0.5 * h, tf, n);
  stage(tp, tf, ymid, 1, k2p, k2f);
  axpy_out(w, k2p, 0.5 * h, tp, n);
  axpy_out(w + n, k2f, 0.5 * h, tf, n);
  stage(tp, tf, ymid, 1, k3p, k3f);
  axpy_out(w, k3p, h, tp, n);
  axpy_out(w + n, k3f, h, tf, n);
  stage(tp, tf, y1, 2, k4p, k4f);
  rk4_combine(w, k1p, k2p, k3p, k4p, h / 6.0, w_next, n);
  rk4_combine(w + n, k1f, k2f, k3f, k4f, h / 6.0, w_next + n, n);
}

void lerp(const double* a, const double* b, double w, double* out,
          std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m512d wv = _mm512_set1_pd(w);
  const __m512d uv = _mm512_set1_pd(1.0 - w);
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm512_storeu_pd(
        out + i, _mm512_add_pd(_mm512_mul_pd(uv, _mm512_loadu_pd(a + i)),
                               _mm512_mul_pd(wv, _mm512_loadu_pd(b + i))));
  }
  scalar::lerp(a, b, w, out, main, n);
}

void axpy_out(const double* y, const double* k, double a, double* out,
              std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m512d av = _mm512_set1_pd(a);
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm512_storeu_pd(
        out + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                               _mm512_mul_pd(av, _mm512_loadu_pd(k + i))));
  }
  scalar::axpy_out(y, k, a, out, main, n);
}

void combine2(const double* y, const double* k1, const double* k2, double a,
              double* out, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m512d av = _mm512_set1_pd(a);
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m512d ks =
        _mm512_add_pd(_mm512_loadu_pd(k1 + i), _mm512_loadu_pd(k2 + i));
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                                            _mm512_mul_pd(av, ks)));
  }
  scalar::combine2(y, k1, k2, a, out, main, n);
}

void rk4_combine(const double* y, const double* k1, const double* k2,
                 const double* k3, const double* k4, double h6, double* out,
                 std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m512d h6v = _mm512_set1_pd(h6);
  const __m512d two = _mm512_set1_pd(2.0);
  for (std::size_t i = 0; i < main; i += kLanes) {
    // Same association as the scalar body: ((k1 + 2 k2) + 2 k3) + k4.
    __m512d t = _mm512_add_pd(
        _mm512_loadu_pd(k1 + i),
        _mm512_mul_pd(two, _mm512_loadu_pd(k2 + i)));
    t = _mm512_add_pd(t, _mm512_mul_pd(two, _mm512_loadu_pd(k3 + i)));
    t = _mm512_add_pd(t, _mm512_loadu_pd(k4 + i));
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                                            _mm512_mul_pd(h6v, t)));
  }
  scalar::rk4_combine(y, k1, k2, k3, k4, h6, out, main, n);
}

void accumulate(const double* x, double* acc, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm512_storeu_pd(acc + i, _mm512_add_pd(_mm512_loadu_pd(acc + i),
                                            _mm512_loadu_pd(x + i)));
  }
  scalar::accumulate(x, acc, main, n);
}

void accumulate_sq(const double* x, double* acc, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m512d xv = _mm512_loadu_pd(x + i);
    _mm512_storeu_pd(acc + i, _mm512_add_pd(_mm512_loadu_pd(acc + i),
                                            _mm512_mul_pd(xv, xv)));
  }
  scalar::accumulate_sq(x, acc, main, n);
}

/// Per-64-bit-lane byte-sum popcount of 8 words via the nibble lookup
/// widened to 512 bits (shuffle/sad need AVX512BW).
inline __m512i popcount_epi64(__m512i v) {
  const __m512i lookup = _mm512_broadcast_i32x4(_mm_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low_mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi32(v, 4), low_mask);
  const __m512i counts = _mm512_add_epi8(_mm512_shuffle_epi8(lookup, lo),
                                         _mm512_shuffle_epi8(lookup, hi));
  return _mm512_sad_epu8(counts, _mm512_setzero_si512());
}

void census2(const std::uint64_t* words, std::size_t nnodes,
             std::uint64_t out[2]) {
  const std::size_t full = nnodes / scalar::kNodesPerWord;
  const std::size_t vec_words = full - full % kLanes;
  const __m512i even =
      _mm512_set1_epi64(static_cast<long long>(scalar::kEvenBits));
  __m512i infected = _mm512_setzero_si512();
  __m512i recovered = _mm512_setzero_si512();
  for (std::size_t w = 0; w < vec_words; w += kLanes) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(words + w));
    infected = _mm512_add_epi64(infected,
                                popcount_epi64(_mm512_and_si512(v, even)));
    recovered = _mm512_add_epi64(
        recovered, popcount_epi64(_mm512_andnot_si512(even, v)));
  }
  std::uint64_t tail[2];
  scalar::census2(words + vec_words,
                  nnodes - vec_words * scalar::kNodesPerWord, tail);
  out[0] = tail[0] + static_cast<std::uint64_t>(
                         _mm512_reduce_add_epi64(infected));
  out[1] = tail[1] + static_cast<std::uint64_t>(
                         _mm512_reduce_add_epi64(recovered));
}

/// Logical right shift of every lane. GCC 12's _mm512_srli_epi64 passes
/// an _mm512_undefined_epi32() source that -Wuninitialized reports; the
/// all-lanes zero-masked form compiles to the same unmasked vpsrlq.
inline __m512i srli64(__m512i z, unsigned shift) {
  return _mm512_maskz_srli_epi64(0xFF, z, shift);
}

/// splitmix64's output mix, 8 lanes (vpmullq needs AVX512DQ).
inline __m512i mix64(__m512i z) {
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, srli64(z, 30)),
                         _mm512_set1_epi64(0xBF58476D1CE4E5B9LL));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, srli64(z, 27)),
                         _mm512_set1_epi64(0x94D049BB133111EBLL));
  return _mm512_xor_si512(z, srli64(z, 31));
}

void sweep_draws(const std::uint64_t* words, const std::uint32_t* counts,
                 std::size_t lo, std::size_t hi, std::uint64_t step_key,
                 std::uint64_t t_immunize, std::uint64_t t_block,
                 std::uint64_t* recover, std::uint64_t* exposed) {
  const __m512i golden = _mm512_set1_epi64(0x9E3779B97F4A7C15LL);
  const __m512i key = _mm512_set1_epi64(static_cast<long long>(step_key));
  const __m512i t_imm = _mm512_set1_epi64(static_cast<long long>(t_immunize));
  const __m512i t_blk = _mm512_set1_epi64(static_cast<long long>(t_block));
  const __m512i iota = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  scalar::sweep_draws_by_word(
      words, counts, lo, hi, step_key, t_immunize, t_block, recover, exposed,
      [&](std::size_t base) {
        scalar::DrawMasks64 d{0, 0, 0};
        for (std::size_t g = 0; g < 64; g += kLanes) {
          const __m512i v = _mm512_add_epi64(
              _mm512_set1_epi64(static_cast<long long>(base + g)), iota);
          // CounterRng(hash_mix(step_key, v)).next() >> 11, where
          // hash_mix(a, b) = splitmix64(a ^ (splitmix64(b) + golden)).
          const __m512i hashed = mix64(_mm512_add_epi64(v, golden));
          const __m512i stream = mix64(_mm512_add_epi64(
              _mm512_xor_si512(key, _mm512_add_epi64(hashed, golden)),
              golden));
          const __m512i m =
              srli64(mix64(_mm512_add_epi64(stream, golden)), 11);
          d.below_immunize |=
              static_cast<std::uint64_t>(_mm512_cmplt_epu64_mask(m, t_imm))
              << g;
          d.below_block |=
              static_cast<std::uint64_t>(_mm512_cmplt_epu64_mask(m, t_blk))
              << g;
        }
        for (std::size_t q = 0; q < 64; q += 16) {
          const __m512i c = _mm512_loadu_si512(
              reinterpret_cast<const void*>(counts + base + q));
          d.has_source |=
              static_cast<std::uint64_t>(_mm512_test_epi32_mask(c, c)) << q;
        }
        return d;
      });
}

// --- batched lane-per-problem kernels -------------------------------
// One zmm holds the same component of 8 adjacent problems; the
// component loop runs sequentially, so every lane accumulates in the
// scalar left-to-right order — bit-identical to the scalar backend
// (kern.hpp policy). Unlike the one-problem model kernels above, there
// is NO kSmallN forwarding: the vectors are filled by lanes, not
// groups, so small n never strands vector width. Every lane count runs
// in the vector loop: the last vector of a ragged batch (lanes % 8 != 0)
// is masked, and its masked-off lanes are neither read nor written.

/// Runs body(l, load, store) for the vector of lanes [l, l + 8), for
/// every l: plain loads and stores while a full vector remains, masked
/// ones on the ragged tail. Choosing the accessors once per vector keeps
/// the component loops in `body` branch-free, and full vectors off the
/// masked forms, which with an all-ones mask measured ~8% slower per
/// batched FBSM solve at 8 lanes.
/// Always inlined: called out of line, `body` reloads every captured
/// pointer from the closure after each store (a store might alias it),
/// which doubled the cost of a batched RK4 step.
template <class Body>
[[gnu::always_inline]] inline void for_each_vector(std::size_t lanes,
                                                   Body&& body) {
  for (std::size_t l = 0; l < lanes; l += kLanes) {
    if (lanes - l >= kLanes) {
      body(l, [](const double* p) { return _mm512_loadu_pd(p); },
           [](double* p, __m512d v) { _mm512_storeu_pd(p, v); });
    } else {
      const auto m = static_cast<__mmask8>((1u << (lanes - l)) - 1u);
      body(l, [m](const double* p) { return _mm512_maskz_loadu_pd(m, p); },
           [m](double* p, __m512d v) { _mm512_mask_storeu_pd(p, m, v); });
    }
  }
}

void batch_dot(const double* a, const double* b, std::size_t n,
               std::size_t lanes, double* out) {
  for_each_vector(lanes, [&](std::size_t l, auto load, auto store) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      acc = _mm512_add_pd(acc, _mm512_mul_pd(load(a + j * lanes + l),
                                             load(b + j * lanes + l)));
    }
    store(out + l, acc);
  });
}

void batch_trapezoid(const double* t, const double* y, std::size_t n,
                     std::size_t lanes, double* out) {
  for_each_vector(lanes, [&](std::size_t l, auto load, auto store) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t i = 1; i < n; ++i) {
      const double dt = t[i] - t[i - 1];
      const __m512d ys = _mm512_add_pd(load(y + i * lanes + l),
                                       load(y + (i - 1) * lanes + l));
      acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_set1_pd(0.5 * dt), ys));
    }
    store(out + l, acc);
  });
}

void batch_knot4(const double* s, const double* i, const double* psi,
                 const double* phi, std::size_t n, std::size_t lanes,
                 double* out) {
  for_each_vector(lanes, [&](std::size_t l, auto load, auto store) {
    __m512d psi_s = _mm512_setzero_pd(), s2 = _mm512_setzero_pd();
    __m512d phi_i = _mm512_setzero_pd(), i2 = _mm512_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      const __m512d sv = load(s + j * lanes + l);
      const __m512d iv = load(i + j * lanes + l);
      psi_s = _mm512_add_pd(psi_s,
                            _mm512_mul_pd(load(psi + j * lanes + l), sv));
      s2 = _mm512_add_pd(s2, _mm512_mul_pd(sv, sv));
      phi_i = _mm512_add_pd(phi_i,
                            _mm512_mul_pd(load(phi + j * lanes + l), iv));
      i2 = _mm512_add_pd(i2, _mm512_mul_pd(iv, iv));
    }
    store(out + 0 * lanes + l, psi_s);
    store(out + 1 * lanes + l, s2);
    store(out + 2 * lanes + l, phi_i);
    store(out + 3 * lanes + l, i2);
  });
}

void batch_sir_rhs(const double* s, const double* i, const double* lambda,
                   const double* phi, std::size_t n, std::size_t lanes,
                   double mean_k, const double* alpha, const double* e1,
                   const double* e2, double* ds, double* di,
                   double* theta_out) {
  const __m512d mk = _mm512_set1_pd(mean_k);
  for_each_vector(lanes, [&](std::size_t l, auto load, auto store) {
    __m512d th = _mm512_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      th = _mm512_add_pd(th, _mm512_mul_pd(load(phi + j * lanes + l),
                                           load(i + j * lanes + l)));
    }
    th = _mm512_div_pd(th, mk);
    const __m512d al = load(alpha + l);
    const __m512d e1v = load(e1 + l);
    const __m512d e2v = load(e2 + l);
    for (std::size_t j = 0; j < n; ++j) {
      const __m512d sv = load(s + j * lanes + l);
      const __m512d iv = load(i + j * lanes + l);
      const __m512d infection = _mm512_mul_pd(
          _mm512_mul_pd(load(lambda + j * lanes + l), sv), th);
      store(ds + j * lanes + l,
            _mm512_sub_pd(_mm512_sub_pd(al, infection),
                          _mm512_mul_pd(e1v, sv)));
      store(di + j * lanes + l,
            _mm512_sub_pd(infection, _mm512_mul_pd(e2v, iv)));
    }
    if (theta_out != nullptr) store(theta_out + l, th);
  });
}

void batch_costate_rhs(const double* s, const double* i, const double* psi,
                       const double* phic, const double* lambda,
                       const double* phi_over_k, std::size_t n,
                       std::size_t lanes, const double* c1e1,
                       const double* c2e2, const double* e1, const double* e2,
                       const double* theta, bool diagonal, double* dpsi,
                       double* dphi) {
  for_each_vector(lanes, [&](std::size_t l, auto load, auto store) {
    __m512d cpl = _mm512_setzero_pd();
    if (!diagonal) {
      for (std::size_t j = 0; j < n; ++j) {
        const __m512d diff = _mm512_sub_pd(load(psi + j * lanes + l),
                                           load(phic + j * lanes + l));
        cpl = _mm512_add_pd(
            cpl, _mm512_mul_pd(
                     _mm512_mul_pd(diff, load(lambda + j * lanes + l)),
                     load(s + j * lanes + l)));
      }
    }
    const __m512d thv = load(theta + l);
    const __m512d e1v = load(e1 + l);
    const __m512d e2v = load(e2 + l);
    const __m512d c1v = load(c1e1 + l);
    const __m512d c2v = load(c2e2 + l);
    for (std::size_t j = 0; j < n; ++j) {
      const __m512d sv = load(s + j * lanes + l);
      const __m512d iv = load(i + j * lanes + l);
      const __m512d psiv = load(psi + j * lanes + l);
      const __m512d phv = load(phic + j * lanes + l);
      const __m512d lv = load(lambda + j * lanes + l);
      const __m512d dpsi_dt = _mm512_sub_pd(
          _mm512_add_pd(
              _mm512_mul_pd(c1v, sv),
              _mm512_mul_pd(psiv,
                            _mm512_add_pd(_mm512_mul_pd(lv, thv), e1v))),
          _mm512_mul_pd(_mm512_mul_pd(phv, lv), thv));
      const __m512d group_coupling =
          diagonal ? _mm512_mul_pd(
                         _mm512_mul_pd(_mm512_sub_pd(psiv, phv), lv), sv)
                   : cpl;
      const __m512d dphi_dt = _mm512_add_pd(
          _mm512_add_pd(_mm512_mul_pd(c2v, iv),
                        _mm512_mul_pd(load(phi_over_k + j * lanes + l),
                                      group_coupling)),
          _mm512_mul_pd(phv, e2v));
      store(dpsi + j * lanes + l, negate(dpsi_dt));
      store(dphi + j * lanes + l, negate(dphi_dt));
    }
  });
}

/// Batched fused RK4 step — same structure as the AVX2 TU: stage RHS
/// calls are the TU-local batched kernels, combines are the TU-local
/// elementwise kernels over the flattened 2n·lanes arrays.
void batch_sir_rk4_step(const double* y, std::size_t n, std::size_t lanes,
                        double mean_k, const double* alpha, const double* e1,
                        const double* e2, const double* lambda,
                        const double* phi, double h, double* y_next,
                        double* scratch) {
  const std::size_t dim = 2 * n * lanes;
  const std::size_t half = n * lanes;
  double* base = fused_base(scratch);
  double* k1 = base;
  double* k2 = base + dim;
  double* k3 = base + 2 * dim;
  double* k4 = base + 3 * dim;
  double* tmp = base + 4 * dim;
  batch_sir_rhs(y, y + half, lambda, phi, n, lanes, mean_k, alpha, e1, e2, k1,
                k1 + half, nullptr);
  axpy_out(y, k1, 0.5 * h, tmp, dim);
  batch_sir_rhs(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
                e1 + lanes, e2 + lanes, k2, k2 + half, nullptr);
  axpy_out(y, k2, 0.5 * h, tmp, dim);
  batch_sir_rhs(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
                e1 + lanes, e2 + lanes, k3, k3 + half, nullptr);
  axpy_out(y, k3, h, tmp, dim);
  batch_sir_rhs(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
                e1 + 2 * lanes, e2 + 2 * lanes, k4, k4 + half, nullptr);
  rk4_combine(y, k1, k2, k3, k4, h / 6.0, y_next, dim);
}

void batch_costate_rk4_step(const double* w, std::size_t n, std::size_t lanes,
                            const double* y0, const double* ymid,
                            const double* y1, const double* lambda,
                            const double* phi_over_k, const double* theta,
                            const double* e1, const double* e2,
                            const double* c1, const double* c2, double h,
                            bool diagonal, double* w_next, double* scratch) {
  const std::size_t dim = 2 * n * lanes;
  const std::size_t half = n * lanes;
  double* base = fused_base(scratch);
  double* k1 = base;
  double* k2 = base + dim;
  double* k3 = base + 2 * dim;
  double* k4 = base + 3 * dim;
  double* tmp = base + 4 * dim;
  double* c1e1 = base + 5 * dim;
  double* c2e2 = c1e1 + lanes;
  const auto stage = [&](const double* ws, const double* y, std::size_t s,
                         double* k) {
    batchref::costate_stage_coeffs(c1, c2, e1, e2, lanes, s, c1e1, c2e2);
    batch_costate_rhs(y, y + half, ws, ws + half, lambda, phi_over_k, n,
                      lanes, c1e1, c2e2, e1 + s * lanes, e2 + s * lanes,
                      theta + s * lanes, diagonal, k, k + half);
  };
  stage(w, y0, 0, k1);
  axpy_out(w, k1, 0.5 * h, tmp, dim);
  stage(tmp, ymid, 1, k2);
  axpy_out(w, k2, 0.5 * h, tmp, dim);
  stage(tmp, ymid, 1, k3);
  axpy_out(w, k3, h, tmp, dim);
  stage(tmp, y1, 2, k4);
  rk4_combine(w, k1, k2, k3, k4, h / 6.0, w_next, dim);
}

}  // namespace

const Ops& avx512_ops() {
  static constexpr Ops table = {
      Backend::kAvx512,
      dot,
      sum,
      gather_sum,
      trapezoid,
      knot4,
      sir_rhs,
      costate_rhs,
      sir_rk4_step,
      costate_rk4_step,
      lerp,
      axpy_out,
      combine2,
      rk4_combine,
      accumulate,
      accumulate_sq,
      census2,
      sweep_draws,
      simd::varint_decode_deltas_avx2,
      batch_dot,
      batch_trapezoid,
      batch_knot4,
      batch_sir_rhs,
      batch_costate_rhs,
      batch_sir_rk4_step,
      batch_costate_rk4_step,
  };
  return table;
}

}  // namespace rumor::kern
