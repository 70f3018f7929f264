// AVX2 backend: 4-lane double kernels (256-bit), compiled with -mavx2
// and -ffp-contract=off. Elementwise kernels perform the scalar
// backend's exact per-element IEEE operation sequence lane by lane
// (bit-identical); reductions keep 4 lane-partial sums and fold them
// at the end (tolerance-equivalent — see kern.hpp).
//
// Nothing in this TU runs before dispatch.cpp has confirmed AVX2 via
// CPUID, and the table below is plain data, so linking this TU into a
// binary that runs on a pre-AVX2 CPU is safe as long as the scalar
// backend is selected.
#include <immintrin.h>

#include "kern/batch_impl.hpp"
#include "kern/kern.hpp"
#include "kern/scalar_impl.hpp"
#include "kern/varint_simd.hpp"

namespace rumor::kern {

namespace {

constexpr std::size_t kLanes = 4;

inline double reduce4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

inline __m256d negate(__m256d v) {
  return _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
}

double dot(const double* a, const double* b, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  return reduce4(acc) + scalar::dot(a + main, b + main, n - main);
}

double sum(const double* a, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(a + i));
  }
  return reduce4(acc) + scalar::sum(a + main, n - main);
}

double gather_sum(const double* w, const std::uint32_t* idx, std::size_t n) {
  // Typical agent-sim lists are a handful of neighbors; the vector
  // gather only pays for itself on hub-sized lists.
  if (n < 2 * kLanes) return scalar::gather_sum(w, idx, n);
  const std::size_t main = n - n % kLanes;
  // The masked gather variant: GCC's unmasked _mm256_i32gather_pd
  // passes _mm256_undefined_pd() as the source and warns.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m128i lanes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    acc = _mm256_add_pd(
        acc, _mm256_mask_i32gather_pd(_mm256_setzero_pd(), w, lanes, all, 8));
  }
  return reduce4(acc) + scalar::gather_sum(w, idx + main, n - main);
}

double trapezoid(const double* t, const double* y, std::size_t n) {
  if (n < 2) return 0.0;
  const std::size_t intervals = n - 1;
  const std::size_t main = intervals - intervals % kLanes;
  const __m256d half = _mm256_set1_pd(0.5);
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m256d dt =
        _mm256_sub_pd(_mm256_loadu_pd(t + i + 1), _mm256_loadu_pd(t + i));
    const __m256d ys =
        _mm256_add_pd(_mm256_loadu_pd(y + i + 1), _mm256_loadu_pd(y + i));
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(_mm256_mul_pd(half, dt), ys));
  }
  return reduce4(acc) +
         scalar::trapezoid(t + main, y + main, n - main);
}

void knot4(const double* s, const double* i, const double* psi,
           const double* phi, std::size_t n, double out[4]) {
  const std::size_t main = n - n % kLanes;
  __m256d psi_s = _mm256_setzero_pd(), s2 = _mm256_setzero_pd();
  __m256d phi_i = _mm256_setzero_pd(), i2 = _mm256_setzero_pd();
  for (std::size_t j = 0; j < main; j += kLanes) {
    const __m256d sv = _mm256_loadu_pd(s + j);
    const __m256d iv = _mm256_loadu_pd(i + j);
    psi_s = _mm256_add_pd(psi_s,
                          _mm256_mul_pd(_mm256_loadu_pd(psi + j), sv));
    s2 = _mm256_add_pd(s2, _mm256_mul_pd(sv, sv));
    phi_i = _mm256_add_pd(phi_i,
                          _mm256_mul_pd(_mm256_loadu_pd(phi + j), iv));
    i2 = _mm256_add_pd(i2, _mm256_mul_pd(iv, iv));
  }
  double tail[4];
  scalar::knot4(s + main, i + main, psi + main, phi + main, n - main, tail);
  out[0] = reduce4(psi_s) + tail[0];
  out[1] = reduce4(s2) + tail[1];
  out[2] = reduce4(phi_i) + tail[2];
  out[3] = reduce4(i2) + tail[3];
}

double sir_rhs(const double* s, const double* i, const double* lambda,
               const double* phi, std::size_t n, double mean_k, double alpha,
               double e1, double e2, double* ds, double* di) {
  const double theta = dot(phi, i, n) / mean_k;
  const std::size_t main = n - n % kLanes;
  const __m256d th = _mm256_set1_pd(theta);
  const __m256d al = _mm256_set1_pd(alpha);
  const __m256d e1v = _mm256_set1_pd(e1);
  const __m256d e2v = _mm256_set1_pd(e2);
  for (std::size_t j = 0; j < main; j += kLanes) {
    const __m256d sv = _mm256_loadu_pd(s + j);
    const __m256d iv = _mm256_loadu_pd(i + j);
    const __m256d infection =
        _mm256_mul_pd(_mm256_mul_pd(_mm256_loadu_pd(lambda + j), sv), th);
    _mm256_storeu_pd(
        ds + j, _mm256_sub_pd(_mm256_sub_pd(al, infection),
                              _mm256_mul_pd(e1v, sv)));
    _mm256_storeu_pd(di + j,
                     _mm256_sub_pd(infection, _mm256_mul_pd(e2v, iv)));
  }
  scalar::sir_rhs_body(s, i, lambda, main, n, alpha, e1, e2, theta, ds, di);
  return theta;
}

void costate_rhs(const double* s, const double* i, const double* psi,
                 const double* phic, const double* lambda,
                 const double* phi_over_k, std::size_t n, double c1e1,
                 double c2e2, double e1, double e2, double theta,
                 bool diagonal, double* dpsi, double* dphi) {
  double coupling = 0.0;
  const std::size_t main = n - n % kLanes;
  if (!diagonal) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < main; j += kLanes) {
      const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(psi + j),
                                         _mm256_loadu_pd(phic + j));
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(
                   _mm256_mul_pd(diff, _mm256_loadu_pd(lambda + j)),
                   _mm256_loadu_pd(s + j)));
    }
    coupling = reduce4(acc);
    for (std::size_t j = main; j < n; ++j) {
      coupling += (psi[j] - phic[j]) * lambda[j] * s[j];
    }
  }
  const __m256d thv = _mm256_set1_pd(theta);
  const __m256d e1v = _mm256_set1_pd(e1);
  const __m256d e2v = _mm256_set1_pd(e2);
  const __m256d c1v = _mm256_set1_pd(c1e1);
  const __m256d c2v = _mm256_set1_pd(c2e2);
  const __m256d cpl = _mm256_set1_pd(coupling);
  for (std::size_t j = 0; j < main; j += kLanes) {
    const __m256d sv = _mm256_loadu_pd(s + j);
    const __m256d iv = _mm256_loadu_pd(i + j);
    const __m256d psiv = _mm256_loadu_pd(psi + j);
    const __m256d phv = _mm256_loadu_pd(phic + j);
    const __m256d lv = _mm256_loadu_pd(lambda + j);
    const __m256d dpsi_dt = _mm256_sub_pd(
        _mm256_add_pd(
            _mm256_mul_pd(c1v, sv),
            _mm256_mul_pd(psiv,
                          _mm256_add_pd(_mm256_mul_pd(lv, thv), e1v))),
        _mm256_mul_pd(_mm256_mul_pd(phv, lv), thv));
    const __m256d group_coupling =
        diagonal ? _mm256_mul_pd(
                       _mm256_mul_pd(_mm256_sub_pd(psiv, phv), lv), sv)
                 : cpl;
    const __m256d dphi_dt = _mm256_add_pd(
        _mm256_add_pd(
            _mm256_mul_pd(c2v, iv),
            _mm256_mul_pd(_mm256_loadu_pd(phi_over_k + j), group_coupling)),
        _mm256_mul_pd(phv, e2v));
    _mm256_storeu_pd(dpsi + j, negate(dpsi_dt));
    _mm256_storeu_pd(dphi + j, negate(dphi_dt));
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

/// Partition `scratch` into ten 64-byte-aligned stage-buffer halves of
/// `pad` doubles each (pad = n rounded up to a lane multiple). The
/// split-half layout is the point of the fused kernels: with S and I
/// halves padded separately, every vector load of a stage buffer reads
/// exactly the bytes one vector store just wrote, so store-to-load
/// forwarding succeeds. The contiguous [S, I] layout puts the I half at
/// an odd lane offset, and the resulting forwarding stalls cost more
/// than the arithmetic at the n≈10 sizes the control solves run at.
inline double* fused_base(double* scratch) {
  return reinterpret_cast<double*>(
      (reinterpret_cast<std::uintptr_t>(scratch) + 63) &
      ~static_cast<std::uintptr_t>(63));
}

/// Whole RK4 step fused into one dispatch: the four stage RHS
/// evaluations and combines below are direct calls inside this TU, so
/// the compiler inlines them, and the stage buffers use the split-half
/// layout described at fused_base(). Per-element arithmetic is exactly
/// the unfused kernel sequence (the elementwise kernels are ranged, so
/// running each half separately is the same IEEE operation per entry).
void sir_rk4_step(const double* y, std::size_t n, double mean_k, double alpha,
                  const double* e1, const double* e2, const double* lambda,
                  const double* phi, double h, double* y_next,
                  double* scratch) {
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
  const __m256d wv = _mm256_set1_pd(w);
  const __m256d uv = _mm256_set1_pd(1.0 - w);
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm256_storeu_pd(
        out + i,
        _mm256_add_pd(_mm256_mul_pd(uv, _mm256_loadu_pd(a + i)),
                      _mm256_mul_pd(wv, _mm256_loadu_pd(b + i))));
  }
  scalar::lerp(a, b, w, out, main, n);
}

void axpy_out(const double* y, const double* k, double a, double* out,
              std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m256d av = _mm256_set1_pd(a);
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm256_storeu_pd(
        out + i,
        _mm256_add_pd(_mm256_loadu_pd(y + i),
                      _mm256_mul_pd(av, _mm256_loadu_pd(k + i))));
  }
  scalar::axpy_out(y, k, a, out, main, n);
}

void combine2(const double* y, const double* k1, const double* k2, double a,
              double* out, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m256d av = _mm256_set1_pd(a);
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m256d ks =
        _mm256_add_pd(_mm256_loadu_pd(k1 + i), _mm256_loadu_pd(k2 + i));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                                            _mm256_mul_pd(av, ks)));
  }
  scalar::combine2(y, k1, k2, a, out, main, n);
}

void rk4_combine(const double* y, const double* k1, const double* k2,
                 const double* k3, const double* k4, double h6, double* out,
                 std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m256d h6v = _mm256_set1_pd(h6);
  const __m256d two = _mm256_set1_pd(2.0);
  for (std::size_t i = 0; i < main; i += kLanes) {
    // Same association as the scalar body:
    // ((k1 + 2 k2) + 2 k3) + k4.
    __m256d t = _mm256_add_pd(
        _mm256_loadu_pd(k1 + i),
        _mm256_mul_pd(two, _mm256_loadu_pd(k2 + i)));
    t = _mm256_add_pd(t, _mm256_mul_pd(two, _mm256_loadu_pd(k3 + i)));
    t = _mm256_add_pd(t, _mm256_loadu_pd(k4 + i));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                                            _mm256_mul_pd(h6v, t)));
  }
  scalar::rk4_combine(y, k1, k2, k3, k4, h6, out, main, n);
}

void accumulate(const double* x, double* acc, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                            _mm256_loadu_pd(x + i)));
  }
  scalar::accumulate(x, acc, main, n);
}

void accumulate_sq(const double* x, double* acc, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                            _mm256_mul_pd(xv, xv)));
  }
  scalar::accumulate_sq(x, acc, main, n);
}

/// Per-64-bit-lane byte-sum popcount of 4 words via the SSSE3 nibble
/// lookup, widened to 256 bits.
inline __m256i popcount_epi64(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

void census2(const std::uint64_t* words, std::size_t nnodes,
             std::uint64_t out[2]) {
  const std::size_t full = nnodes / scalar::kNodesPerWord;
  const std::size_t vec_words = full - full % kLanes;
  const __m256i even = _mm256_set1_epi64x(
      static_cast<long long>(scalar::kEvenBits));
  __m256i infected = _mm256_setzero_si256();
  __m256i recovered = _mm256_setzero_si256();
  for (std::size_t w = 0; w < vec_words; w += kLanes) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    infected = _mm256_add_epi64(infected,
                                popcount_epi64(_mm256_and_si256(v, even)));
    recovered = _mm256_add_epi64(
        recovered, popcount_epi64(_mm256_andnot_si256(even, v)));
  }
  alignas(32) std::uint64_t lanes[kLanes];
  std::uint64_t tail[2];
  scalar::census2(words + vec_words, nnodes - vec_words * 32, tail);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), infected);
  out[0] = tail[0] + lanes[0] + lanes[1] + lanes[2] + lanes[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), recovered);
  out[1] = tail[1] + lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// 64-bit lane multiply by a constant from 32-bit products (AVX2 has
/// no vpmullq): lo·lo + ((hi·lo + lo·hi) << 32), mod 2^64.
inline __m256i mullo64(__m256i a, std::uint64_t b) {
  const __m256i b_lo =
      _mm256_set1_epi64x(static_cast<long long>(b & 0xFFFFFFFFULL));
  const __m256i b_hi = _mm256_set1_epi64x(static_cast<long long>(b >> 32));
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b_lo),
                       _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b_lo),
                          _mm256_slli_epi64(cross, 32));
}

/// splitmix64's output mix, 4 lanes.
inline __m256i mix64(__m256i z) {
  z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
              0xBF58476D1CE4E5B9ULL);
  z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
              0x94D049BB133111EBULL);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// 4-bit mask of lanes with m < t. Both sides are below 2^63 (m has 53
/// bits, a threshold at most 2^53), so the signed compare is exact.
inline std::uint64_t below_mask(__m256i m, __m256i t) {
  return static_cast<std::uint64_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(t, m))));
}

void sweep_draws(const std::uint64_t* words, const std::uint32_t* counts,
                 std::size_t lo, std::size_t hi, std::uint64_t step_key,
                 std::uint64_t t_immunize, std::uint64_t t_block,
                 std::uint64_t* recover, std::uint64_t* exposed) {
  const __m256i golden = _mm256_set1_epi64x(0x9E3779B97F4A7C15LL);
  const __m256i key = _mm256_set1_epi64x(static_cast<long long>(step_key));
  const __m256i t_imm =
      _mm256_set1_epi64x(static_cast<long long>(t_immunize));
  const __m256i t_blk = _mm256_set1_epi64x(static_cast<long long>(t_block));
  const __m256i iota = _mm256_setr_epi64x(0, 1, 2, 3);
  scalar::sweep_draws_by_word(
      words, counts, lo, hi, step_key, t_immunize, t_block, recover, exposed,
      [&](std::size_t base) {
        scalar::DrawMasks64 d{0, 0, 0};
        for (std::size_t g = 0; g < 64; g += kLanes) {
          const __m256i v = _mm256_add_epi64(
              _mm256_set1_epi64x(static_cast<long long>(base + g)), iota);
          // CounterRng(hash_mix(step_key, v)).next() >> 11, where
          // hash_mix(a, b) = splitmix64(a ^ (splitmix64(b) + golden)).
          const __m256i hashed = mix64(_mm256_add_epi64(v, golden));
          const __m256i stream = mix64(_mm256_add_epi64(
              _mm256_xor_si256(key, _mm256_add_epi64(hashed, golden)),
              golden));
          const __m256i m = _mm256_srli_epi64(
              mix64(_mm256_add_epi64(stream, golden)), 11);
          d.below_immunize |= below_mask(m, t_imm) << g;
          d.below_block |= below_mask(m, t_blk) << g;
        }
        for (std::size_t q = 0; q < 64; q += 8) {
          const __m256i c = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(counts + base + q));
          const auto zero = static_cast<std::uint64_t>(_mm256_movemask_ps(
              _mm256_castsi256_ps(
                  _mm256_cmpeq_epi32(c, _mm256_setzero_si256()))));
          d.has_source |= (~zero & 0xFFULL) << q;
        }
        return d;
      });
}

// --- batched lane-per-problem kernels -------------------------------
// Vectorization is across problems: each __m256d holds the same
// component of 4 adjacent lanes, and the component loop runs
// sequentially, so every lane accumulates in the scalar left-to-right
// order — bit-identical to the scalar backend (kern.hpp policy). Every
// lane count runs in the vector loop: the last vector of a ragged batch
// (lanes % 4 != 0) is masked, and its masked-off lanes are neither read
// nor written.

/// Runs body(l, load, store) for the vector of lanes [l, l + 4), for
/// every l: plain loads and stores while a full vector remains, masked
/// ones on the ragged tail. Choosing the accessors once per vector keeps
/// the component loops in `body` branch-free, and full vectors off
/// vmaskmovpd, which costs extra uops even with every lane active.
/// Always inlined: called out of line, `body` reloads every captured
/// pointer from the closure after each store (a store might alias it),
/// which doubled the cost of a batched RK4 step.
template <class Body>
[[gnu::always_inline]] inline void for_each_vector(std::size_t lanes,
                                                   Body&& body) {
  for (std::size_t l = 0; l < lanes; l += kLanes) {
    if (lanes - l >= kLanes) {
      body(l, [](const double* p) { return _mm256_loadu_pd(p); },
           [](double* p, __m256d v) { _mm256_storeu_pd(p, v); });
    } else {
      // Sign bit set in the low lanes − l (active) lanes.
      const __m256i m = _mm256_cmpgt_epi64(
          _mm256_set1_epi64x(static_cast<long long>(lanes - l)),
          _mm256_setr_epi64x(0, 1, 2, 3));
      body(l, [m](const double* p) { return _mm256_maskload_pd(p, m); },
           [m](double* p, __m256d v) { _mm256_maskstore_pd(p, m, v); });
    }
  }
}

void batch_dot(const double* a, const double* b, std::size_t n,
               std::size_t lanes, double* out) {
  for_each_vector(lanes, [&](std::size_t l, auto load, auto store) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(load(a + j * lanes + l),
                                             load(b + j * lanes + l)));
    }
    store(out + l, acc);
  });
}

void batch_trapezoid(const double* t, const double* y, std::size_t n,
                     std::size_t lanes, double* out) {
  for_each_vector(lanes, [&](std::size_t l, auto load, auto store) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 1; i < n; ++i) {
      const double dt = t[i] - t[i - 1];
      const __m256d ys = _mm256_add_pd(load(y + i * lanes + l),
                                       load(y + (i - 1) * lanes + l));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(0.5 * dt), ys));
    }
    store(out + l, acc);
  });
}

void batch_knot4(const double* s, const double* i, const double* psi,
                 const double* phi, std::size_t n, std::size_t lanes,
                 double* out) {
  for_each_vector(lanes, [&](std::size_t l, auto load, auto store) {
    __m256d psi_s = _mm256_setzero_pd(), s2 = _mm256_setzero_pd();
    __m256d phi_i = _mm256_setzero_pd(), i2 = _mm256_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      const __m256d sv = load(s + j * lanes + l);
      const __m256d iv = load(i + j * lanes + l);
      psi_s = _mm256_add_pd(psi_s,
                            _mm256_mul_pd(load(psi + j * lanes + l), sv));
      s2 = _mm256_add_pd(s2, _mm256_mul_pd(sv, sv));
      phi_i = _mm256_add_pd(phi_i,
                            _mm256_mul_pd(load(phi + j * lanes + l), iv));
      i2 = _mm256_add_pd(i2, _mm256_mul_pd(iv, iv));
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
  const __m256d mk = _mm256_set1_pd(mean_k);
  for_each_vector(lanes, [&](std::size_t l, auto load, auto store) {
    __m256d th = _mm256_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      th = _mm256_add_pd(th, _mm256_mul_pd(load(phi + j * lanes + l),
                                           load(i + j * lanes + l)));
    }
    th = _mm256_div_pd(th, mk);
    const __m256d al = load(alpha + l);
    const __m256d e1v = load(e1 + l);
    const __m256d e2v = load(e2 + l);
    for (std::size_t j = 0; j < n; ++j) {
      const __m256d sv = load(s + j * lanes + l);
      const __m256d iv = load(i + j * lanes + l);
      const __m256d infection = _mm256_mul_pd(
          _mm256_mul_pd(load(lambda + j * lanes + l), sv), th);
      store(ds + j * lanes + l,
            _mm256_sub_pd(_mm256_sub_pd(al, infection),
                          _mm256_mul_pd(e1v, sv)));
      store(di + j * lanes + l,
            _mm256_sub_pd(infection, _mm256_mul_pd(e2v, iv)));
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
    __m256d cpl = _mm256_setzero_pd();
    if (!diagonal) {
      for (std::size_t j = 0; j < n; ++j) {
        const __m256d diff = _mm256_sub_pd(load(psi + j * lanes + l),
                                           load(phic + j * lanes + l));
        cpl = _mm256_add_pd(
            cpl, _mm256_mul_pd(
                     _mm256_mul_pd(diff, load(lambda + j * lanes + l)),
                     load(s + j * lanes + l)));
      }
    }
    const __m256d thv = load(theta + l);
    const __m256d e1v = load(e1 + l);
    const __m256d e2v = load(e2 + l);
    const __m256d c1v = load(c1e1 + l);
    const __m256d c2v = load(c2e2 + l);
    for (std::size_t j = 0; j < n; ++j) {
      const __m256d sv = load(s + j * lanes + l);
      const __m256d iv = load(i + j * lanes + l);
      const __m256d psiv = load(psi + j * lanes + l);
      const __m256d phv = load(phic + j * lanes + l);
      const __m256d lv = load(lambda + j * lanes + l);
      const __m256d dpsi_dt = _mm256_sub_pd(
          _mm256_add_pd(
              _mm256_mul_pd(c1v, sv),
              _mm256_mul_pd(psiv,
                            _mm256_add_pd(_mm256_mul_pd(lv, thv), e1v))),
          _mm256_mul_pd(_mm256_mul_pd(phv, lv), thv));
      const __m256d group_coupling =
          diagonal ? _mm256_mul_pd(
                         _mm256_mul_pd(_mm256_sub_pd(psiv, phv), lv), sv)
                   : cpl;
      const __m256d dphi_dt = _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(c2v, iv),
                        _mm256_mul_pd(load(phi_over_k + j * lanes + l),
                                      group_coupling)),
          _mm256_mul_pd(phv, e2v));
      store(dpsi + j * lanes + l, negate(dpsi_dt));
      store(dphi + j * lanes + l, negate(dphi_dt));
    }
  });
}

/// Batched fused RK4 step: the stage RHS calls are the TU-local batched
/// kernels above and the stage combines are the TU-local elementwise
/// kernels over the flattened 2n·lanes arrays — per element the exact
/// scalar operation sequence, so the whole step is bit-identical to the
/// batchref reference. No per-half padding: the lane-interleaved layout
/// is already contiguous per vector access.
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

const Ops& avx2_ops() {
  static constexpr Ops table = {
      Backend::kAvx2,
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
