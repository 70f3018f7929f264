// The scalar backend: thin wrappers over the reference bodies in
// scalar_impl.hpp and batch_impl.hpp. This table is the portability
// floor (every build carries it) and the bit-compatibility reference
// every SIMD backend is tested against.
#include "kern/batch_impl.hpp"
#include "kern/kern.hpp"
#include "kern/scalar_impl.hpp"

namespace rumor::kern {

namespace {

void lerp(const double* a, const double* b, double w, double* out,
          std::size_t n) {
  scalar::lerp(a, b, w, out, 0, n);
}

void axpy_out(const double* y, const double* k, double a, double* out,
              std::size_t n) {
  scalar::axpy_out(y, k, a, out, 0, n);
}

void combine2(const double* y, const double* k1, const double* k2, double a,
              double* out, std::size_t n) {
  scalar::combine2(y, k1, k2, a, out, 0, n);
}

void rk4_combine(const double* y, const double* k1, const double* k2,
                 const double* k3, const double* k4, double h6, double* out,
                 std::size_t n) {
  scalar::rk4_combine(y, k1, k2, k3, k4, h6, out, 0, n);
}

void accumulate(const double* x, double* acc, std::size_t n) {
  scalar::accumulate(x, acc, 0, n);
}

void accumulate_sq(const double* x, double* acc, std::size_t n) {
  scalar::accumulate_sq(x, acc, 0, n);
}

}  // namespace

const Ops& scalar_ops() {
  static constexpr Ops table = {
      Backend::kScalar,
      scalar::dot,
      scalar::sum,
      scalar::gather_sum,
      scalar::trapezoid,
      scalar::knot4,
      scalar::sir_rhs,
      scalar::costate_rhs,
      scalar::sir_rk4_step,
      scalar::costate_rk4_step,
      lerp,
      axpy_out,
      combine2,
      rk4_combine,
      accumulate,
      accumulate_sq,
      scalar::census2,
      scalar::sweep_draws,
      scalar::varint_decode_deltas,
      batchref::dot,
      batchref::trapezoid,
      batchref::knot4,
      batchref::sir_rhs,
      batchref::costate_rhs,
      batchref::sir_rk4_step,
      batchref::costate_rk4_step,
  };
  return table;
}

}  // namespace rumor::kern
