// Backend resolution: compiled-in tables × CPUID × the RUMOR_KERNEL
// override, collapsed into one process-wide choice on first use.
// Compiled WITHOUT any ISA flags so it is safe to run on any CPU.
#include <cstdlib>
#include <sstream>

#include "kern/kern.hpp"
#include "kern/tables.hpp"
#include "util/error.hpp"

namespace rumor::kern {

namespace {

constexpr Backend kAll[] = {Backend::kScalar, Backend::kAvx2,
                            Backend::kAvx512};

#if defined(__x86_64__) || defined(_M_X64)
bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
}
#else
bool cpu_has_avx2() { return false; }
bool cpu_has_avx512() { return false; }
#endif

std::string valid_tokens() {
  std::string out;
  for (Backend b : kAll) {
    if (!out.empty()) out += "|";
    out += to_string(b);
  }
  return out;
}

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "?";
}

bool compiled(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#ifdef RUMOR_KERN_HAVE_AVX2
      return true;
#else
      return false;
#endif
    case Backend::kAvx512:
#ifdef RUMOR_KERN_HAVE_AVX512
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool cpu_supports(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return cpu_has_avx2();
    case Backend::kAvx512:
      return cpu_has_avx512();
  }
  return false;
}

const Ops& ops(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return scalar_ops();
    case Backend::kAvx2:
#ifdef RUMOR_KERN_HAVE_AVX2
      return avx2_ops();
#else
      break;
#endif
    case Backend::kAvx512:
#ifdef RUMOR_KERN_HAVE_AVX512
      return avx512_ops();
#else
      break;
#endif
  }
  std::ostringstream msg;
  msg << "kernel backend '" << to_string(backend)
      << "' is not compiled into this binary";
  throw util::InvalidArgument(msg.str());
}

Backend parse_backend(const std::string& name) {
  for (Backend b : kAll) {
    if (name == to_string(b)) return b;
  }
  std::ostringstream msg;
  msg << "unknown kernel backend '" << name << "' (RUMOR_KERNEL accepts "
      << valid_tokens() << ")";
  throw util::InvalidArgument(msg.str());
}

Backend resolve_backend(const char* override_token) {
  if (override_token != nullptr && override_token[0] != '\0') {
    const Backend forced = parse_backend(override_token);
    if (!compiled(forced)) {
      std::ostringstream msg;
      msg << "RUMOR_KERNEL=" << override_token
          << " requests a backend that is not compiled into this binary "
             "(valid here:";
      for (Backend b : kAll) {
        if (compiled(b)) msg << ' ' << to_string(b);
      }
      msg << ")";
      throw util::InvalidArgument(msg.str());
    }
    if (!cpu_supports(forced)) {
      std::ostringstream msg;
      msg << "RUMOR_KERNEL=" << override_token
          << " requests a backend this CPU cannot execute (CPU features: "
          << cpu_features() << ")";
      throw util::InvalidArgument(msg.str());
    }
    return forced;
  }
  if (compiled(Backend::kAvx512) && cpu_supports(Backend::kAvx512)) {
    return Backend::kAvx512;
  }
  if (compiled(Backend::kAvx2) && cpu_supports(Backend::kAvx2)) {
    return Backend::kAvx2;
  }
  return Backend::kScalar;
}

Backend backend() {
  static const Backend chosen = resolve_backend(std::getenv("RUMOR_KERNEL"));
  return chosen;
}

namespace detail {

const Ops& resolve_and_publish() {
  // The magic-static guard makes concurrent first calls race-free; the
  // release store lets every later ops() call skip this function. If
  // resolution throws (unusable RUMOR_KERNEL), nothing is published
  // and each subsequent call rethrows from here.
  static const Ops& table = ops(backend());
  g_resolved_ops.store(&table, std::memory_order_release);
  return table;
}

}  // namespace detail

std::size_t preferred_batch_lanes() {
  // 8 doubles fill one zmm on AVX-512 and two ymm on AVX2; the scalar
  // backend keeps the same count so batch shapes (and therefore
  // results, which are lane-count-invariant anyway) look identical
  // under RUMOR_KERNEL=scalar.
  return 8;
}

std::size_t padded_lanes(std::size_t count) {
  std::size_t width = 1;  // doubles per vector register
  switch (backend()) {
    case Backend::kScalar:
      break;
    case Backend::kAvx2:
      width = 4;
      break;
    case Backend::kAvx512:
      width = 8;
      break;
  }
  return (count + width - 1) / width * width;
}

std::string cpu_features() {
  std::string out;
#if defined(__x86_64__) || defined(_M_X64)
  // __builtin_cpu_supports requires a literal argument, hence the
  // macro rather than a loop over a table.
#define RUMOR_KERN_PROBE(feature)             \
  if (__builtin_cpu_supports(feature)) {      \
    if (!out.empty()) out += ' ';             \
    out += feature;                           \
  }
  RUMOR_KERN_PROBE("sse4.2")
  RUMOR_KERN_PROBE("avx")
  RUMOR_KERN_PROBE("avx2")
  RUMOR_KERN_PROBE("fma")
  RUMOR_KERN_PROBE("avx512f")
  RUMOR_KERN_PROBE("avx512dq")
  RUMOR_KERN_PROBE("avx512bw")
  RUMOR_KERN_PROBE("avx512vl")
#undef RUMOR_KERN_PROBE
#endif
  return out.empty() ? "(none)" : out;
}

}  // namespace rumor::kern
