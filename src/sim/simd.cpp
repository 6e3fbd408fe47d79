#include "sim/simd.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/compiled_kernels.hpp"

namespace polaris::sim {

namespace {

bool env_disables_simd() {
  const char* raw = std::getenv("POLARIS_SIMD");
  if (raw == nullptr) return false;
  std::string value(raw);
  for (char& c : value) c = static_cast<char>(std::tolower(c));
  return value == "off" || value == "0" || value == "portable" ||
         value == "none" || value == "false";
}

std::atomic<SimdMode>& mode_slot() {
  static std::atomic<SimdMode> mode{env_disables_simd() ? SimdMode::kPortable
                                                        : SimdMode::kAuto};
  return mode;
}

}  // namespace

bool avx2_supported() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

bool avx2_built() noexcept { return detail::avx2_built_impl(); }

SimdMode simd_mode() noexcept {
  return mode_slot().load(std::memory_order_relaxed);
}

void set_simd_mode(SimdMode mode) {
  if (mode == SimdMode::kAvx2 && !(avx2_supported() && avx2_built())) {
    throw std::runtime_error(
        "set_simd_mode: AVX2 unavailable on this CPU or build");
  }
  mode_slot().store(mode, std::memory_order_relaxed);
}

bool avx2_enabled() noexcept {
  switch (simd_mode()) {
    case SimdMode::kPortable: return false;
    case SimdMode::kAvx2: return true;
    case SimdMode::kAuto: return avx2_supported() && avx2_built();
  }
  return false;
}

bool simd_active(std::size_t lane_words) noexcept {
  if (lane_words != 4 && lane_words != 8) return false;  // sub-vector widths
  return avx2_enabled();
}

const char* simd_name(std::size_t lane_words) noexcept {
  return simd_active(lane_words) ? "avx2" : "portable";
}

std::size_t default_lane_words() noexcept {
  static const std::size_t words = [] {
    constexpr std::size_t kDefault = 4;
    const char* raw = std::getenv("POLARIS_SIM_WORDS");
    if (raw == nullptr || *raw == '\0') return kDefault;
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(raw, &end, 10);
    if (end == raw || parsed == 0) return kDefault;
    // Snap down to the nearest valid width.
    if (parsed >= 8) return std::size_t{8};
    if (parsed >= 4) return std::size_t{4};
    if (parsed >= 2) return std::size_t{2};
    return std::size_t{1};
  }();
  return words;
}

namespace detail {

EvalFn resolve_eval_fn(std::size_t lane_words, bool record_toggles) noexcept {
  if (simd_active(lane_words)) {
    const EvalFn fn = avx2_kernel(lane_words, record_toggles);
    if (fn != nullptr) return fn;
  }
  return portable_kernel(lane_words, record_toggles);
}

}  // namespace detail

}  // namespace polaris::sim
