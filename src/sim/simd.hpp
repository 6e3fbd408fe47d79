// Runtime SIMD dispatch control for the compiled simulation kernel.
//
// The kernel (compiled.hpp) evaluates K-word *lane blocks*: every value
// slot owns K contiguous 64-bit words, so one op processes 64*K traces.
// Two implementations of the same width-generic kernel template exist:
//  * a portable unrolled-uint64 path, always available, for every valid
//    width (1/2/4/8 words);
//  * an AVX2 path (__m256i, one vector per 4 words) compiled in its own
//    -mavx2 translation unit, eligible for widths that fill whole 256-bit
//    vectors (4 and 8 words).
// Which one runs is decided here, once per eval dispatch:
//  * kAuto (the default): AVX2 whenever the CPU reports it (CPUID via
//    __builtin_cpu_supports) and the build contains the AVX2 unit;
//  * POLARIS_SIMD=off|0|portable|none in the environment flips the
//    process default to kPortable (the CI portable-fallback leg);
//  * set_simd_mode() overrides both - the property tests force kPortable
//    and kAvx2 in turn and assert bit-identical words.
// The same mode also selects the power readout's AVX2 lane scatter
// (power/lane_scatter.hpp), so POLARIS_SIMD=off turns every AVX2 path off.
// Sub-vector widths (1 and 2 words) always take the portable path;
// simd_name() reports the path a given width would actually use.
#pragma once

#include <cstddef>

namespace polaris::sim {

/// Widest supported lane block: 8 words = 512 traces per pass.
inline constexpr std::size_t kMaxLaneWords = 8;

enum class SimdMode { kAuto, kPortable, kAvx2 };

/// Lane-block widths the kernel tables cover: 1, 2, 4, or 8 words.
[[nodiscard]] constexpr bool valid_lane_words(std::size_t words) noexcept {
  return words == 1 || words == 2 || words == 4 || words == 8;
}

/// CPU reports AVX2 (CPUID; cached). False on non-x86 builds.
[[nodiscard]] bool avx2_supported() noexcept;
/// The build contains the -mavx2 kernel translation unit.
[[nodiscard]] bool avx2_built() noexcept;

/// Current process-wide mode (initially kAuto, or kPortable when the
/// POLARIS_SIMD environment variable says off|0|portable|none|false).
[[nodiscard]] SimdMode simd_mode() noexcept;
/// Overrides the mode. Throws std::runtime_error for kAvx2 when the CPU or
/// the build lacks AVX2 (callers probe avx2_supported() && avx2_built()).
void set_simd_mode(SimdMode mode);

/// True when the current mode lets AVX2 code run at all: kAvx2, or kAuto on
/// a CPU and build that have it. Width-independent - the power readout's
/// lane scatter (power/lane_scatter.hpp) works per 64-lane word and keys on
/// this alone.
[[nodiscard]] bool avx2_enabled() noexcept;
/// True when a kernel dispatch at this width takes the AVX2 path under the
/// current mode: avx2_enabled() and a width that fills whole vectors.
[[nodiscard]] bool simd_active(std::size_t lane_words) noexcept;
/// "avx2" or "portable" - the path simd_active() resolves to. Bench probes
/// record this next to traces/sec.
[[nodiscard]] const char* simd_name(std::size_t lane_words) noexcept;

/// Default lane-block width for campaigns that leave lane_words = 0:
/// POLARIS_SIM_WORDS when set (snapped down to the nearest valid width),
/// otherwise 4 (256 traces per pass).
[[nodiscard]] std::size_t default_lane_words() noexcept;

}  // namespace polaris::sim
