// AVX2 lane scatter (lane_scatter.hpp). Like sim/compiled_avx2.cpp, this
// translation unit alone is built with -mavx2 and is only called after the
// runtime dispatch (sim::avx2_enabled()) has confirmed the CPU supports it.
// Without the flag it compiles to a stub that reports "not built".
#include "power/lane_scatter.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace polaris::power::detail {

namespace {

void lane_scatter_avx2(const MultiOp* ops, std::size_t count,
                       const std::uint64_t* toggle_words,
                       std::size_t lane_words, std::size_t active_words,
                       double* lane_sums) {
  constexpr std::size_t kLanesPerWord = 64;
  // Lane i of a 4-lane group is set when bit i of the group's nibble is.
  const __m256i first_nibble = _mm256_setr_epi64x(1, 2, 4, 8);
  for (const MultiOp* op = ops; op != ops + count; ++op) {
    const std::uint64_t* block =
        toggle_words + static_cast<std::size_t>(op->toggle_slot) * lane_words;
    double* sums =
        lane_sums + static_cast<std::size_t>(op->multi) * lane_words *
                        kLanesPerWord;
    const __m256d energy = _mm256_set1_pd(op->energy);
    for (std::size_t w = 0; w < active_words; ++w) {
      const std::uint64_t bits = block[w];
      if (bits == 0) continue;
      double* lane_sum = sums + w * kLanesPerWord;
      const __m256i broadcast =
          _mm256_set1_epi64x(static_cast<long long>(bits));
      __m256i select = first_nibble;
      for (std::size_t lane = 0; lane < kLanesPerWord; lane += 4) {
        const __m256i set =
            _mm256_cmpeq_epi64(_mm256_and_si256(broadcast, select), select);
        const __m256d add = _mm256_and_pd(_mm256_castsi256_pd(set), energy);
        _mm256_storeu_pd(lane_sum + lane,
                         _mm256_add_pd(_mm256_loadu_pd(lane_sum + lane), add));
        select = _mm256_slli_epi64(select, 4);
      }
    }
  }
}

}  // namespace

LaneScatterFn avx2_lane_scatter() noexcept { return &lane_scatter_avx2; }

}  // namespace polaris::power::detail

#else  // !defined(__AVX2__)

namespace polaris::power::detail {

LaneScatterFn avx2_lane_scatter() noexcept { return nullptr; }

}  // namespace polaris::power::detail

#endif
