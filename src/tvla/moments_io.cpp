#include "tvla/moments_io.hpp"

namespace polaris::tvla {

namespace {

// Order-2 layout: (count, mean, S2) per accumulator. The previous layout
// ("MOMS") also carried S3/S4; a distinct tag makes a coordinator and a
// worker from different builds fail loudly instead of misreading fields.
constexpr char kMomentsTag[] = "MOM2";

void write_accumulator(serialize::Writer& out, const MomentAccumulator& acc) {
  out.u64(acc.count());
  out.f64(acc.mean());
  out.f64(acc.sum2());
}

MomentAccumulator read_accumulator(serialize::Reader& in) {
  const std::uint64_t n = in.u64();
  const double mean = in.f64();
  const double s2 = in.f64();
  return MomentAccumulator::restore(static_cast<std::size_t>(n), mean, s2);
}

}  // namespace

void write_moments(serialize::Writer& out, const CampaignMoments& moments) {
  out.begin_chunk(kMomentsTag);
  out.u64(moments.n_fixed());
  out.u64(moments.n_random());
  out.u64(moments.group_count());
  for (std::size_t g = 0; g < moments.group_count(); ++g) {
    out.u64(moments.single_ones_fixed(g));
    out.u64(moments.single_ones_random(g));
  }
  out.u64(moments.multi_group_count());
  for (std::size_t i = 0; i < moments.multi_group_count(); ++i) {
    write_accumulator(out, moments.multi_fixed(i));
    write_accumulator(out, moments.multi_random(i));
  }
  out.end_chunk();
}

CampaignMoments read_moments(serialize::Reader& in) {
  in.enter_chunk(kMomentsTag);
  const std::uint64_t n_fixed = in.u64();
  const std::uint64_t n_random = in.u64();
  // A single group is exactly 16 payload bytes, a multi group two 24-byte
  // accumulators.
  const std::uint64_t groups = in.count(16, "moments group");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> singles;
  singles.reserve(groups);
  for (std::uint64_t g = 0; g < groups; ++g) {
    const std::uint64_t fixed = in.u64();
    const std::uint64_t random = in.u64();
    singles.emplace_back(fixed, random);
  }
  const std::uint64_t multis = in.count(48, "moments multi-group");
  CampaignMoments moments(static_cast<std::size_t>(groups),
                          static_cast<std::size_t>(multis));
  moments.add_lane_counts(n_fixed, n_random);
  for (std::uint64_t g = 0; g < groups; ++g) {
    moments.add_single_ones(static_cast<std::size_t>(g), singles[g].first,
                            singles[g].second);
  }
  for (std::uint64_t i = 0; i < multis; ++i) {
    MomentAccumulator fixed = read_accumulator(in);
    MomentAccumulator random = read_accumulator(in);
    moments.set_multi(static_cast<std::size_t>(i), fixed, random);
  }
  in.exit_chunk();
  return moments;
}

}  // namespace polaris::tvla
