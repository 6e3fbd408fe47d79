#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "circuits/memctrl.hpp"
#include "engine/thread_pool.hpp"
#include "engine/scheduler.hpp"
#include "masking/masking.hpp"
#include "serial_reference.hpp"
#include "tvla/moments.hpp"
#include "tvla/tvla.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  engine::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), 0,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  engine::ThreadPool pool(0);
  std::size_t sum = 0;  // no synchronization needed: must run on this thread
  pool.parallel_for(100, 0, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  auto& pool = engine::ThreadPool::shared();
  std::atomic<int> total{0};
  pool.parallel_for(8, 0, [&](std::size_t) {
    pool.parallel_for(8, 0, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, PropagatesExceptions) {
  engine::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(16, 0,
                                 [&](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(engine::ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(engine::ThreadPool::resolve_threads(5), 5u);
}

// --- ShardPlan / stream_seed -------------------------------------------------

TEST(ShardPlan, CoversBatchRangeContiguously) {
  for (const std::size_t batches : {0u, 1u, 3u, 4u, 5u, 64u, 128u, 1000u}) {
    const auto plan = engine::ShardPlan::make(batches);
    EXPECT_EQ(plan.total_batches, batches);
    if (batches == 0) {
      EXPECT_EQ(plan.shard_count, 0u);
      continue;
    }
    EXPECT_GE(plan.shard_count, 1u);
    EXPECT_LE(plan.shard_count, engine::kMaxShardsPerCampaign);
    std::size_t covered = 0;
    for (std::size_t s = 0; s < plan.shard_count; ++s) {
      EXPECT_EQ(plan.begin(s), covered);
      EXPECT_GT(plan.end(s), plan.begin(s));  // no empty shards
      covered = plan.end(s);
    }
    EXPECT_EQ(covered, batches);
  }
}

TEST(ShardPlan, ShortCampaignsStillShard) {
  // Sequential designs pack 64*cycles_per_batch samples per batch, so
  // realistic budgets are a handful of batches; the plan must not collapse
  // them to a serial single shard (threads knob would go inert).
  for (const std::size_t batches : {2u, 4u, 8u, 16u}) {
    EXPECT_EQ(engine::ShardPlan::make(batches).shard_count, batches);
  }
  EXPECT_GE(engine::ShardPlan::make(100).shard_count,
            engine::kMinShardsPerCampaign);
}

TEST(StreamSeed, DistinctPerIndexAndTag) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t index = 0; index < 1000; ++index) {
    for (const std::uint64_t tag : {1ULL, 2ULL, 3ULL}) {
      seen.insert(engine::stream_seed(42, index, tag));
    }
  }
  EXPECT_EQ(seen.size(), 3000u);
}

// --- Mergeable moments -------------------------------------------------------

TEST(CampaignMoments, ShardedMergeMatchesSinglePass) {
  // The ISSUE's acceptance bar: merged Welford accumulators must match the
  // single-pass statistics to 1e-12 on synthetic data, for several shard
  // counts (shards of unequal size included).
  util::Xoshiro256 rng(2024);
  std::vector<double> xs(4096);
  for (auto& x : xs) x = rng.gaussian() * 3.0 + 1.5;

  tvla::MomentAccumulator whole;
  for (const double x : xs) whole.add(x);

  for (const std::size_t shards : {2u, 3u, 8u, 64u}) {
    std::vector<tvla::MomentAccumulator> parts(shards);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      parts[(i * shards) / xs.size()].add(xs[i]);
    }
    tvla::MomentAccumulator merged = parts[0];
    for (std::size_t s = 1; s < shards; ++s) merged.merge(parts[s]);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(merged.variance_sample(), whole.variance_sample(), 1e-12);
  }
}

TEST(CampaignMoments, MergeCombinesAllCounters) {
  tvla::CampaignMoments a(3, 1), b(3, 1);
  a.add_lane_counts(10, 54);
  b.add_lane_counts(20, 44);
  a.add_single_ones(1, 4, 9);
  b.add_single_ones(1, 6, 1);
  a.add_multi_sample(0, true, 2.0);
  a.add_multi_sample(0, false, 1.0);
  b.add_multi_sample(0, true, 4.0);
  a.merge(b);
  EXPECT_EQ(a.n_fixed(), 30u);
  EXPECT_EQ(a.n_random(), 98u);
  EXPECT_EQ(a.single_ones_fixed(1), 10u);
  EXPECT_EQ(a.single_ones_random(1), 10u);
  EXPECT_EQ(a.multi_fixed(0).count(), 2u);
  EXPECT_DOUBLE_EQ(a.multi_fixed(0).mean(), 3.0);
  EXPECT_EQ(a.multi_random(0).count(), 1u);
}

// --- Campaign determinism across thread counts -------------------------------
// The reference is serial_reference, a serial ShardRunner loop
// that never touches a Scheduler; every thread count must reproduce it.

void expect_reports_identical(const tvla::LeakageReport& a,
                              const tvla::LeakageReport& b) {
  ASSERT_EQ(a.t_values().size(), b.t_values().size());
  for (std::size_t g = 0; g < a.t_values().size(); ++g) {
    // Bit-identical, not just close: the engine's determinism contract.
    EXPECT_EQ(a.t_values()[g], b.t_values()[g]) << "group " << g;
  }
}

TEST(Campaign, CombinationalReportIndependentOfThreadCount) {
  const auto nl = circuits::make_aes_sbox_layer(1);
  tvla::TvlaConfig config;
  config.traces = 4096;
  config.seed = 7;
  const auto serial = serial_reference(nl, lib(), config);
  for (const std::size_t threads : {1u, 2u, 8u, 0u}) {
    config.threads = threads;
    expect_reports_identical(serial,
                             tvla::run_fixed_vs_random(nl, lib(), config));
  }
}

TEST(Campaign, SequentialReportIndependentOfThreadCount) {
  const auto nl = circuits::make_memctrl(4, 4);
  tvla::TvlaConfig config;
  config.traces = 8192;
  config.cycles_per_batch = 8;
  config.seed = 11;
  const auto serial = serial_reference(nl, lib(), config);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    config.threads = threads;
    expect_reports_identical(serial,
                             tvla::run_fixed_vs_random(nl, lib(), config));
  }
}

TEST(Campaign, FixedVsFixedReportIndependentOfThreadCount) {
  // ShardRunner has no fixed-vs-fixed mode, so the serial scheduler run is
  // the reference here.
  const auto nl = circuits::make_adder(8);
  tvla::TvlaConfig config;
  config.traces = 2048;
  config.seed = 3;
  config.threads = 1;
  const auto serial = tvla::run_fixed_vs_fixed(nl, lib(), config);
  config.threads = 8;
  expect_reports_identical(serial, tvla::run_fixed_vs_fixed(nl, lib(), config));
}

TEST(Campaign, MaskedDesignReportIndependentOfThreadCount) {
  // Masked composites add kRand cells, exercising the per-batch mask-share
  // reseeding path.
  const auto nl = circuits::make_adder(8);
  std::vector<netlist::GateId> targets;
  for (netlist::GateId g = 0; g < nl.gate_count(); ++g) {
    if (netlist::is_maskable(nl.gate(g).type)) targets.push_back(g);
  }
  const auto masked = masking::apply_masking(nl, targets);
  tvla::TvlaConfig config;
  config.traces = 2048;
  const auto serial = serial_reference(masked.design, lib(), config);
  for (const std::size_t threads : {1u, 8u}) {
    config.threads = threads;
    expect_reports_identical(
        serial, tvla::run_fixed_vs_random(masked.design, lib(), config));
  }
}

}  // namespace
