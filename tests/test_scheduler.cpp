// The global shard scheduler's determinism contract (see DESIGN.md):
// every campaign's result - down to the last bit of every Welch t - is
// independent of the scheduler's thread count, the queue interleaving,
// and the order campaigns were submitted in, and equals a serial
// shard-by-shard ShardRunner loop that never touches a Scheduler. Plus
// scheduler property tests: priority order, oversubscription, zero-batch
// campaigns, failure isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuits/aes_sbox.hpp"
#include "circuits/arith.hpp"
#include "circuits/memctrl.hpp"
#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "engine/scheduler.hpp"
#include "masking/masking.hpp"
#include "serial_reference.hpp"
#include "techlib/techlib.hpp"
#include "tvla/tvla.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

/// The campaign mix every multi-campaign test uses: unequal batch counts
/// (the scheduler's reason to exist), a sequential design, a masked
/// composite (kRand reseeding), and a tiny straggler.
struct CampaignCase {
  netlist::Netlist design;
  tvla::TvlaConfig config;
};

std::vector<CampaignCase> campaign_mix() {
  std::vector<CampaignCase> cases;
  {
    CampaignCase c{circuits::make_aes_sbox_layer(1), {}};
    c.config.traces = 4096;
    c.config.seed = 7;
    cases.push_back(std::move(c));
  }
  {
    CampaignCase c{circuits::make_adder(8), {}};
    c.config.traces = 1024;
    c.config.seed = 3;
    cases.push_back(std::move(c));
  }
  {
    CampaignCase c{circuits::make_memctrl(4, 4), {}};  // sequential (DFFs)
    c.config.traces = 2048;
    c.config.cycles_per_batch = 8;
    c.config.seed = 11;
    cases.push_back(std::move(c));
  }
  {
    const auto base = circuits::make_adder(8);
    std::vector<netlist::GateId> targets;
    for (netlist::GateId g = 0; g < base.gate_count(); ++g) {
      if (netlist::is_maskable(base.gate(g).type)) targets.push_back(g);
    }
    CampaignCase c{masking::apply_masking(base, targets).design, {}};
    c.config.traces = 1536;
    c.config.seed = 5;
    cases.push_back(std::move(c));
  }
  {
    CampaignCase c{circuits::make_adder(4), {}};  // straggler: 1 batch
    c.config.traces = 64;
    c.config.seed = 13;
    cases.push_back(std::move(c));
  }
  return cases;
}

void expect_reports_identical(const tvla::LeakageReport& a,
                              const tvla::LeakageReport& b) {
  ASSERT_EQ(a.t_values().size(), b.t_values().size());
  for (std::size_t g = 0; g < a.t_values().size(); ++g) {
    // Bit-identical, not just value-equal: a +0.0 that becomes -0.0 is a
    // real sign of float-op reordering, exactly what this harness exists
    // to catch (value comparison would let it through).
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t_values()[g]),
              std::bit_cast<std::uint64_t>(b.t_values()[g]))
        << "group " << g << ": " << a.t_values()[g] << " vs "
        << b.t_values()[g];
  }
}

// --- bit-identity vs a serial ShardRunner loop -------------------------------

TEST(Scheduler, MatchesPerCampaignPathAtEveryThreadCount) {
  const auto cases = campaign_mix();
  // A serial ShardRunner loop, outside any Scheduler, is the reference the
  // global queue must reproduce exactly.
  std::vector<tvla::LeakageReport> reference;
  for (const auto& c : cases) {
    reference.push_back(serial_reference(c.design, lib(), c.config));
  }

  for (const std::size_t threads : {1u, 2u, 8u, 16u}) {
    engine::Scheduler scheduler(threads);
    std::vector<std::future<tvla::LeakageReport>> pending;
    for (const auto& c : cases) {
      pending.push_back(tvla::submit(
          scheduler,
          std::make_shared<tvla::ShardRunner>(c.design, lib(), c.config)));
    }
    scheduler.drain();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      ASSERT_TRUE(pending[i].valid());
      expect_reports_identical(reference[i], pending[i].get());
    }
  }
}

TEST(Scheduler, IndependentOfSubmissionOrder) {
  const auto cases = campaign_mix();
  std::vector<tvla::LeakageReport> reference;
  for (const auto& c : cases) {
    reference.push_back(serial_reference(c.design, lib(), c.config));
  }

  // Several deterministic shuffles of the submission order, at a thread
  // count that forces interleaving. Futures map back by original index.
  std::vector<std::size_t> order(cases.size());
  std::iota(order.begin(), order.end(), 0);
  for (int shuffle = 0; shuffle < 4; ++shuffle) {
    engine::Scheduler scheduler(8);
    std::vector<std::future<tvla::LeakageReport>> pending(cases.size());
    for (const std::size_t i : order) {
      pending[i] = tvla::submit(
          scheduler, std::make_shared<tvla::ShardRunner>(
                         cases[i].design, lib(), cases[i].config));
    }
    scheduler.drain();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      expect_reports_identical(reference[i], pending[i].get());
    }
    std::next_permutation(order.begin(), order.end());
    std::rotate(order.begin(), order.begin() + 1, order.end());
  }
}

TEST(Scheduler, SingleCampaignDegenerateCase) {
  // One campaign in the queue == the per-campaign path, at any cap.
  const auto design = circuits::make_aes_sbox_layer(1);
  tvla::TvlaConfig config;
  config.traces = 2048;
  config.seed = 17;
  const auto reference = tvla::run(design, lib(), config);
  for (const std::size_t threads : {1u, 16u}) {
    engine::Scheduler scheduler(threads);
    auto pending = tvla::submit(
        scheduler, std::make_shared<tvla::ShardRunner>(design, lib(), config));
    scheduler.drain();
    expect_reports_identical(reference, pending.get());
  }
}

TEST(Scheduler, OversubscriptionManyMoreCampaignsThanThreads) {
  // 24 campaigns, 2 threads: every queue state from saturated to empty.
  const auto design = circuits::make_adder(6);
  engine::Scheduler scheduler(2);
  std::vector<std::future<tvla::LeakageReport>> pending;
  std::vector<tvla::LeakageReport> reference;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    tvla::TvlaConfig config;
    config.traces = 128 + 64 * (seed % 5);  // unequal batch counts
    config.seed = seed;
    reference.push_back(tvla::run(design, lib(), config));
    pending.push_back(tvla::submit(
        scheduler, std::make_shared<tvla::ShardRunner>(design, lib(), config)));
  }
  scheduler.drain();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    expect_reports_identical(reference[i], pending[i].get());
  }
}

// --- core flows through the scheduler ----------------------------------------

TEST(Scheduler, AuditDesignsMatchesPerDesignAudits) {
  core::PolarisConfig config;
  config.tvla.traces = 512;
  config.tvla.noise_std_fj = 1.0;
  config.seed = 4;
  config.tvla.seed = 4;
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::get_design("square", 0.4));
  designs.push_back(circuits::get_design("voter", 0.3));
  designs.push_back(circuits::get_design("multiplier", 0.3));

  const auto reports = core::audit_designs(designs, lib(), config);
  ASSERT_EQ(reports.size(), designs.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    expect_reports_identical(
        tvla::run(designs[i].netlist, lib(),
                  core::tvla_config_for(config, designs[i])),
        reports[i]);
  }
}

TEST(Scheduler, TrainingDatasetIndependentOfThreadCount) {
  // Algorithm 1 through the global queue: the labelled dataset (sample
  // order included) must not depend on the scheduler fan-out.
  core::PolarisConfig config;
  config.mask_size = 25;
  config.locality = 3;
  config.iterations = 2;
  config.model_rounds = 10;
  config.tvla.traces = 256;
  config.tvla.noise_std_fj = 1.0;
  config.seed = 21;
  config.tvla.seed = 21;

  const auto training = circuits::training_suite();
  const std::span<const circuits::Design> designs(training.data(), 2);

  auto dataset_with_threads = [&](std::size_t threads) {
    auto cfg = config;
    cfg.threads = threads;
    core::Polaris polaris(cfg);
    (void)polaris.train(designs, lib());
    return polaris.training_data();
  };
  const auto serial = dataset_with_threads(1);
  const auto parallel = dataset_with_threads(8);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.feature_count(), parallel.feature_count());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.label(i), parallel.label(i)) << "sample " << i;
    for (std::size_t f = 0; f < serial.feature_count(); ++f) {
      EXPECT_EQ(serial.row(i)[f], parallel.row(i)[f])
          << "sample " << i << " feature " << f;
    }
  }
}

// --- scheduler property tests (synthetic campaigns) --------------------------

/// Synthetic state: xors a keyed function of every batch index, so any
/// missed, duplicated, or re-ordered *set* of batches changes the result,
/// while shard placement does not.
struct XorState {
  std::uint64_t value = 0;
};

std::uint64_t mix(std::uint64_t campaign, std::uint64_t batch) {
  return engine::stream_seed(campaign, batch, 0x70726f70ULL);
}

/// The run_shard callable of a synthetic campaign: a copy of `init` runs
/// every batch of the shard through `run_batch`, in ascending order.
template <class State, class RunBatch>
auto per_batch(std::size_t batches, State init, RunBatch run_batch) {
  return [plan = engine::ShardPlan::make(batches), init,
          run_batch](std::size_t shard) {
    State state = init;
    for (std::size_t b = plan.begin(shard); b < plan.end(shard); ++b) {
      run_batch(state, b);
    }
    return state;
  };
}

/// Shards not yet retired, summed over the progress table: before a drain
/// that is every queued shard of every submitted campaign.
std::size_t unfinished_shards(const engine::Scheduler& scheduler) {
  std::size_t count = 0;
  for (const auto& row : scheduler.progress()) {
    count += row.shards_total - row.shards_done;
  }
  return count;
}

TEST(Scheduler, SyntheticCampaignsSeeEveryBatchExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u, 16u}) {
    engine::Scheduler scheduler(threads);
    std::vector<std::future<std::uint64_t>> pending;
    const std::size_t kCampaigns = 40;  // oversubscribes every cap above
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      const std::size_t batches = 1 + (c * 7) % 97;
      pending.push_back(scheduler.submit<XorState>(
          batches, per_batch(batches, XorState{},
              [c](XorState& state, std::size_t batch) {
                state.value ^= mix(c, batch);
              }),
          [](XorState& into, XorState&& from) { into.value ^= from.value; },
          [](XorState&& total) { return total.value; }));
    }
    EXPECT_GT(unfinished_shards(scheduler), kCampaigns);  // shards, not jobs
    scheduler.drain();
    EXPECT_EQ(unfinished_shards(scheduler), 0u);
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      const std::size_t batches = 1 + (c * 7) % 97;
      std::uint64_t expected = 0;
      for (std::size_t b = 0; b < batches; ++b) expected ^= mix(c, b);
      EXPECT_EQ(pending[c].get(), expected) << "campaign " << c;
    }
  }
}

TEST(Scheduler, MergesInAscendingShardOrder) {
  // Order-sensitive merge (concatenation): the observed sequence must be
  // the batch order, whatever ran where.
  engine::Scheduler scheduler(8);
  auto pending = scheduler.submit<std::vector<std::uint64_t>>(
      200, per_batch(200, std::vector<std::uint64_t>{},
          [](std::vector<std::uint64_t>& state, std::size_t batch) {
            state.push_back(batch);
          }),
      [](std::vector<std::uint64_t>& into, std::vector<std::uint64_t>&& from) {
        into.insert(into.end(), from.begin(), from.end());
      },
      [](std::vector<std::uint64_t>&& total) { return total; });
  scheduler.drain();
  const auto sequence = pending.get();
  ASSERT_EQ(sequence.size(), 200u);
  for (std::size_t b = 0; b < sequence.size(); ++b) EXPECT_EQ(sequence[b], b);
}

TEST(Scheduler, ZeroBatchCampaignFinalizesImmediately) {
  engine::Scheduler scheduler(4);
  auto pending = scheduler.submit<XorState>(
      0, per_batch(0, XorState{123},
          [](XorState&, std::size_t) { FAIL() << "no batches to run"; }),
      [](XorState&, XorState&&) { FAIL() << "nothing to merge"; },
      [](XorState&& total) { return total.value; });
  // Ready before any drain: finalize(run_shard(0)) of the empty plan.
  EXPECT_EQ(unfinished_shards(scheduler), 0u);
  EXPECT_EQ(pending.get(), 123u);
}

TEST(Scheduler, FailedCampaignDoesNotPoisonOthers) {
  engine::Scheduler scheduler(4);
  auto doomed = scheduler.submit<XorState>(
      64, per_batch(64, XorState{},
          [](XorState&, std::size_t batch) {
            if (batch == 17) throw std::runtime_error("batch 17 exploded");
          }),
      [](XorState& into, XorState&& from) { into.value ^= from.value; },
      [](XorState&& total) { return total.value; });
  auto healthy = scheduler.submit<XorState>(
      64, per_batch(64, XorState{},
          [](XorState& state, std::size_t batch) { state.value += batch; }),
      [](XorState& into, XorState&& from) { into.value += from.value; },
      [](XorState&& total) { return total.value; });
  scheduler.drain();
  EXPECT_THROW((void)doomed.get(), std::runtime_error);
  EXPECT_EQ(healthy.get(), 64u * 63u / 2u);
}

TEST(Scheduler, HeavierCampaignsDrainFirstWhenSerial) {
  // LPT priority: with threads = 1 the pop order is fully deterministic,
  // so the first batch executed must belong to the heaviest campaign.
  engine::Scheduler scheduler(1);
  std::vector<std::uint64_t> first_batch_owner;
  auto record = [&first_batch_owner](std::uint64_t campaign) {
    if (first_batch_owner.empty() || first_batch_owner.back() != campaign) {
      first_batch_owner.push_back(campaign);
    }
  };
  auto light = scheduler.submit<XorState>(
      4, per_batch(4, XorState{},
          [&record](XorState&, std::size_t) { record(1); }),
      [](XorState&, XorState&&) {}, [](XorState&&) { return 0; });
  auto heavy = scheduler.submit<XorState>(
      64, per_batch(64, XorState{},
          [&record](XorState&, std::size_t) { record(2); }),
      [](XorState&, XorState&&) {}, [](XorState&&) { return 0; });
  scheduler.drain();
  (void)light.get();
  (void)heavy.get();
  ASSERT_FALSE(first_batch_owner.empty());
  EXPECT_EQ(first_batch_owner.front(), 2u);  // heavy went first despite order
}

TEST(Scheduler, ProgressTableTracksCampaignsMonotonically) {
  // progress() is the live-status window the serve daemon exposes: rows in
  // submission order, shards_done monotonic, queue_position = LPT drain
  // rank, rows vanish exactly when campaigns finalize.
  engine::Scheduler scheduler(1);  // serial: deterministic claim order
  EXPECT_TRUE(scheduler.progress().empty());

  // Observed from INSIDE running batches (documented safe: run_shard holds
  // no scheduler lock): every alpha progress row seen mid-drain.
  std::vector<std::uint64_t> alpha_done;
  auto observe = [&scheduler, &alpha_done] {
    for (const auto& row : scheduler.progress()) {
      if (row.label == "alpha") {
        EXPECT_FALSE(row.stopped);
        EXPECT_EQ(row.shards_total, 12u);  // ShardPlan::make(24)
        EXPECT_LE(row.shards_done, row.shards_total);
        alpha_done.push_back(row.shards_done);
      }
    }
  };
  auto alpha = scheduler.submit<XorState>(
      24, per_batch(24, XorState{},
          [&observe](XorState&, std::size_t) { observe(); }),
      [](XorState&, XorState&&) {}, [](XorState&&) { return 0; },
      /*weight=*/24, "alpha");
  auto beta = scheduler.submit<XorState>(
      96, per_batch(96, XorState{},
          [](XorState&, std::size_t) {}),
      [](XorState&, XorState&&) {}, [](XorState&&) { return 0; },
      /*weight=*/96, "beta");

  // Before the drain: both rows, submission order, nothing done, and LPT
  // ranks beta (heavier) ahead of alpha in the drain queue.
  const auto before = scheduler.progress();
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0].label, "alpha");
  EXPECT_EQ(before[1].label, "beta");
  EXPECT_EQ(before[0].shards_done, 0u);
  EXPECT_EQ(before[1].shards_done, 0u);
  EXPECT_EQ(before[0].shards_total, 12u);  // ShardPlan::make(24)
  EXPECT_EQ(before[1].shards_total, 24u);  // ShardPlan::make(96)
  EXPECT_EQ(before[1].queue_position, 0u);
  EXPECT_EQ(before[0].queue_position, 1u);
  EXPECT_EQ(before[0].sequence + 1, before[1].sequence);

  scheduler.drain();
  (void)alpha.get();
  (void)beta.get();

  // Every mid-drain observation: monotonic non-decreasing, never claiming
  // completion while a batch of the campaign was still running.
  ASSERT_FALSE(alpha_done.empty());
  EXPECT_TRUE(std::is_sorted(alpha_done.begin(), alpha_done.end()));
  EXPECT_LT(alpha_done.back(), 12u);
  // Finalized campaigns leave the table - a drained scheduler shows
  // nothing in flight.
  EXPECT_TRUE(scheduler.progress().empty());
}

TEST(Scheduler, ProgressAgesNeverWrapWhileCampaignsArrive) {
  // A poll that read its clock before taking the lock enqueue() stamps
  // under could see a campaign stamped after that clock: the negative age
  // wrapped to about 1.8e19 us. Poll for 200 ms while two threads keep
  // submitting (and draining, so the table stays small); the contended
  // lock is what delays a poll past a later stamp.
  engine::Scheduler scheduler(1);
  std::atomic<bool> polling{true};
  auto submit_loop = [&scheduler, &polling] {
    while (polling.load()) {
      std::vector<std::future<int>> pending;
      for (int i = 0; i < 256; ++i) {
        pending.push_back(scheduler.submit<XorState>(
            2, per_batch(2, XorState{}, [](XorState&, std::size_t) {}),
            [](XorState&, XorState&&) {}, [](XorState&&) { return 0; },
            /*weight=*/2, "arrival"));
      }
      scheduler.drain();
      for (auto& result : pending) (void)result.get();
    }
  };
  std::thread first(submit_loop);
  std::thread second(submit_loop);
  std::size_t rows = 0;
  std::uint64_t oldest_us = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < until) {
    for (const auto& row : scheduler.progress()) {
      ++rows;
      oldest_us = std::max(oldest_us, row.age_us);
    }
  }
  polling.store(false);
  first.join();
  second.join();
  EXPECT_GT(rows, 0u);
  EXPECT_LT(oldest_us, std::uint64_t{3'600'000'000});  // under one hour
}

}  // namespace
