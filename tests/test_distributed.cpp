// Distributed shard execution end to end: the moments/design/shard wire
// codecs must round-trip bit-exactly, and a WorkerPool audit over real TCP
// workers must produce reports bit-identical to the single-host scheduler
// path at ANY worker count - zero, one, many, a dead endpoint in the list,
// or a worker killed mid-campaign (its unacknowledged shards requeue onto
// the surviving lanes).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuits/suite.hpp"
#include "core/polaris.hpp"
#include "netlist/netlist_io.hpp"
#include "obs/obs.hpp"
#include "server/client.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "server/remote.hpp"
#include "server/worker.hpp"
#include "techlib/techlib.hpp"
#include "tvla/moments_io.hpp"
#include "tvla/tvla.hpp"

namespace {

using namespace polaris;

const techlib::TechLibrary& lib() {
  static const auto instance = techlib::TechLibrary::default_library();
  return instance;
}

core::PolarisConfig audit_config() {
  core::PolarisConfig config;
  config.tvla.traces = 512;
  config.tvla.noise_std_fj = 1.0;
  config.seed = 7;
  config.tvla.seed = 7;
  return config;
}

std::vector<circuits::Design> suite_designs() {
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("des3", 0.3));
  designs.push_back(circuits::load_design("square", 0.3));
  return designs;
}

void expect_reports_bit_identical(const tvla::LeakageReport& a,
                                  const tvla::LeakageReport& b) {
  ASSERT_EQ(a.t_values().size(), b.t_values().size());
  for (std::size_t g = 0; g < a.t_values().size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t_values()[g]),
              std::bit_cast<std::uint64_t>(b.t_values()[g]))
        << "group " << g;
  }
  EXPECT_EQ(a.threshold(), b.threshold());
  EXPECT_EQ(a.traces_used(), b.traces_used());
  EXPECT_EQ(a.early_stopped(), b.early_stopped());
}

/// An in-process worker fleet on ephemeral loopback ports, plus the
/// comma-separated endpoint list a coordinator consumes.
struct Fleet {
  std::vector<std::unique_ptr<server::Worker>> workers;
  std::string endpoints;

  explicit Fleet(std::size_t count, std::size_t threads = 1) {
    for (std::size_t i = 0; i < count; ++i) {
      server::WorkerOptions options;
      options.listen = "tcp:127.0.0.1:0";
      options.threads = threads;
      auto worker = std::make_unique<server::Worker>(options);
      worker->start();
      if (!endpoints.empty()) endpoints += ",";
      endpoints += server::net::to_string(worker->endpoint());
      workers.push_back(std::move(worker));
    }
  }
  ~Fleet() {
    for (auto& worker : workers) {
      worker->request_stop();
      worker->wait();
    }
  }
};

// --- wire codecs -------------------------------------------------------------

TEST(DistributedCodec, MomentsRoundTripBitExactly) {
  const auto design = circuits::load_design("voter", 0.3);
  const auto config = audit_config();
  tvla::ShardRunner runner(design.netlist, lib(),
                           core::tvla_config_for(config, design));
  ASSERT_GE(runner.shard_count(), 2u);
  const auto moments = runner.run_shard(1);

  serialize::Writer out;
  tvla::write_moments(out, moments);
  const auto bytes = out.finish();

  serialize::Reader in(bytes);
  const auto back = tvla::read_moments(in);

  // Re-encoding the decoded state must reproduce the archive byte for
  // byte - the accumulator survived the trip with every IEEE-754 bit
  // pattern intact, which is exactly what the coordinator's merge needs.
  serialize::Writer again;
  tvla::write_moments(again, back);
  EXPECT_EQ(bytes, again.finish());
}

/// Two single groups and two multi groups, every accumulator non-empty.
tvla::CampaignMoments multi_group_moments() {
  tvla::CampaignMoments moments(4, 2);
  moments.add_lane_counts(40, 24);
  moments.add_single_ones(0, 3, 5);
  moments.add_single_ones(3, 7, 1);
  for (int i = 0; i < 9; ++i) {
    moments.add_multi_sample(0, i % 2 == 0, 0.25 * i);
    moments.add_multi_sample(1, i % 3 == 0, 1.5 + i);
  }
  return moments;
}

TEST(DistributedCodec, MultiGroupMomentsRoundTripBitExactly) {
  // A payload that is mostly multi-group accumulators: the decoder's
  // size check must accept exactly two 24-byte accumulators per group.
  const auto moments = multi_group_moments();
  serialize::Writer out;
  tvla::write_moments(out, moments);
  const auto bytes = out.finish();

  serialize::Reader in(bytes);
  const auto back = tvla::read_moments(in);
  ASSERT_EQ(back.multi_group_count(), 2u);
  for (std::size_t m = 0; m < 2; ++m) {
    EXPECT_EQ(back.multi_fixed(m).count(), moments.multi_fixed(m).count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.multi_random(m).sum2()),
              std::bit_cast<std::uint64_t>(moments.multi_random(m).sum2()));
  }
  serialize::Writer again;
  tvla::write_moments(again, back);
  EXPECT_EQ(bytes, again.finish());
}

TEST(DistributedCodec, RetiredOrder4MomentsLayoutIsRejected) {
  // The layout before the order-2 accumulator: a "MOMS" chunk whose
  // accumulators also carried S3/S4 (40 bytes each). A build that still
  // speaks it must fail loudly, not have its fields read shifted.
  const auto moments = multi_group_moments();
  serialize::Writer out;
  out.begin_chunk("MOMS");
  out.u64(moments.n_fixed());
  out.u64(moments.n_random());
  out.u64(moments.group_count());
  for (std::size_t g = 0; g < moments.group_count(); ++g) {
    out.u64(moments.single_ones_fixed(g));
    out.u64(moments.single_ones_random(g));
  }
  out.u64(moments.multi_group_count());
  for (std::size_t m = 0; m < moments.multi_group_count(); ++m) {
    for (const auto* acc : {&moments.multi_fixed(m), &moments.multi_random(m)}) {
      out.u64(acc->count());
      out.f64(acc->mean());
      out.f64(acc->sum2());
      out.f64(0.0);  // S3
      out.f64(0.0);  // S4
    }
  }
  out.end_chunk();
  serialize::Reader in(out.finish());
  EXPECT_THROW((void)tvla::read_moments(in), std::runtime_error);
}

TEST(DistributedCodec, NetlistRoundTripPreservesDesignFingerprint) {
  const auto design = circuits::load_design("arbiter", 0.3);
  serialize::Writer out;
  netlist::write_netlist(out, design.netlist);
  const auto bytes = out.finish();

  serialize::Reader in(bytes);
  const auto back = netlist::read_netlist(in);
  EXPECT_EQ(back.gate_count(), design.netlist.gate_count());
  circuits::Design rebuilt{design.name, back, design.roles};
  EXPECT_EQ(core::design_fingerprint(rebuilt),
            core::design_fingerprint(design));
}

TEST(DistributedCodec, DesignRequestRoundTripsAndVerifiesFingerprint) {
  const auto design = circuits::load_design("des3", 0.3);
  const auto payload = server::encode_design_request(design);
  serialize::Reader in(payload);
  EXPECT_EQ(server::decode_request_kind(in), server::RequestKind::kDesign);
  const auto back = server::decode_design_request(in);
  EXPECT_EQ(back.fingerprint, core::design_fingerprint(design));
  EXPECT_EQ(back.design.name, design.name);
  EXPECT_EQ(back.design.roles, design.roles);
  EXPECT_EQ(back.design.netlist.gate_count(), design.netlist.gate_count());
}

TEST(DistributedCodec, ShardRequestRoundTripsAndRejectsEmptyRanges) {
  server::ShardRequest request;
  request.fingerprint = 0xfeedbeefcafe;
  request.config = audit_config();
  request.shard_begin = 4;
  request.shard_end = 8;
  {
    serialize::Reader in(server::encode_shard_request(request));
    EXPECT_EQ(server::decode_request_kind(in), server::RequestKind::kShard);
    const auto back = server::decode_shard_request(in);
    EXPECT_EQ(back.fingerprint, request.fingerprint);
    EXPECT_EQ(back.shard_begin, 4u);
    EXPECT_EQ(back.shard_end, 8u);
    // The canonical config travels with threads zeroed (fingerprint-stable),
    // so a worker's thread count can never perturb shard results.
    EXPECT_EQ(core::config_fingerprint(back.config),
              core::config_fingerprint(request.config));
  }
  request.shard_end = request.shard_begin;  // empty range: malformed
  serialize::Reader in(server::encode_shard_request(request));
  (void)server::decode_request_kind(in);
  EXPECT_THROW((void)server::decode_shard_request(in), std::runtime_error);
}

TEST(DistributedCodec, ShardReplyCarriesMergeableMoments) {
  const auto design = circuits::load_design("voter", 0.3);
  const auto config = audit_config();
  tvla::ShardRunner runner(design.netlist, lib(),
                           core::tvla_config_for(config, design));
  ASSERT_GE(runner.shard_count(), 2u);

  server::ShardReply reply;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    reply.shards.push_back({shard, runner.run_shard(shard)});
  }
  const auto back = server::decode_shard_reply(server::encode_shard_reply(reply));
  ASSERT_EQ(back.shards.size(), 2u);

  // Merging the decoded blocks in ascending order must finalize to the
  // same report as merging the originals - the coordinator's whole
  // bit-identity argument in miniature.
  auto direct = reply.shards[0].moments;
  direct.merge(reply.shards[1].moments);
  auto wired = back.shards[0].moments;
  wired.merge(back.shards[1].moments);
  tvla::ShardRunner finalizer(design.netlist, lib(),
                              core::tvla_config_for(config, design));
  expect_reports_bit_identical(finalizer.finalize(wired),
                               finalizer.finalize(direct));
}

// --- worker process behavior -------------------------------------------------

TEST(DistributedWorker, PingIdentifiesAShardWorker) {
  Fleet fleet(1);
  server::Client client(
      server::net::to_string(fleet.workers[0]->endpoint()));
  const auto reply = client.ping();
  EXPECT_EQ(reply.protocol, server::kProtocolVersion);
  EXPECT_EQ(reply.model_name, "shard-worker");
}

TEST(DistributedWorker, ShardForUninstalledDesignGetsUnknownDesignStatus) {
  Fleet fleet(1);
  const int fd = server::net::connect_endpoint(fleet.workers[0]->endpoint());
  ASSERT_GE(fd, 0);
  server::ShardRequest request;
  request.fingerprint = 0x1234;  // never installed
  request.config = audit_config();
  request.shard_begin = 0;
  request.shard_end = 1;
  server::write_frame(fd, server::encode_shard_request(request));
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(server::read_frame(fd, server::kDefaultMaxFrame, payload),
            server::FrameResult::kFrame);
  const auto response = server::decode_response(std::move(payload));
  EXPECT_EQ(response.status, server::Status::kUnknownDesign);
  ::close(fd);
}

// --- coordinator byte-identity -----------------------------------------------

TEST(DistributedAudit, BitIdenticalToSingleHostAtEveryWorkerCount) {
  const auto designs = suite_designs();
  const auto config = audit_config();
  const auto expected = core::audit_designs(designs, lib(), config);

  for (const std::size_t worker_count : {0u, 1u, 2u, 4u}) {
    Fleet fleet(worker_count);
    server::WorkerPoolOptions options;
    options.workers = fleet.endpoints;
    options.local_threads = 2;
    server::WorkerPool pool(options);
    EXPECT_EQ(pool.worker_count(), worker_count);
    const auto reports = pool.audit(designs, lib(), config);
    ASSERT_EQ(reports.size(), expected.size());
    for (std::size_t d = 0; d < expected.size(); ++d) {
      expect_reports_bit_identical(reports[d], expected[d]);
    }
  }
}

TEST(DistributedAudit, EarlyStopBudgetReplaysCheckpointsIdentically) {
  // The budget path is where the one-merge contract earns its keep: with
  // remote and local shards feeding one ascending merge, checkpoint
  // evaluations must fire at exactly the single-host shard-prefix counts,
  // stop at the same prefix, and discard the same tail shards.
  auto config = audit_config();
  config.tvla.traces = 2048;
  config.tvla.budget.enabled = true;
  config.tvla.budget.min_traces = 256;
  const auto designs = suite_designs();
  const auto expected = core::audit_designs(designs, lib(), config);

  Fleet fleet(2);
  server::WorkerPoolOptions options;
  options.workers = fleet.endpoints;
  options.local_threads = 2;
  server::WorkerPool pool(options);
  const auto reports = pool.audit(designs, lib(), config);
  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    expect_reports_bit_identical(reports[d], expected[d]);
  }
}

TEST(DistributedAudit, EarlyStopSkipsUnclaimedShards) {
  // A design that leaks hard stops LEAKY at its first checkpoint. Remote
  // and local shards feed the same merge, so the stop must also keep the
  // campaign's remaining shards from being simulated or sent: the shards
  // executed anywhere in this process (the in-process worker included,
  // counted through tvla.traces_run) stay below the plan's shard count.
  auto config = audit_config();
  config.tvla.traces = 65536;
  config.tvla.budget.enabled = true;
  config.tvla.budget.min_traces = 1024;
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("square", 0.3));
  const auto expected = core::audit_designs(designs, lib(), config);
  ASSERT_TRUE(expected[0].early_stopped());
  const tvla::ShardRunner runner(designs[0].netlist, lib(),
                                 core::tvla_config_for(config, designs[0]));
  const std::size_t shard_count = runner.shard_count();
  const std::size_t traces_per_shard = config.tvla.traces / shard_count;
  ASSERT_EQ(traces_per_shard * shard_count, config.tvla.traces);

  Fleet fleet(1);
  server::WorkerPoolOptions options;
  options.workers = fleet.endpoints;
  options.local_threads = 1;
  server::WorkerPool pool(options);
  auto& traces_run = obs::Registry::global().counter("tvla.traces_run");
  const std::uint64_t traces_before = traces_run.value();
  const auto reports = pool.audit(designs, lib(), config);
  const std::uint64_t traces_simulated = traces_run.value() - traces_before;
  ASSERT_EQ(reports.size(), 1u);
  expect_reports_bit_identical(reports[0], expected[0]);

  const std::uint64_t shards_executed = traces_simulated / traces_per_shard;
  EXPECT_EQ(shards_executed * traces_per_shard, traces_simulated);
  EXPECT_LE(fleet.workers[0]->shards_run(), shards_executed);
  EXPECT_LT(shards_executed, shard_count);
  EXPECT_LT(pool.totals().shards_out, shard_count);
}

TEST(DistributedAudit, DeadEndpointFallsBackToLocalLanes) {
  // Nothing listens on the reserved port 1: the feeder fails to connect,
  // marks the worker dead, and the local lanes complete the whole campaign
  // with identical bits.
  const auto designs = suite_designs();
  const auto config = audit_config();
  const auto expected = core::audit_designs(designs, lib(), config);

  server::WorkerPoolOptions options;
  options.workers = "127.0.0.1:1";
  options.local_threads = 2;
  server::WorkerPool pool(options);
  const auto reports = pool.audit(designs, lib(), config);
  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    expect_reports_bit_identical(reports[d], expected[d]);
  }

  const auto health = pool.health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_FALSE(health[0].alive);
  EXPECT_EQ(health[0].shards_done, 0u);
  EXPECT_EQ(pool.totals().moments_in, 0u);
}

TEST(DistributedAudit, WorkerKilledMidCampaignStillByteIdentical) {
  auto config = audit_config();
  config.tvla.traces = 32768;  // long enough to straddle the kill
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("des3", 1.0));
  const auto expected = core::audit_designs(designs, lib(), config);

  Fleet fleet(2);
  server::WorkerPoolOptions options;
  options.workers = fleet.endpoints;
  options.local_threads = 2;
  server::WorkerPool pool(options);

  std::vector<tvla::LeakageReport> reports;
  std::thread auditor(
      [&] { reports = pool.audit(designs, lib(), config); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // A hard mid-campaign loss: the worker drains its current request and
  // goes away; whatever it never acknowledged is requeued and re-run on
  // the remaining lanes.
  fleet.workers[1]->request_stop();
  fleet.workers[1]->wait();
  auditor.join();

  ASSERT_EQ(reports.size(), 1u);
  expect_reports_bit_identical(reports[0], expected[0]);
}

TEST(DistributedAudit, HealthAndTotalsTrackTheFleet) {
  const auto designs = suite_designs();
  const auto config = audit_config();

  Fleet fleet(1);
  server::WorkerPoolOptions options;
  options.workers = fleet.endpoints;
  options.local_threads = 1;
  server::WorkerPool pool(options);
  (void)pool.audit(designs, lib(), config);

  const auto health = pool.health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].endpoint,
            server::net::to_string(fleet.workers[0]->endpoint()));
  EXPECT_TRUE(health[0].alive);
  const auto totals = pool.totals();
  EXPECT_EQ(totals.moments_in, health[0].shards_done);
  EXPECT_EQ(totals.shards_out, fleet.workers[0]->shards_run() +
                                   totals.resends);
  if (totals.shards_out > 0) {
    EXPECT_GT(totals.bytes, 0u);
  }
}

TEST(DistributedAudit, DuplicateShardIndexInReplyIsRejectedNotMerged) {
  // A protocol-correct but buggy worker answers a shard request with the
  // right count but one in-range index duplicated. Each entry must be
  // exactly begin + i: a duplicate would feed one shard to the merge twice
  // and another never, and the audit would wait for the missing one
  // forever. The coordinator must instead drop the worker, requeue the
  // chunk, and let the local lanes finish with identical bits. The campaign is long and
  // the local side single-threaded so the feeder is guaranteed to win
  // chunks from the shared queue before the lanes drain it.
  auto config = audit_config();
  config.tvla.traces = 32768;
  std::vector<circuits::Design> designs;
  designs.push_back(circuits::load_design("des3", 1.0));
  const auto expected = core::audit_designs(designs, lib(), config);

  const int listen_fd = server::net::listen_endpoint(
      server::net::parse_endpoint("tcp:127.0.0.1:0"), 4);
  const auto endpoint = server::net::bound_endpoint(
      listen_fd, server::net::parse_endpoint("tcp:127.0.0.1:0"));
  std::thread malicious([&, listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    std::optional<circuits::Design> installed;
    std::vector<std::uint8_t> payload;
    try {
      for (;;) {
        if (server::read_frame(fd, server::kDefaultMaxFrame, payload) !=
            server::FrameResult::kFrame) {
          break;
        }
        serialize::Reader in(std::move(payload));
        const auto kind = server::decode_request_kind(in);
        std::vector<std::uint8_t> response;
        if (kind == server::RequestKind::kDesign) {
          installed = server::decode_design_request(in).design;
          response = server::encode_response(server::Status::kOk, "", false, {});
        } else {
          const auto request = server::decode_shard_request(in);
          tvla::ShardRunner runner(
              installed->netlist, lib(),
              core::tvla_config_for(request.config, *installed));
          server::ShardReply reply;
          for (std::uint64_t shard = request.shard_begin;
               shard < request.shard_end; ++shard) {
            server::ShardResult result;
            result.shard = request.shard_begin;  // every entry: same index
            result.moments =
                runner.run_shard(static_cast<std::size_t>(shard));
            reply.shards.push_back(std::move(result));
          }
          response = server::encode_response(server::Status::kOk, "", false,
                                             server::encode_shard_reply(reply));
        }
        server::write_frame(fd, response);
        payload.clear();
      }
    } catch (const std::exception&) {
      // Coordinator hung up on us mid-exchange - exactly what we expect.
    }
    ::close(fd);
  });

  server::WorkerPoolOptions options;
  options.workers = server::net::to_string(endpoint);
  options.local_threads = 1;
  server::WorkerPool pool(options);
  const auto reports = pool.audit(designs, lib(), config);
  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    expect_reports_bit_identical(reports[d], expected[d]);
  }

  const auto health = pool.health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_FALSE(health[0].alive);  // dropped after the bad reply
  EXPECT_EQ(health[0].shards_done, 0u);
  EXPECT_GT(pool.totals().resends, 0u);

  ::close(listen_fd);
  malicious.join();
}

}  // namespace
