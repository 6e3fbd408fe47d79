#include "server/remote.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <future>
#include <set>
#include <thread>

#include "obs/obs.hpp"

namespace polaris::server {

namespace {

/// Client-side socket poll cadence: SO_*TIMEO expiry re-checks the cancel
/// probe, which enforces the per-roundtrip deadline.
constexpr int kFeederPollMs = 100;
/// Outstanding chunks per worker.
constexpr std::size_t kPipelineDepth = 2;
/// Admission control: a feeder stops sending when the request bytes of
/// its outstanding chunks exceed this (bounds worker-side queue memory).
constexpr std::size_t kMaxInflightBytes = std::size_t{4} << 20;
/// Per-roundtrip deadline. A worker that exceeds it is treated as dead
/// and its chunks go back to the queue.
constexpr std::chrono::milliseconds kRoundtripTimeout{30000};

obs::Counter& shards_out_counter() {
  static auto& counter = obs::Registry::global().counter("net.shards_out");
  return counter;
}
obs::Counter& moments_in_counter() {
  static auto& counter = obs::Registry::global().counter("net.moments_in");
  return counter;
}
obs::Counter& bytes_counter() {
  static auto& counter = obs::Registry::global().counter("net.bytes");
  return counter;
}
obs::Counter& resends_counter() {
  static auto& counter = obs::Registry::global().counter("net.resends");
  return counter;
}

}  // namespace

/// One audit() call: the private scheduler every lane drains and every
/// feeder claims from, plus what a feeder needs to describe a claim to its
/// worker. Campaign d is the d-th submit to the fresh scheduler, so a
/// claim's sequence is its design index.
struct WorkerPool::Audit {
  std::span<const circuits::Design> designs;
  const core::PolarisConfig& config;
  std::vector<std::uint64_t> fingerprints;  // per design
  engine::Scheduler scheduler;
};

WorkerPool::WorkerPool(WorkerPoolOptions options)
    : options_(std::move(options)) {
  std::string spec;
  for (std::size_t i = 0; i <= options_.workers.size(); ++i) {
    if (i == options_.workers.size() || options_.workers[i] == ',') {
      if (!spec.empty()) {
        auto slot = std::make_unique<WorkerSlot>();
        slot->endpoint = net::parse_endpoint(spec);
        slot->display = net::to_string(slot->endpoint);
        workers_.push_back(std::move(slot));
        spec.clear();
      }
    } else {
      spec.push_back(options_.workers[i]);
    }
  }
}

std::vector<WorkerHealthEntry> WorkerPool::health() const {
  std::vector<WorkerHealthEntry> entries;
  entries.reserve(workers_.size());
  for (const auto& slot : workers_) {
    WorkerHealthEntry entry;
    entry.endpoint = slot->display;
    entry.alive = slot->alive.load();
    entry.inflight = slot->inflight.load();
    entry.shards_done = slot->shards_done.load();
    entry.bytes_out = slot->bytes_out.load();
    entry.bytes_in = slot->bytes_in.load();
    entry.resends = slot->resends.load();
    entries.push_back(std::move(entry));
  }
  return entries;
}

WorkerPool::Totals WorkerPool::totals() const {
  Totals totals;
  for (const auto& slot : workers_) {
    totals.shards_out += slot->shards_done.load() + slot->inflight.load();
    totals.moments_in += slot->shards_done.load();
    totals.bytes += slot->bytes_out.load() + slot->bytes_in.load();
    totals.resends += slot->resends.load();
  }
  return totals;
}

std::vector<tvla::LeakageReport> WorkerPool::audit(
    std::span<const circuits::Design> designs,
    const techlib::TechLibrary& lib, const core::PolarisConfig& config,
    tvla::ProgressFn progress) {
  core::validate(config);
  Audit audit{designs, config, {}, engine::Scheduler(options_.local_threads)};

  // Compile every campaign once, up front, and queue its shards: local
  // lanes and feeders then drain one LPT queue, and every shard - local
  // or remote - feeds the campaign's ascending merge and checkpoints.
  std::vector<std::unique_ptr<tvla::ShardRunner>> runners;
  std::vector<std::future<tvla::LeakageReport>> pending;
  for (const auto& design : designs) {
    audit.fingerprints.push_back(core::design_fingerprint(design));
    runners.push_back(std::make_unique<tvla::ShardRunner>(
        design.netlist, lib, core::tvla_config_for(config, design)));
    tvla::ShardRunner* runner = runners.back().get();
    if (progress) runner->set_progress(progress);
    pending.push_back(audit.scheduler.submit<tvla::CampaignMoments>(
        runner->batch_count(),
        [runner](std::size_t shard) { return runner->run_shard(shard); },
        [](tvla::CampaignMoments& into, tvla::CampaignMoments&& from) {
          into.merge(from);
        },
        [runner](tvla::CampaignMoments&& total) {
          return runner->finalize(total);
        },
        runner->cost_weight(), {}, runner->checkpoint_shards(),
        [runner](const tvla::CampaignMoments& merged, std::size_t shards) {
          return runner->evaluate_checkpoint(merged, shards);
        }));
  }

  // One feeder thread per remote worker; the calling thread drains the
  // local lanes, which can run anything a dead worker gives back. jthread
  // joins on every exit path, before `audit` and `runners` go away.
  std::vector<std::jthread> feeders;
  for (const auto& slot : workers_) {
    slot->alive.store(true);
    feeders.emplace_back([this, &audit, raw = slot.get()] {
      feed_worker(*raw, audit);
    });
  }
  audit.scheduler.drain();
  for (auto& feeder : feeders) feeder.join();

  std::vector<tvla::LeakageReport> reports;
  reports.reserve(designs.size());
  for (auto& future : pending) reports.push_back(future.get());
  return reports;
}

void WorkerPool::feed_worker(WorkerSlot& slot, Audit& audit) {
  struct Pending {
    bool is_chunk = false;
    engine::Scheduler::Claim claim;  // valid when is_chunk
    std::size_t bytes = 0;           // request payload size (admission)
  };
  std::deque<Pending> outstanding;
  std::set<std::size_t> installed;  // designs installed on this connection
  std::size_t inflight_bytes = 0;
  int fd = -1;

  // The deadline is per roundtrip: armed when a send or reply wait
  // starts, checked by the probe on every socket-timeout tick.
  std::chrono::steady_clock::time_point deadline;
  const CancelProbe probe = [&] {
    return std::chrono::steady_clock::now() > deadline;
  };
  const auto give_back = [&](const engine::Scheduler::Claim& claim) {
    const std::size_t shards = claim.end - claim.begin;
    slot.resends.fetch_add(shards);
    resends_counter().add(shards);
    audit.scheduler.release(claim);
  };

  try {
    fd = net::connect_endpoint(slot.endpoint);
    timeval timeout{};
    timeout.tv_usec = kFeederPollMs * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

    std::vector<std::uint8_t> payload;
    for (;;) {
      // Admission control: pipeline up to kPipelineDepth chunks, but never
      // more than kMaxInflightBytes of unanswered request payload - a slow
      // worker's queue stays bounded.
      std::size_t chunks_out = 0;
      for (const auto& pending : outstanding) chunks_out += pending.is_chunk;
      while (chunks_out < kPipelineDepth && inflight_bytes < kMaxInflightBytes) {
        const auto claim = audit.scheduler.claim(kShardsPerChunk);
        if (!claim) break;
        const std::size_t design = claim->sequence;
        const std::size_t shards = claim->end - claim->begin;
        deadline = std::chrono::steady_clock::now() + kRoundtripTimeout;
        // Until the Pending lands in `outstanding`, the outer handler
        // cannot see the claim: if a send fails here (torn connection,
        // deadline firing mid-EAGAIN), give it back before withdrawing,
        // or drain() would wait for it forever.
        try {
          if (installed.find(design) == installed.end()) {
            const auto install = encode_design_request(audit.designs[design]);
            write_frame(fd, install, probe);
            slot.bytes_out.fetch_add(install.size());
            bytes_counter().add(install.size());
            outstanding.push_back(Pending{});
            installed.insert(design);
          }
          ShardRequest request;
          request.fingerprint = audit.fingerprints[design];
          request.config = audit.config;
          request.shard_begin = claim->begin;
          request.shard_end = claim->end;
          const auto frame = encode_shard_request(request);
          write_frame(fd, frame, probe);
          slot.bytes_out.fetch_add(frame.size());
          bytes_counter().add(frame.size());
          shards_out_counter().add(shards);
          inflight_bytes += frame.size();
          outstanding.push_back(Pending{true, *claim, frame.size()});
        } catch (...) {
          give_back(*claim);
          throw;
        }
        slot.inflight.fetch_add(shards);
        ++chunks_out;
      }
      // Nothing owed and nothing left to claim: this feeder is done. A
      // chunk another feeder gives back later runs on the local lanes.
      if (outstanding.empty()) break;

      // One reply, FIFO: the worker serves a connection's frames in
      // order, so the front pending is always the one being answered.
      deadline = std::chrono::steady_clock::now() + kRoundtripTimeout;
      const FrameResult result =
          read_frame(fd, options_.max_frame, payload, probe);
      if (result != FrameResult::kFrame) {
        throw std::runtime_error("polaris net: worker '" + slot.display +
                                 "' closed the connection");
      }
      const std::size_t reply_bytes = payload.size();
      Response response = decode_response(std::move(payload));
      const Pending pending = outstanding.front();
      outstanding.pop_front();
      slot.bytes_in.fetch_add(reply_bytes);
      bytes_counter().add(reply_bytes);
      if (!pending.is_chunk) {  // design-install ack
        if (response.status != Status::kOk) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' rejected design install: " +
                                   response.message);
        }
        continue;
      }
      const auto& claim = pending.claim;
      const std::size_t shards = claim.end - claim.begin;
      inflight_bytes -= pending.bytes;
      slot.inflight.fetch_sub(shards);
      if (response.status == Status::kUnknownDesign) {
        // Worker restarted between install and shard request: force a
        // re-install on the next send and give the chunk back.
        installed.erase(claim.sequence);
        give_back(claim);
        continue;
      }
      // The chunk left `outstanding` above, so from here until its shards
      // are deposited, a throw would strand the claim - drain() would
      // never return. Validate the WHOLE reply first, deposit only after,
      // and give the chunk back on any failure.
      ShardReply reply;
      try {
        if (response.status != Status::kOk) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' failed shard request: " +
                                   response.message);
        }
        reply = decode_shard_reply(response.body);
        if (reply.shards.size() != shards) {
          throw std::runtime_error("polaris net: worker '" + slot.display +
                                   "' answered the wrong shard count");
        }
        // The worker fills a chunk's shards in ascending order, so entry
        // i must be exactly begin + i. This is stricter than a range
        // check on purpose: a duplicate in-range index would feed one
        // shard twice and another never, and drain() would wait for the
        // missing one forever. Network input never gets to do that, which
        // is why validation completes before any deposit.
        for (std::size_t i = 0; i < reply.shards.size(); ++i) {
          if (reply.shards[i].shard != claim.begin + i) {
            throw std::runtime_error("polaris net: worker '" + slot.display +
                                     "' answered an unrequested shard");
          }
        }
      } catch (...) {
        give_back(claim);
        throw;
      }
      for (auto& result_in : reply.shards) {
        audit.scheduler.deposit(claim,
                                static_cast<std::size_t>(result_in.shard),
                                std::move(result_in.moments));
      }
      slot.shards_done.fetch_add(shards);
      moments_in_counter().add(shards);
    }
  } catch (const std::exception&) {
    // Worker lost (unreachable, timed out, torn connection, or a failed
    // request): give every unanswered chunk back for the surviving lanes
    // and withdraw. The chunks may have executed remotely - that is
    // harmless, re-running a shard yields the same bits and only one copy
    // is ever deposited (nothing was deposited here).
    for (const auto& pending : outstanding) {
      if (!pending.is_chunk) continue;
      slot.inflight.fetch_sub(pending.claim.end - pending.claim.begin);
      give_back(pending.claim);
    }
    slot.alive.store(false);
  }
  if (fd >= 0) ::close(fd);
}

}  // namespace polaris::server
