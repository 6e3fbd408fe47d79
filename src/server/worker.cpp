#include "server/worker.hpp"

#include <optional>

#include "core/config.hpp"
#include "engine/thread_pool.hpp"
#include "obs/obs.hpp"

namespace polaris::server {

namespace {

/// Installed-design cache: a fixed byte budget over a per-gate estimate.
/// On the 11 evaluation designs at scale 1.0 an installed netlist with its
/// net names takes 85-270 B per gate, its compiled plan 25-45 B and its
/// runner (power model and sampling plan) 33-46 B. The budget holds the
/// whole suite (about 102k gates) with room to spare.
constexpr std::size_t kBytesPerGate = 320 + 48;
constexpr std::size_t kCacheBudgetBytes = std::size_t{64} << 20;

}  // namespace

Worker::Worker(WorkerOptions options)
    : options_(std::move(options)),
      listener_(options_.listen, options_.backlog, options_.max_frame,
                "worker", [this](int fd, std::vector<std::uint8_t>& payload) {
                  return handle_payload(fd, payload);
                }) {}

void Worker::start() { listener_.start(); }

void Worker::request_stop() { listener_.request_stop(); }

void Worker::wait() { listener_.wait(); }

bool Worker::handle_payload(int fd, std::vector<std::uint8_t>& payload) {
  Status status = Status::kOk;
  std::string message;
  bool keep_open = true;
  std::vector<std::uint8_t> body;
  try {
    serialize::Reader in(std::move(payload));
    const RequestKind kind = decode_request_kind(in);
    switch (kind) {
      case RequestKind::kPing: body = serve_ping(); break;
      case RequestKind::kDesign: body = serve_design(in); break;
      case RequestKind::kShard: body = serve_shards(in); break;
      case RequestKind::kShutdown:
        keep_open = false;
        request_stop();
        break;
      default:
        throw ServerError(Status::kBadRequest,
                          std::string("polaris worker: request kind '") +
                              request_kind_name(kind) +
                              "' not served by shard workers");
    }
  } catch (const ServerError& error) {
    status = error.status;
    message = error.what();
    body.clear();
  } catch (const std::exception& error) {
    status = Status::kBadPayload;
    message = error.what();
    body.clear();
  }
  listener_.reply(fd,
                  encode_response(status, message, /*cache_hit=*/false, body));
  return keep_open;
}

std::vector<std::uint8_t> Worker::serve_ping() {
  const obs::RuntimeInfo runtime = obs::runtime_info();
  PingReply reply;
  reply.model_name = "shard-worker";
  reply.requests_served = listener_.requests_served();
  reply.build_type = runtime.build_type;
  reply.simd = runtime.simd;
  reply.lane_words = runtime.lane_words;
  return encode_ping_reply(reply);
}

std::shared_ptr<Worker::Installed> Worker::find_design(
    std::uint64_t fingerprint) {
  const auto it = designs_.find(fingerprint);
  if (it == designs_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

std::vector<std::uint8_t> Worker::serve_design(serialize::Reader& in) {
  DesignRequest request = decode_design_request(in);
  static auto& installed =
      obs::Registry::global().counter("worker.designs_installed");
  static auto& evicted =
      obs::Registry::global().counter("worker.designs_evicted");
  // Held while compiling, like every cache fill here: compiling twice
  // concurrently would be wasted work, and it happens once per design.
  const std::lock_guard<std::mutex> lock(designs_mutex_);
  if (find_design(request.fingerprint) != nullptr) return {};
  auto entry = std::make_shared<Installed>();
  entry->fingerprint = request.fingerprint;
  entry->bytes = request.design.netlist.gate_count() * kBytesPerGate;
  entry->design = std::move(request.design);
  entry->compiled = sim::compile(entry->design.netlist);
  lru_.push_front(entry);
  designs_.emplace(entry->fingerprint, lru_.begin());
  resident_bytes_ += entry->bytes;
  installed.add();
  // Least recently used out first; the new design always stays, even
  // alone over the budget. A shard run in flight keeps its entry alive.
  while (resident_bytes_ > kCacheBudgetBytes && lru_.size() > 1) {
    resident_bytes_ -= lru_.back()->bytes;
    designs_.erase(lru_.back()->fingerprint);
    lru_.pop_back();
    evicted.add();
  }
  return {};  // empty-body kOk ack
}

Worker::Campaign Worker::campaign_for(const ShardRequest& request) {
  const std::uint64_t config_fp = core::config_fingerprint(request.config);
  const std::lock_guard<std::mutex> lock(designs_mutex_);
  Campaign campaign{find_design(request.fingerprint), nullptr};
  if (campaign.design == nullptr) {
    throw ServerError(Status::kUnknownDesign,
                      "polaris worker: no installed design with fingerprint " +
                          std::to_string(request.fingerprint));
  }
  auto& slot = campaign.design->runner;
  if (slot.second == nullptr || slot.first != config_fp) {
    // A new campaign on an installed design: a power model and sampling
    // plan over the plan compiled at install. It replaces the previous
    // campaign's runner; a shard run still using that one holds it.
    slot = {config_fp, std::make_shared<tvla::ShardRunner>(
                           campaign.design->compiled, lib_,
                           core::tvla_config_for(request.config,
                                                 campaign.design->design))};
  }
  campaign.runner = slot.second;
  return campaign;
}

std::vector<std::uint8_t> Worker::serve_shards(serialize::Reader& in) {
  const ShardRequest request = decode_shard_request(in);
  const Campaign campaign = campaign_for(request);
  const auto& runner = campaign.runner;
  if (request.shard_end > runner->shard_count()) {
    throw ServerError(Status::kBadRequest,
                      "polaris worker: shard range [" +
                          std::to_string(request.shard_begin) + ", " +
                          std::to_string(request.shard_end) +
                          ") exceeds plan shard count " +
                          std::to_string(runner->shard_count()));
  }
  static auto& shards_counter =
      obs::Registry::global().counter("worker.shards_run");
  const std::size_t count =
      static_cast<std::size_t>(request.shard_end - request.shard_begin);
  std::vector<std::optional<tvla::CampaignMoments>> results(count);
  try {
    // Shard fan-out on the shared pool, capped at the worker's threads. Each
    // run_shard is independent and const; results land in distinct slots.
    // The pool fails fast and rethrows the first error here, so a throwing
    // shard fails this request with kServerError and the worker lives on.
    engine::ThreadPool::shared().parallel_for(
        count, engine::ThreadPool::resolve_threads(options_.threads),
        [&](std::size_t i) {
          results[i] = runner->run_shard(
              static_cast<std::size_t>(request.shard_begin) + i);
        });
  } catch (const std::exception& error) {
    throw ServerError(Status::kServerError, error.what());
  }
  ShardReply reply;
  reply.shards.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ShardResult result;
    result.shard = request.shard_begin + i;
    result.moments = std::move(*results[i]);
    reply.shards.push_back(std::move(result));
  }
  shards_counter.add(count);
  shards_run_.fetch_add(count);
  return encode_shard_reply(reply);
}

}  // namespace polaris::server
