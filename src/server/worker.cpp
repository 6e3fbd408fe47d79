#include "server/worker.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <optional>

#include "core/config.hpp"
#include "obs/obs.hpp"

namespace polaris::server {

namespace {

// Same poll cadence as the serve daemon: SO_*TIMEO on every accepted
// socket bounds how long a stalled peer can pin a handler across a drain.
constexpr int kHandlerPollMs = 100;
constexpr int kAcceptPollMs = 500;

/// Installed-design cache: a fixed byte budget over a per-gate estimate.
/// On the 11 evaluation designs at scale 1.0 an installed netlist with its
/// net names takes 85-270 B per gate, its compiled plan 25-45 B and its
/// runner (power model and sampling plan) 33-46 B. The budget holds the
/// whole suite (about 102k gates) with room to spare.
constexpr std::size_t kBytesPerGate = 320 + 48;
constexpr std::size_t kCacheBudgetBytes = std::size_t{64} << 20;

}  // namespace

Worker::Worker(WorkerOptions options) : options_(std::move(options)) {
  const net::Endpoint requested = net::parse_endpoint(options_.listen);
  listen_fd_ = net::listen_endpoint(requested, options_.backlog);
  endpoint_ = net::bound_endpoint(listen_fd_, requested);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    net::unlink_if_uds(endpoint_);
    throw std::runtime_error("polaris worker: pipe: " +
                             std::string(std::strerror(errno)));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
}

Worker::~Worker() {
  if (started_) {
    request_stop();
    wait();
  } else if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    net::unlink_if_uds(endpoint_);
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void Worker::start() {
  if (started_) throw std::logic_error("polaris worker: start() called twice");
  started_ = true;
  accept_thread_ = std::thread(&Worker::accept_loop, this);
}

void Worker::request_stop() {
  const std::uint8_t byte = 1;
  (void)!::write(wake_write_fd_, &byte, 1);
}

void Worker::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Worker::accept_loop() {
  for (;;) {
    reap_finished_connections();
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_fd_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, kAcceptPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // reap tick
    if ((fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    timeval timeout{};
    timeout.tv_usec = kHandlerPollMs * 1000;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, fd, raw] {
      handle_connection(fd);
      raw->done.store(true);
    });
  }

  // Graceful drain, exactly like the serve daemon: in-flight shard runs
  // complete and their replies are delivered before wait() returns.
  stopping_.store(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  net::unlink_if_uds(endpoint_);
  std::vector<std::unique_ptr<Connection>> remaining;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    remaining.swap(connections_);
  }
  for (auto& connection : remaining) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void Worker::reap_finished_connections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    auto& live = connections_;
    for (auto it = live.begin(); it != live.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = live.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void Worker::handle_connection(int fd) {
  const CancelProbe stop_probe = [this] { return stopping_.load(); };
  std::vector<std::uint8_t> payload;
  try {
    for (;;) {
      const FrameResult result =
          read_frame(fd, options_.max_frame, payload, stop_probe);
      if (result == FrameResult::kClosed) break;
      if (result != FrameResult::kFrame) {
        const Status status = result == FrameResult::kBadMagic
                                  ? Status::kBadMagic
                                  : result == FrameResult::kBadVersion
                                        ? Status::kBadVersion
                                        : Status::kTooLarge;
        write_frame(fd,
                    encode_response(status, to_string(status),
                                    /*cache_hit=*/false, {}),
                    stop_probe);
        requests_served_.fetch_add(1);
        break;
      }
      if (!handle_payload(fd, payload)) break;
    }
  } catch (const std::exception&) {
    // Torn frame or socket error: drop this one connection. The
    // coordinator treats the loss as a dead worker and requeues.
  }
  ::close(fd);
}

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
  write_frame(fd, encode_response(status, message, /*cache_hit=*/false, body),
              [this] { return stopping_.load(); });
  requests_served_.fetch_add(1);
  return keep_open;
}

std::vector<std::uint8_t> Worker::serve_ping() {
  const obs::RuntimeInfo runtime = obs::runtime_info();
  PingReply reply;
  reply.model_name = "shard-worker";
  reply.requests_served = requests_served_.load();
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
    // Shard fan-out across the worker's own threads. Each run_shard is
    // independent and const; results land in distinct slots.
    std::size_t threads = options_.threads != 0
                              ? options_.threads
                              : std::thread::hardware_concurrency();
    threads = std::max<std::size_t>(1, std::min(threads, count));
    if (threads == 1) {
      for (std::size_t i = 0; i < count; ++i) {
        results[i] = runner->run_shard(
            static_cast<std::size_t>(request.shard_begin) + i);
      }
    } else {
      std::atomic<std::size_t> next{0};
      // An exception escaping a thread entry point is std::terminate, so
      // each pool thread traps into a first-wins exception_ptr that the
      // spawning thread rethrows after join - the request then fails
      // with kServerError like the single-threaded path instead of
      // killing the worker process.
      std::mutex error_mutex;
      std::exception_ptr first_error;
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
          try {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1)) {
              results[i] = runner->run_shard(
                  static_cast<std::size_t>(request.shard_begin) + i);
            }
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
            next.store(count);  // stop the other threads early
          }
        });
      }
      for (auto& thread : pool) thread.join();
      if (first_error) std::rethrow_exception(first_error);
    }
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
