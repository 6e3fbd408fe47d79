#include "server/server.hpp"

#include <atomic>
#include <utility>

#include "netlist/verilog.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace polaris::server {

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      polaris_(core::Polaris::load_bundle(options_.bundle_path, &info_)),
      scheduler_(options_.threads),
      cache_(options_.cache_capacity),
      sampler_(obs::Registry::global(),
               obs::Sampler::Options{options_.sample_interval_ms,
                                     options_.metrics_file}),
      start_mono_ns_(obs::now_ns()),
      listener_(options_.socket_path, options_.backlog, options_.max_frame,
                "server", [this](int fd, std::vector<std::uint8_t>& payload) {
                  return handle_payload(fd, payload);
                }) {
  // The sampler's only output is the metrics file: without one it never
  // runs, and status reports its period as 0 (off).
  if (options_.metrics_file.empty()) options_.sample_interval_ms = 0;
  if (!options_.workers.empty()) {
    WorkerPoolOptions pool_options;
    pool_options.workers = options_.workers;
    pool_options.local_threads = options_.threads;
    pool_options.max_frame = options_.max_frame;
    pool_ = std::make_unique<WorkerPool>(std::move(pool_options));
  }
}

void Server::start() {
  if (options_.sample_interval_ms > 0) sampler_.start();
  listener_.start();
}

void Server::request_stop() { listener_.request_stop(); }

void Server::wait() {
  listener_.wait();
  // Last: the sampler outlives the handlers so the final intervals (the
  // drain itself included) still land in the metrics file.
  sampler_.stop();
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.requests_served = listener_.requests_served();
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_entries = cache_.size();
  stats.cache_bytes = cache_.bytes();
  stats.connections = listener_.connections_total();
  return stats;
}

bool Server::handle_payload(int fd, std::vector<std::uint8_t>& payload) {
  Status status = Status::kOk;
  std::string message;
  bool cache_hit = false;
  bool keep_open = true;
  core::ResultCache::Body body;
  RequestLog::Request request;
  request.bytes = payload.size();
  request.start_ns = obs::now_ns();
  obs::Span span("request", "server");
  try {
    serialize::Reader in(std::move(payload));
    const RequestKind kind = decode_request_kind(in);
    request.kind = static_cast<std::uint8_t>(kind);
    const char* kind_name = request_kind_name(kind);
    span.arg("kind", kind_name);
    // A status poll is not listed in flight: it would always report
    // itself. It still reaches the recent ring through finish().
    if (kind != RequestKind::kStatus) log_.begin(request);
    if (listener_.stopping() && kind != RequestKind::kPing &&
        kind != RequestKind::kShutdown) {
      throw ServerError(Status::kShuttingDown, to_string(Status::kShuttingDown));
    }
    switch (kind) {
      case RequestKind::kPing: body = serve_ping(); break;
      case RequestKind::kAudit: body = serve_audit(in, cache_hit); break;
      case RequestKind::kAuditStream:
        body = serve_audit_stream(fd, in, cache_hit);
        break;
      case RequestKind::kMask: body = serve_mask(in, cache_hit); break;
      case RequestKind::kScore: body = serve_score(in, cache_hit); break;
      case RequestKind::kStatus: body = serve_status(); break;
      case RequestKind::kDesign:
      case RequestKind::kShard:
        // Worker-plane requests: the daemon is a coordinator, not a shard
        // worker - point the peer at `polaris_cli worker`.
        throw ServerError(Status::kBadRequest,
                          std::string("polaris serve: request kind '") +
                              kind_name +
                              "' is served by shard workers "
                              "(polaris_cli worker), not the daemon");
      case RequestKind::kShutdown:
        keep_open = false;
        request_stop();
        break;
    }
  } catch (const ServerError& error) {
    status = error.status;
    message = error.what();
    body.reset();
  } catch (const std::exception& error) {
    // Anything the decode layer threw: the frame arrived intact but its
    // payload archive or request structure did not parse.
    status = Status::kBadPayload;
    message = error.what();
    body.reset();
  }
  span.arg("status", to_string(status)).arg("cache_hit", cache_hit);
  // Recorded BEFORE the reply write: a status poll finds the request in
  // one table or the other at every instant, and a reply that throws (the
  // client timed out or hung up) still leaves its record.
  log_.finish(request, status, cache_hit);
  const std::span<const std::uint8_t> body_span =
      body ? std::span<const std::uint8_t>(*body)
           : std::span<const std::uint8_t>();
  listener_.reply(fd, encode_response(status, message, cache_hit, body_span));
  return keep_open;
}

core::ResultCache::Body Server::serve_ping() {
  const obs::RuntimeInfo runtime = obs::runtime_info();
  PingReply reply;
  reply.model_name = info_.model_name;
  reply.config_fingerprint = info_.config_fingerprint;
  reply.requests_served = listener_.requests_served();
  reply.cache_hits = cache_.hits();
  reply.cache_entries = cache_.size();
  reply.build_type = runtime.build_type;
  reply.simd = runtime.simd;
  reply.lane_words = runtime.lane_words;
  return std::make_shared<const std::vector<std::uint8_t>>(
      encode_ping_reply(reply));
}

core::ResultCache::Body Server::serve_status() {
  const obs::RuntimeInfo runtime = obs::runtime_info();
  StatusReply reply;
  reply.model_name = info_.model_name;
  reply.config_fingerprint = info_.config_fingerprint;
  reply.build_type = runtime.build_type;
  reply.simd = runtime.simd;
  reply.lane_words = runtime.lane_words;
  reply.requests_served = listener_.requests_served();
  reply.connections_total = listener_.connections_total();
  reply.connections_active = listener_.connections_active();
  reply.uptime_ms =
      static_cast<std::uint64_t>((obs::now_ns() - start_mono_ns_) / 1'000'000);
  reply.sample_interval_ms = options_.sample_interval_ms;
  reply.samples = sampler_.samples();
  RequestLog::Tables tables = log_.snapshot();
  reply.inflight = std::move(tables.inflight);
  reply.recent = std::move(tables.recent);
  reply.campaigns = scheduler_.progress();
  if (pool_) reply.workers = pool_->health();
  reply.snapshot = obs::Registry::global().snapshot();
  return std::make_shared<const std::vector<std::uint8_t>>(
      encode_status_reply(reply));
}

core::ResultCache::Body Server::serve_audit(serialize::Reader& in,
                                            bool& cache_hit) {
  const AuditRequest request = decode_audit_request(in);
  return audit_body(request, cache_hit, {});
}

core::ResultCache::Body Server::serve_audit_stream(int fd,
                                                   serialize::Reader& in,
                                                   bool& cache_hit) {
  const AuditRequest request = decode_audit_request(in);
  static auto& partials_out =
      obs::Registry::global().counter("server.audit_partials_out");
  // Partials are best-effort: a send failure must not fail the campaign
  // (the final reply still lands in the cache for the next caller), so the
  // first failed write just stops further partials.
  auto failed = std::make_shared<std::atomic<bool>>(false);
  const std::uint64_t traces_total = request.config.tvla.traces;
  tvla::ProgressFn progress =
      [this, fd, failed, traces_total](const tvla::LeakageReport& partial,
                                       std::size_t traces_done) {
        if (failed->load()) return;
        AuditPartial frame;
        frame.traces_done = traces_done;
        frame.traces_total = traces_total;
        frame.report = partial;
        try {
          write_frame(fd,
                      encode_response(Status::kOk, "", /*cache_hit=*/false,
                                      encode_audit_partial(frame)),
                      [this] { return listener_.stopping(); });
          partials_out.add();
        } catch (const std::exception&) {
          failed->store(true);
        }
      };
  return audit_body(request, cache_hit, std::move(progress));
}

core::ResultCache::Body Server::audit_body(const AuditRequest& request,
                                           bool& cache_hit,
                                           tvla::ProgressFn progress) {
  try {
    core::validate(request.config);
  } catch (const std::exception& error) {
    throw ServerError(Status::kBadRequest, error.what());
  }
  // Streaming and non-streaming audits share one cache key (the compute
  // and the reply bytes are identical); a streamed request that hits the
  // cache replays the final body and emits zero partial frames.
  return cached_body(
      request.design, request.scale, core::config_fingerprint(request.config),
      {static_cast<std::uint64_t>(RequestKind::kAudit)}, cache_hit,
      [&](const circuits::Design& design) {
        tvla::LeakageReport report{{}, {}, 0.0};
        if (pool_) {
          // Distributed backend: same shards, same ascending merge, same
          // bits - which is exactly why the cache key is unchanged.
          report = pool_->audit({&design, 1}, lib_, request.config,
                                std::move(progress))[0];
        } else {
          auto pending = core::submit_audits(scheduler_, {&design, 1}, lib_,
                                             request.config,
                                             std::move(progress));
          scheduler_.drain();
          report = pending[0].get();
        }
        AuditReply reply;
        reply.design_name = design.name;
        reply.gate_count = design.netlist.gate_count();
        reply.traces = request.config.tvla.traces;
        reply.report = std::move(report);
        reply.traces_used = reply.report.traces_used();
        reply.early_stopped = reply.report.early_stopped();
        return encode_audit_reply(reply);
      });
}

core::ResultCache::Body Server::serve_mask(serialize::Reader& in,
                                           bool& cache_hit) {
  const MaskRequest request = decode_mask_request(in);
  const std::size_t mask_size =
      request.mask_size != 0 ? request.mask_size : polaris_.config().mask_size;
  return cached_body(
      request.design, request.scale, info_.config_fingerprint,
      {static_cast<std::uint64_t>(RequestKind::kMask), mask_size,
       static_cast<std::uint64_t>(request.mode),
       static_cast<std::uint64_t>(request.verify)},
      cache_hit, [&](const circuits::Design& design) {
        auto outcome = polaris_.mask_design(design, lib_, mask_size,
                                            request.mode, /*verify=*/false);
        MaskReply reply;
        reply.design_name = design.name;
        reply.gate_count = design.netlist.gate_count();
        reply.masked_gate_count = outcome.masked.gate_count();
        reply.selected = std::move(outcome.selected);
        reply.seconds = outcome.seconds;
        reply.verilog = netlist::to_verilog(outcome.masked);
        if (request.verify) {
          // Sign-off campaigns (before on the original, after on the
          // masked netlist) drain the shared queue together, interleaved
          // with every other client's shards.
          const auto tvla_config =
              core::tvla_config_for(polaris_.config(), design);
          auto before = tvla::submit(
              scheduler_,
              std::make_shared<tvla::ShardRunner>(design.netlist, lib_,
                                                  tvla_config),
              design.name + ":before");
          auto after = tvla::submit(
              scheduler_,
              std::make_shared<tvla::ShardRunner>(outcome.masked, lib_,
                                                  tvla_config),
              design.name + ":after");
          scheduler_.drain();
          reply.before = before.get();
          reply.after = after.get();
        }
        return encode_mask_reply(reply);
      });
}

core::ResultCache::Body Server::serve_score(serialize::Reader& in,
                                            bool& cache_hit) {
  const ScoreRequest request = decode_score_request(in);
  return cached_body(
      request.design, request.scale, info_.config_fingerprint,
      {static_cast<std::uint64_t>(RequestKind::kScore),
       static_cast<std::uint64_t>(request.mode)},
      cache_hit, [&](const circuits::Design& design) {
        ScoreReply reply;
        reply.design_name = design.name;
        reply.scores = polaris_.score_gates(design, request.mode);
        return encode_score_reply(reply);
      });
}

core::ResultCache::Body Server::cached_body(
    const std::string& design_name, double scale, std::uint64_t key_seed,
    std::initializer_list<std::uint64_t> key_parts, bool& cache_hit,
    const std::function<std::vector<std::uint8_t>(const circuits::Design&)>&
        compute) {
  circuits::Design design;
  try {
    design = circuits::load_design(design_name, scale);
  } catch (const std::exception& error) {
    throw ServerError(Status::kBadRequest, error.what());
  }
  std::uint64_t key =
      core::ResultCache::combine(key_seed, core::design_fingerprint(design));
  for (const auto part : key_parts) key = core::ResultCache::combine(key, part);
  if (auto cached = cache_.get(key)) {
    cache_hit = true;
    return cached;
  }
  try {
    auto body = std::make_shared<const std::vector<std::uint8_t>>(
        compute(design));
    cache_.put(key, body);
    return body;
  } catch (const std::exception& error) {
    throw ServerError(Status::kServerError, error.what());
  }
}

}  // namespace polaris::server
