#include "server/protocol.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "netlist/netlist_io.hpp"
#include "tvla/moments_io.hpp"

namespace polaris::server {

namespace {

// --- LeakageReport codec (t-values travel as IEEE-754 bit patterns) ---------

void write_report(serialize::Writer& out, const tvla::LeakageReport& report) {
  out.f64(report.threshold());
  out.f64_vec(report.t_values());
  std::vector<bool> measured(report.group_count());
  for (std::size_t g = 0; g < measured.size(); ++g) {
    measured[g] = report.measured(static_cast<netlist::GateId>(g));
  }
  out.bool_vec(measured);
}

tvla::LeakageReport read_report(serialize::Reader& in) {
  const double threshold = in.f64();
  auto t_values = in.f64_vec();
  auto measured = in.bool_vec();
  if (measured.size() != t_values.size()) {
    throw std::runtime_error("polaris serve: leakage report size mismatch");
  }
  return tvla::LeakageReport(std::move(t_values), std::move(measured),
                             threshold);
}

std::uint8_t read_mode(serialize::Reader& in) {
  const std::uint8_t mode = in.u8();
  if (mode > static_cast<std::uint8_t>(core::InferenceMode::kModelPlusRules)) {
    throw std::runtime_error("polaris serve: unknown inference mode " +
                             std::to_string(mode));
  }
  return mode;
}

std::vector<std::uint8_t> finish_request(serialize::Writer& out) {
  return out.finish();
}

serialize::Writer request_header(RequestKind kind) {
  serialize::Writer out;
  out.begin_chunk("POLQ");
  out.u8(static_cast<std::uint8_t>(kind));
  out.end_chunk();
  return out;
}

// --- low-level socket helpers ----------------------------------------------

/// EAGAIN/EWOULDBLOCK (an SO_*TIMEO expiry) retries unless the probe says
/// to abort - how a handler escapes a peer that stalls mid-transfer.
void check_cancelled(const CancelProbe& cancelled, const char* what) {
  if (cancelled && cancelled()) {
    throw std::runtime_error(std::string("polaris serve: ") + what +
                             " cancelled (shutdown while peer stalled)");
  }
}

void write_all(int fd, const std::uint8_t* data, std::size_t size,
               const CancelProbe& cancelled) {
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that disconnected before its response arrives
    // must surface as EPIPE here, not as a process-killing SIGPIPE - one
    // vanished client must never take the daemon (or the CLI) down.
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        check_cancelled(cancelled, "write");
        continue;
      }
      throw std::runtime_error(std::string("polaris serve: socket write: ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes. Returns false on EOF before the first byte
/// when `eof_ok`; EOF mid-buffer always throws (torn frame).
bool read_all(int fd, std::uint8_t* data, std::size_t size, bool eof_ok,
              const CancelProbe& cancelled) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        check_cancelled(cancelled, "read");
        continue;
      }
      throw std::runtime_error(std::string("polaris serve: socket read: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw std::runtime_error("polaris serve: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const char* request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing: return "ping";
    case RequestKind::kAudit: return "audit";
    case RequestKind::kMask: return "mask";
    case RequestKind::kScore: return "score";
    case RequestKind::kShutdown: return "shutdown";
    case RequestKind::kStats: return "stats";
    case RequestKind::kAuditStream: return "audit_stream";
    case RequestKind::kStatus: return "status";
    case RequestKind::kDesign: return "design";
    case RequestKind::kShard: return "shard";
  }
  return "?";
}

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kBadMagic: return "bad frame magic";
    case Status::kBadVersion: return "unsupported protocol version";
    case Status::kTooLarge: return "frame exceeds max-frame limit";
    case Status::kBadPayload: return "malformed payload archive";
    case Status::kBadRequest: return "bad request";
    case Status::kServerError: return "server error";
    case Status::kShuttingDown: return "server shutting down";
    case Status::kUnknownDesign: return "design not installed on worker";
  }
  return "?";
}

// --- request codecs ---------------------------------------------------------

std::vector<std::uint8_t> encode_ping_request() {
  auto out = request_header(RequestKind::kPing);
  return finish_request(out);
}

std::vector<std::uint8_t> encode_shutdown_request() {
  auto out = request_header(RequestKind::kShutdown);
  return finish_request(out);
}

std::vector<std::uint8_t> encode_stats_request() {
  auto out = request_header(RequestKind::kStats);
  return finish_request(out);
}

std::vector<std::uint8_t> encode_status_request() {
  auto out = request_header(RequestKind::kStatus);
  return finish_request(out);
}

namespace {
std::vector<std::uint8_t> encode_audit_request_as(RequestKind kind,
                                                  const AuditRequest& request) {
  auto out = request_header(kind);
  out.begin_chunk("AUDQ");
  out.str(request.design);
  out.f64(request.scale);
  core::write_config(out, request.config);
  out.end_chunk();
  return finish_request(out);
}
}  // namespace

std::vector<std::uint8_t> encode_audit_request(const AuditRequest& request) {
  return encode_audit_request_as(RequestKind::kAudit, request);
}

std::vector<std::uint8_t> encode_audit_stream_request(
    const AuditRequest& request) {
  return encode_audit_request_as(RequestKind::kAuditStream, request);
}

std::vector<std::uint8_t> encode_mask_request(const MaskRequest& request) {
  auto out = request_header(RequestKind::kMask);
  out.begin_chunk("MSKQ");
  out.str(request.design);
  out.f64(request.scale);
  out.u64(request.mask_size);
  out.u8(static_cast<std::uint8_t>(request.mode));
  out.boolean(request.verify);
  out.end_chunk();
  return finish_request(out);
}

std::vector<std::uint8_t> encode_score_request(const ScoreRequest& request) {
  auto out = request_header(RequestKind::kScore);
  out.begin_chunk("SCRQ");
  out.str(request.design);
  out.f64(request.scale);
  out.u8(static_cast<std::uint8_t>(request.mode));
  out.end_chunk();
  return finish_request(out);
}

RequestKind decode_request_kind(serialize::Reader& in) {
  in.enter_chunk("POLQ");
  const std::uint8_t kind = in.u8();
  in.exit_chunk();
  if (kind > static_cast<std::uint8_t>(RequestKind::kShard)) {
    throw std::runtime_error("polaris serve: unknown request kind " +
                             std::to_string(kind));
  }
  return static_cast<RequestKind>(kind);
}

AuditRequest decode_audit_request(serialize::Reader& in) {
  AuditRequest request;
  in.enter_chunk("AUDQ");
  request.design = in.str();
  request.scale = in.f64();
  request.config = core::read_config(in);
  in.exit_chunk();
  return request;
}

MaskRequest decode_mask_request(serialize::Reader& in) {
  MaskRequest request;
  in.enter_chunk("MSKQ");
  request.design = in.str();
  request.scale = in.f64();
  request.mask_size = in.u64();
  request.mode = static_cast<core::InferenceMode>(read_mode(in));
  request.verify = in.boolean();
  in.exit_chunk();
  return request;
}

ScoreRequest decode_score_request(serialize::Reader& in) {
  ScoreRequest request;
  in.enter_chunk("SCRQ");
  request.design = in.str();
  request.scale = in.f64();
  request.mode = static_cast<core::InferenceMode>(read_mode(in));
  in.exit_chunk();
  return request;
}

std::vector<std::uint8_t> encode_design_request(const circuits::Design& design) {
  auto out = request_header(RequestKind::kDesign);
  out.begin_chunk("DSGQ");
  out.u64(core::design_fingerprint(design));
  out.str(design.name);
  out.u64(design.roles.size());
  for (const auto role : design.roles) {
    out.u8(static_cast<std::uint8_t>(role));
  }
  netlist::write_netlist(out, design.netlist);
  out.end_chunk();
  return finish_request(out);
}

DesignRequest decode_design_request(serialize::Reader& in) {
  DesignRequest request;
  in.enter_chunk("DSGQ");
  request.fingerprint = in.u64();
  request.design.name = in.str();
  const std::uint64_t role_count = in.u64();
  if (role_count > in.remaining()) {  // one byte per role
    throw std::runtime_error("polaris serve: role count exceeds payload");
  }
  request.design.roles.reserve(role_count);
  for (std::uint64_t i = 0; i < role_count; ++i) {
    const std::uint8_t role = in.u8();
    if (role > static_cast<std::uint8_t>(circuits::InputRole::kControl)) {
      throw std::runtime_error("polaris serve: unknown input role " +
                               std::to_string(role));
    }
    request.design.roles.push_back(static_cast<circuits::InputRole>(role));
  }
  request.design.netlist = netlist::read_netlist(in);
  in.exit_chunk();
  if (request.design.roles.size() !=
      request.design.netlist.primary_inputs().size()) {
    throw std::runtime_error("polaris serve: design role count does not "
                             "match primary input count");
  }
  // Content check: the recomputed fingerprint must equal the advertised
  // one, or a corrupted/mistranslated design would contaminate every shard
  // result filed under this key.
  if (core::design_fingerprint(request.design) != request.fingerprint) {
    throw std::runtime_error("polaris serve: design fingerprint mismatch "
                             "after decode");
  }
  return request;
}

std::vector<std::uint8_t> encode_shard_request(const ShardRequest& request) {
  auto out = request_header(RequestKind::kShard);
  out.begin_chunk("SHRQ");
  out.u64(request.fingerprint);
  core::write_config(out, request.config);
  out.u64(request.shard_begin);
  out.u64(request.shard_end);
  out.end_chunk();
  return finish_request(out);
}

ShardRequest decode_shard_request(serialize::Reader& in) {
  ShardRequest request;
  in.enter_chunk("SHRQ");
  request.fingerprint = in.u64();
  request.config = core::read_config(in);
  request.shard_begin = in.u64();
  request.shard_end = in.u64();
  in.exit_chunk();
  if (request.shard_begin >= request.shard_end) {
    throw std::runtime_error("polaris serve: empty shard range");
  }
  return request;
}

// --- reply codecs -----------------------------------------------------------

std::vector<std::uint8_t> encode_ping_reply(const PingReply& reply) {
  serialize::Writer out;
  out.begin_chunk("PONG");
  out.u32(reply.protocol);
  out.str(reply.model_name);
  out.u64(reply.config_fingerprint);
  out.u64(reply.requests_served);
  out.u64(reply.cache_hits);
  out.u64(reply.cache_entries);
  // Runtime identity, appended at end-of-chunk (old readers skip it via
  // the chunk length; new readers default the fields when absent).
  out.str(reply.build_type);
  out.str(reply.simd);
  out.u64(reply.lane_words);
  out.end_chunk();
  return out.finish();
}

PingReply decode_ping_reply(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  PingReply reply;
  in.enter_chunk("PONG");
  reply.protocol = in.u32();
  reply.model_name = in.str();
  reply.config_fingerprint = in.u64();
  reply.requests_served = in.u64();
  reply.cache_hits = in.u64();
  reply.cache_entries = in.u64();
  if (in.remaining() > 0) {  // pre-obs daemons end the chunk here
    reply.build_type = in.str();
    reply.simd = in.str();
    reply.lane_words = in.u64();
  }
  in.exit_chunk();
  return reply;
}

std::vector<std::uint8_t> encode_audit_reply(const AuditReply& reply) {
  serialize::Writer out;
  out.begin_chunk("AUDS");
  out.str(reply.design_name);
  out.u64(reply.gate_count);
  out.u64(reply.traces);
  write_report(out, reply.report);
  // Early-stop outcome, appended at end-of-chunk: pre-budget readers skip
  // it via the chunk length, and pre-budget writers simply omit it. Only
  // written when populated, so fixed-budget replies stay byte-identical.
  if (reply.traces_used != 0 || reply.early_stopped) {
    out.u64(reply.traces_used);
    out.boolean(reply.early_stopped);
  }
  out.end_chunk();
  return out.finish();
}

AuditReply decode_audit_reply(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  in.enter_chunk("AUDS");
  AuditReply reply;
  reply.design_name = in.str();
  reply.gate_count = in.u64();
  reply.traces = in.u64();
  reply.report = read_report(in);
  if (in.remaining() > 0) {  // fixed-budget / pre-budget bodies end here
    reply.traces_used = in.u64();
    reply.early_stopped = in.boolean();
    reply.report.set_trace_usage(reply.traces_used, reply.early_stopped);
  }
  in.exit_chunk();
  return reply;
}

std::vector<std::uint8_t> encode_audit_partial(const AuditPartial& partial) {
  serialize::Writer out;
  out.begin_chunk("AUDP");
  out.u64(partial.traces_done);
  out.u64(partial.traces_total);
  write_report(out, partial.report);
  out.end_chunk();
  return out.finish();
}

AuditPartial decode_audit_partial(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  in.enter_chunk("AUDP");
  AuditPartial partial;
  partial.traces_done = in.u64();
  partial.traces_total = in.u64();
  partial.report = read_report(in);
  partial.report.set_trace_usage(partial.traces_done, false);
  in.exit_chunk();
  return partial;
}

bool is_audit_partial(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  return in.peek_tag() == "AUDP";
}

std::vector<std::uint8_t> encode_mask_reply(const MaskReply& reply) {
  serialize::Writer out;
  out.begin_chunk("MSKS");
  out.str(reply.design_name);
  out.u64(reply.gate_count);
  out.u64(reply.masked_gate_count);
  out.u64(reply.selected.size());
  for (const auto gate : reply.selected) out.u32(gate);
  out.f64(reply.seconds);
  out.str(reply.verilog);
  out.boolean(reply.before.has_value());
  if (reply.before.has_value()) {
    write_report(out, *reply.before);
    write_report(out, *reply.after);
  }
  out.end_chunk();
  return out.finish();
}

MaskReply decode_mask_reply(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  in.enter_chunk("MSKS");
  MaskReply reply;
  reply.design_name = in.str();
  reply.gate_count = in.u64();
  reply.masked_gate_count = in.u64();
  const std::uint64_t selected = in.u64();
  // Check-before-allocate: each gate id is 4 payload bytes.
  if (selected > in.remaining() / 4) {
    throw std::runtime_error("polaris serve: selected-gate count exceeds "
                             "payload size");
  }
  reply.selected.reserve(selected);
  for (std::uint64_t i = 0; i < selected; ++i) reply.selected.push_back(in.u32());
  reply.seconds = in.f64();
  reply.verilog = in.str();
  if (in.boolean()) {
    reply.before = read_report(in);
    reply.after = read_report(in);
  }
  in.exit_chunk();
  return reply;
}

std::vector<std::uint8_t> encode_score_reply(const ScoreReply& reply) {
  serialize::Writer out;
  out.begin_chunk("SCRS");
  out.str(reply.design_name);
  out.f64_vec(reply.scores);
  out.end_chunk();
  return out.finish();
}

ScoreReply decode_score_reply(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  in.enter_chunk("SCRS");
  ScoreReply reply;
  reply.design_name = in.str();
  reply.scores = in.f64_vec();
  in.exit_chunk();
  return reply;
}

std::vector<std::uint8_t> encode_shard_reply(const ShardReply& reply) {
  serialize::Writer out;
  out.begin_chunk("SHRS");
  out.u64(reply.shards.size());
  for (const auto& result : reply.shards) {
    out.u64(result.shard);
    tvla::write_moments(out, result.moments);
  }
  out.end_chunk();
  return out.finish();
}

ShardReply decode_shard_reply(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  in.enter_chunk("SHRS");
  ShardReply reply;
  // Check-before-allocate: a shard entry is at least its 8-byte index
  // plus a moments chunk header and counters.
  const std::uint64_t count = in.u64();
  if (count > in.remaining() / 16) {
    throw std::runtime_error("polaris serve: shard count exceeds payload");
  }
  reply.shards.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ShardResult result;
    result.shard = in.u64();
    result.moments = tvla::read_moments(in);
    reply.shards.push_back(std::move(result));
  }
  in.exit_chunk();
  return reply;
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReply& reply) {
  serialize::Writer out;
  out.begin_chunk("STTS");
  out.u32(reply.protocol);
  out.str(reply.model_name);
  out.u64(reply.config_fingerprint);
  out.str(reply.build_type);
  out.str(reply.simd);
  out.u64(reply.lane_words);
  out.u64(reply.requests_served);
  out.u64(reply.connections);
  // Uptime, appended at end-of-chunk: pre-status readers skip it via the
  // chunk length; new readers default it to 0 when absent.
  out.u64(reply.uptime_ms);
  out.end_chunk();
  // The registry snapshot, as its own chunk: counters as (name, value),
  // histograms as (name, count, sum, sparse non-zero buckets).
  out.begin_chunk("SNAP");
  out.u64(reply.snapshot.counters.size());
  for (const auto& counter : reply.snapshot.counters) {
    out.str(counter.name);
    out.u64(counter.value);
  }
  out.u64(reply.snapshot.histograms.size());
  for (const auto& histogram : reply.snapshot.histograms) {
    out.str(histogram.name);
    out.u64(histogram.count);
    out.u64(histogram.sum);
    out.u64(histogram.buckets.size());
    for (const auto& [index, count] : histogram.buckets) {
      out.u32(index);
      out.u64(count);
    }
  }
  out.end_chunk();
  return out.finish();
}

StatsReply decode_stats_reply(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  StatsReply reply;
  in.enter_chunk("STTS");
  reply.protocol = in.u32();
  reply.model_name = in.str();
  reply.config_fingerprint = in.u64();
  reply.build_type = in.str();
  reply.simd = in.str();
  reply.lane_words = in.u64();
  reply.requests_served = in.u64();
  reply.connections = in.u64();
  if (in.remaining() > 0) {  // pre-status daemons end the chunk here
    reply.uptime_ms = in.u64();
  }
  in.exit_chunk();
  in.enter_chunk("SNAP");
  // Check-before-allocate: a counter is at least a length-prefixed name
  // plus a u64, a histogram at least four u64-sized fields, a bucket
  // exactly 12 bytes - so hostile counts are rejected before any reserve.
  const std::uint64_t n_counters = in.u64();
  if (n_counters > in.remaining() / 16) {
    throw std::runtime_error("polaris serve: stats counter count exceeds "
                             "payload size");
  }
  reply.snapshot.counters.reserve(n_counters);
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    obs::CounterSnapshot counter;
    counter.name = in.str();
    counter.value = in.u64();
    reply.snapshot.counters.push_back(std::move(counter));
  }
  const std::uint64_t n_histograms = in.u64();
  if (n_histograms > in.remaining() / 32) {
    throw std::runtime_error("polaris serve: stats histogram count exceeds "
                             "payload size");
  }
  reply.snapshot.histograms.reserve(n_histograms);
  for (std::uint64_t i = 0; i < n_histograms; ++i) {
    obs::HistogramSnapshot histogram;
    histogram.name = in.str();
    histogram.count = in.u64();
    histogram.sum = in.u64();
    const std::uint64_t n_buckets = in.u64();
    if (n_buckets > in.remaining() / 12) {
      throw std::runtime_error("polaris serve: stats bucket count exceeds "
                               "payload size");
    }
    histogram.buckets.reserve(n_buckets);
    for (std::uint64_t b = 0; b < n_buckets; ++b) {
      const std::uint32_t index = in.u32();
      const std::uint64_t count = in.u64();
      histogram.buckets.emplace_back(index, count);
    }
    reply.snapshot.histograms.push_back(std::move(histogram));
  }
  in.exit_chunk();
  return reply;
}

std::vector<std::uint8_t> encode_status_reply(const StatusReply& reply) {
  serialize::Writer out;
  out.begin_chunk("STAT");
  out.u32(reply.protocol);
  out.str(reply.model_name);
  out.u64(reply.requests_served);
  out.u64(reply.connections_active);
  out.u64(reply.connections_total);
  out.u64(reply.uptime_ms);
  out.u64(reply.sample_interval_ms);
  out.u64(reply.samples);
  out.end_chunk();
  out.begin_chunk("INFL");
  out.u64(reply.inflight.size());
  for (const auto& entry : reply.inflight) {
    out.u8(entry.kind);
    out.u64(entry.bytes);
    out.u64(entry.age_us);
  }
  out.end_chunk();
  out.begin_chunk("PROG");
  out.u64(reply.campaigns.size());
  for (const auto& row : reply.campaigns) {
    out.str(row.label);
    out.u64(row.sequence);
    out.u64(row.shards_done);
    out.u64(row.shards_total);
    out.u64(row.queue_position);
    out.u64(row.age_us);
    out.boolean(row.stopped);
  }
  out.end_chunk();
  out.begin_chunk("FREC");
  out.u64(reply.recent.size());
  for (const auto& record : reply.recent) {
    out.u8(record.kind);
    out.u8(record.status);
    out.boolean(record.cache_hit);
    out.u64(record.bytes);
    out.u64(record.duration_us);
    out.u64(record.age_us);
  }
  out.end_chunk();
  // Worker-fleet health, as an appended chunk only when a fleet exists:
  // pre-distributed readers never reach it, pre-distributed writers never
  // emit it, and workerless daemons stay byte-identical to before.
  if (!reply.workers.empty()) {
    out.begin_chunk("WRKR");
    out.u64(reply.workers.size());
    for (const auto& worker : reply.workers) {
      out.str(worker.endpoint);
      out.boolean(worker.alive);
      out.u64(worker.inflight);
      out.u64(worker.shards_done);
      out.u64(worker.bytes_out);
      out.u64(worker.bytes_in);
      out.u64(worker.resends);
    }
    out.end_chunk();
  }
  return out.finish();
}

StatusReply decode_status_reply(std::span<const std::uint8_t> body) {
  serialize::Reader in(std::vector<std::uint8_t>(body.begin(), body.end()));
  StatusReply reply;
  in.enter_chunk("STAT");
  reply.protocol = in.u32();
  reply.model_name = in.str();
  reply.requests_served = in.u64();
  reply.connections_active = in.u64();
  reply.connections_total = in.u64();
  reply.uptime_ms = in.u64();
  reply.sample_interval_ms = in.u64();
  reply.samples = in.u64();
  in.exit_chunk();
  in.enter_chunk("INFL");
  // Check-before-allocate, like the stats codec: an in-flight entry is
  // exactly 17 payload bytes, a progress row at least a length-prefixed
  // label plus five u64s and a bool, a flight record exactly 27 bytes -
  // hostile counts are rejected before any reserve.
  const std::uint64_t n_inflight = in.u64();
  if (n_inflight > in.remaining() / 17) {
    throw std::runtime_error("polaris serve: in-flight count exceeds "
                             "payload size");
  }
  reply.inflight.reserve(n_inflight);
  for (std::uint64_t i = 0; i < n_inflight; ++i) {
    InflightEntry entry;
    entry.kind = in.u8();
    entry.bytes = in.u64();
    entry.age_us = in.u64();
    reply.inflight.push_back(entry);
  }
  in.exit_chunk();
  in.enter_chunk("PROG");
  const std::uint64_t n_campaigns = in.u64();
  if (n_campaigns > in.remaining() / 48) {
    throw std::runtime_error("polaris serve: campaign count exceeds "
                             "payload size");
  }
  reply.campaigns.reserve(n_campaigns);
  for (std::uint64_t i = 0; i < n_campaigns; ++i) {
    engine::CampaignProgress row;
    row.label = in.str();
    row.sequence = in.u64();
    row.shards_done = static_cast<std::size_t>(in.u64());
    row.shards_total = static_cast<std::size_t>(in.u64());
    row.queue_position = static_cast<std::size_t>(in.u64());
    row.age_us = in.u64();
    row.stopped = in.boolean();
    reply.campaigns.push_back(std::move(row));
  }
  in.exit_chunk();
  in.enter_chunk("FREC");
  const std::uint64_t n_records = in.u64();
  if (n_records > in.remaining() / 27) {
    throw std::runtime_error("polaris serve: flight-record count exceeds "
                             "payload size");
  }
  reply.recent.reserve(n_records);
  for (std::uint64_t i = 0; i < n_records; ++i) {
    FlightRecordEntry record;
    record.kind = in.u8();
    record.status = in.u8();
    record.cache_hit = in.boolean();
    record.bytes = in.u64();
    record.duration_us = in.u64();
    record.age_us = in.u64();
    reply.recent.push_back(record);
  }
  in.exit_chunk();
  if (in.try_enter_chunk("WRKR")) {
    // A worker row is at least a length-prefixed endpoint, a bool, and
    // five u64s.
    const std::uint64_t n_workers = in.u64();
    if (n_workers > in.remaining() / 49) {
      throw std::runtime_error("polaris serve: worker count exceeds "
                               "payload size");
    }
    reply.workers.reserve(n_workers);
    for (std::uint64_t i = 0; i < n_workers; ++i) {
      WorkerHealthEntry worker;
      worker.endpoint = in.str();
      worker.alive = in.boolean();
      worker.inflight = in.u64();
      worker.shards_done = in.u64();
      worker.bytes_out = in.u64();
      worker.bytes_in = in.u64();
      worker.resends = in.u64();
      reply.workers.push_back(std::move(worker));
    }
    in.exit_chunk();
  }
  return reply;
}

// --- response envelope ------------------------------------------------------

std::vector<std::uint8_t> encode_response(Status status,
                                          const std::string& message,
                                          bool cache_hit,
                                          std::span<const std::uint8_t> body) {
  serialize::Writer out;
  out.begin_chunk("POLS");
  out.u8(static_cast<std::uint8_t>(status));
  out.str(message);
  out.boolean(cache_hit);
  out.end_chunk();
  if (!body.empty()) {
    out.begin_chunk("BODY");
    out.u8_vec(body);
    out.end_chunk();
  }
  return out.finish();
}

Response decode_response(std::vector<std::uint8_t> payload) {
  serialize::Reader in(std::move(payload));
  Response response;
  in.enter_chunk("POLS");
  const std::uint8_t status = in.u8();
  if (status > static_cast<std::uint8_t>(Status::kUnknownDesign)) {
    throw std::runtime_error("polaris serve: unknown status code " +
                             std::to_string(status));
  }
  response.status = static_cast<Status>(status);
  response.message = in.str();
  response.cache_hit = in.boolean();
  in.exit_chunk();
  if (in.try_enter_chunk("BODY")) {
    response.body = in.u8_vec();
    in.exit_chunk();
  }
  return response;
}

// --- frame I/O --------------------------------------------------------------

FrameResult read_frame(int fd, std::size_t max_frame,
                       std::vector<std::uint8_t>& payload,
                       const CancelProbe& cancelled) {
  std::uint8_t header[kFrameHeaderSize];
  if (!read_all(fd, header, sizeof(header), /*eof_ok=*/true, cancelled)) {
    return FrameResult::kClosed;
  }
  if (std::memcmp(header, kFrameMagic, 4) != 0) return FrameResult::kBadMagic;
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(header[4 + i]) << (8 * i);
  }
  if (version > kProtocolVersion) return FrameResult::kBadVersion;
  std::uint64_t length = 0;
  for (int i = 0; i < 8; ++i) {
    length |= static_cast<std::uint64_t>(header[8 + i]) << (8 * i);
  }
  // The max-frame gate runs BEFORE the payload buffer exists: a corrupt or
  // hostile length field never drives an allocation.
  if (length > max_frame) return FrameResult::kTooLarge;
  payload.resize(static_cast<std::size_t>(length));
  if (length > 0) {
    read_all(fd, payload.data(), payload.size(), /*eof_ok=*/false, cancelled);
  }
  return FrameResult::kFrame;
}

void write_frame(int fd, std::span<const std::uint8_t> payload,
                 const CancelProbe& cancelled) {
  std::uint8_t header[kFrameHeaderSize];
  std::memcpy(header, kFrameMagic, 4);
  for (int i = 0; i < 4; ++i) {
    header[4 + i] = static_cast<std::uint8_t>(kProtocolVersion >> (8 * i));
  }
  const std::uint64_t length = payload.size();
  for (int i = 0; i < 8; ++i) {
    header[8 + i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  write_all(fd, header, sizeof(header), cancelled);
  if (!payload.empty()) {
    write_all(fd, payload.data(), payload.size(), cancelled);
  }
}

}  // namespace polaris::server
