#include "server/request_log.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "obs/obs.hpp"

namespace polaris::server {

namespace {

/// Per-request-type service-time histogram "server.<kind>_us", one per
/// kind decode_request_kind accepts, all registered on first use; null for
/// any other wire kind.
obs::Histogram* request_histogram(std::uint8_t kind) {
  using Table =
      std::array<obs::Histogram*,
                 static_cast<std::size_t>(RequestKind::kShard) + 1>;
  static const Table table = [] {
    Table histograms{};
    for (std::size_t i = 0; i < histograms.size(); ++i) {
      if (i == kRetiredStatsKind) continue;
      histograms[i] = &obs::Registry::global().histogram(
          std::string("server.") +
          request_kind_name(static_cast<RequestKind>(i)) + "_us");
    }
    return histograms;
  }();
  return kind < table.size() ? table[kind] : nullptr;
}

/// Microseconds from `from_ns` to `now_ns`; 0 for a stamp newer than now.
std::uint64_t elapsed_us(std::int64_t now_ns, std::int64_t from_ns) {
  return now_ns > from_ns ? static_cast<std::uint64_t>(now_ns - from_ns) / 1000
                          : 0;
}

}  // namespace

void RequestLog::begin(Request& request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  request.token = next_token_++;
  inflight_.push_back(request);
}

void RequestLog::finish(const Request& request, Status status,
                        bool cache_hit) {
  static auto& errors =
      obs::Registry::global().counter("server.request_errors");
  static auto& slow = obs::Registry::global().counter("server.slow_requests");
  FlightRecordEntry record;
  record.kind = request.kind;
  record.status = static_cast<std::uint8_t>(status);
  record.cache_hit = cache_hit;
  record.bytes = request.bytes;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t now = obs::now_ns();
    record.duration_us = elapsed_us(now, request.start_ns);
    if (request.token != 0) {
      std::erase_if(inflight_, [&](const Request& listed) {
        return listed.token == request.token;
      });
    }
    recent_.push_back({record, now});
    if (recent_.size() > kDepth) recent_.pop_front();
  }
  if (auto* histogram = request_histogram(request.kind)) {
    histogram->record(record.duration_us);
  }
  if (status != Status::kOk) errors.add();
  if (record.duration_us >= kSlowUs) {
    slow.add();
    // obs::log is already token-bucket limited, so a pathological burst of
    // slow requests costs a handful of lines plus obs.log_suppressed.
    // kUndecoded names itself "?".
    obs::log("server", "slow request: kind=" +
                           std::string(request_kind_name(
                               static_cast<RequestKind>(request.kind))) +
                           " duration_us=" + std::to_string(record.duration_us) +
                           " bytes=" + std::to_string(record.bytes) +
                           " status=" + std::to_string(record.status) +
                           (cache_hit ? " cache_hit" : ""));
  }
}

RequestLog::Tables RequestLog::snapshot() const {
  Tables tables;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t now = obs::now_ns();
  tables.inflight.reserve(inflight_.size());
  for (const Request& request : inflight_) {
    tables.inflight.push_back(
        {request.kind, request.bytes, elapsed_us(now, request.start_ns)});
  }
  // Oldest first. Begin order is nearly that already, but a request is
  // stamped at arrival and listed only after its decode.
  std::stable_sort(tables.inflight.begin(), tables.inflight.end(),
                   [](const InflightEntry& a, const InflightEntry& b) {
                     return a.age_us > b.age_us;
                   });
  tables.recent.reserve(recent_.size());
  for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
    tables.recent.push_back(it->entry);
    tables.recent.back().age_us = elapsed_us(now, it->completed_ns);
  }
  return tables;
}

}  // namespace polaris::server
