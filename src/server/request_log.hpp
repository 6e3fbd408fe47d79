// The serve daemon's request log: each request from decode until it falls
// off the ring of the last kDepth completions, in two tables under one
// mutex.
//
// begin() lists a decoded request as in flight. finish() moves it to the
// completed ring in the same critical section, and the daemon calls it
// before it writes the reply frame. So a status poll sees every request in
// exactly one of the two tables, and a request whose reply cannot be
// delivered (the client timed out or hung up) is still recorded as
// completed: its compute ran and its body is in the result cache.
//
// finish() writes every per-request record: the ring entry, the
// server.<kind>_us service-time histogram, server.request_errors, and for
// a request of kSlowUs or more server.slow_requests plus one rate-limited
// obs::log line.
//
// Pure telemetry: nothing here feeds responses, caches, or result bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "server/protocol.hpp"

namespace polaris::server {

class RequestLog {
 public:
  /// Completed requests kept for status.
  static constexpr std::size_t kDepth = 64;
  /// Service time from which a request counts as slow (1 s).
  static constexpr std::uint64_t kSlowUs = 1'000'000;
  /// Kind of a payload that never yielded a RequestKind. Decode rejects
  /// every kind above kShard, so it never collides with a real one.
  static constexpr std::uint8_t kUndecoded = 0xFF;

  /// One request from its arrival to finish().
  struct Request {
    std::uint8_t kind = kUndecoded;  // RequestKind as sent on the wire
    std::uint64_t bytes = 0;         // request payload size
    std::int64_t start_ns = 0;       // obs::now_ns() at arrival
    std::uint64_t token = 0;         // nonzero while listed in flight
  };

  struct Tables {
    std::vector<InflightEntry> inflight;    // oldest first
    std::vector<FlightRecordEntry> recent;  // newest first
  };

  /// Lists `request` as in flight until finish().
  void begin(Request& request);

  /// Records `request` as completed with `status`: out of the in-flight
  /// table and into the ring in one step, plus its metrics. Its duration
  /// runs from start_ns to this call.
  void finish(const Request& request, Status status, bool cache_hit);

  /// Both tables at one instant. Ages are taken from a clock read under
  /// the lock and clamp at 0, so a poll never reports a wrapped age.
  [[nodiscard]] Tables snapshot() const;

 private:
  struct Completed {
    FlightRecordEntry entry;  // age_us is filled in by snapshot()
    std::int64_t completed_ns = 0;
  };

  mutable std::mutex mutex_;
  std::uint64_t next_token_ = 1;
  std::vector<Request> inflight_;  // begin order
  std::deque<Completed> recent_;   // oldest first, at most kDepth
};

}  // namespace polaris::server
