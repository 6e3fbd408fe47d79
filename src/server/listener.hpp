// The connection lifecycle shared by the serve daemon and the shard worker:
// bind an endpoint, accept on a poll loop, run one handler thread per
// connection, read PLFR frames, and drain gracefully on stop.
//
// The owner supplies one handler that serves a decoded request payload and
// writes its reply with reply(). Everything below the payload is here,
// once: the wake pipe, SO_RCVTIMEO/SO_SNDTIMEO on every accepted socket
// (so a peer stalled mid-frame cannot pin a handler across a drain), the
// structured error frame and close for a bad magic, a bad version or an
// oversized frame, reaping of finished connections, and the drain itself:
// stop accepting, let every handler finish its in-flight request and
// deliver the response, then unlink a UDS socket file.
//
// Metrics carry the prefix given at construction ("server" for the daemon,
// "worker" for the shard worker): <prefix>.frames_in, .frames_out,
// .frame_errors, .connections_opened, .connections_closed and the
// .drain_us histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "server/net.hpp"

namespace polaris::server {

class FrameListener {
 public:
  /// Serves one request payload read from `fd`. Returns false when the
  /// connection should close (a served shutdown request).
  using Handler =
      std::function<bool(int fd, std::vector<std::uint8_t>& payload)>;

  /// Binds + listens on the endpoint spec (see net.hpp). Throws
  /// std::runtime_error on failure. No connection is accepted until
  /// start().
  FrameListener(const std::string& spec, int backlog, std::size_t max_frame,
                const std::string& prefix, Handler handler);
  /// Stops (as request_stop + wait) if still running, then closes fds.
  ~FrameListener();

  FrameListener(const FrameListener&) = delete;
  FrameListener& operator=(const FrameListener&) = delete;

  /// Spawns the accept loop. Call once.
  void start();

  /// Graceful stop: no new connections, in-flight requests complete.
  /// Async-signal-safe (one write to an internal pipe), so SIGINT/SIGTERM
  /// handlers may call it directly. Idempotent.
  void request_stop();

  /// Blocks until the accept loop and every handler have exited. A UDS
  /// socket file is unlinked before it returns.
  void wait();

  /// Writes one response frame and counts it as served. The send gives up
  /// only on a timeout during a drain: a cooperating client (blocked in
  /// read) always gets its response. Throws on a torn peer.
  void reply(int fd, std::span<const std::uint8_t> response);

  /// True from the start of the drain on.
  [[nodiscard]] bool stopping() const { return stopping_.load(); }
  /// The endpoint actually bound (an ephemeral TCP port 0 resolved).
  [[nodiscard]] const net::Endpoint& endpoint() const { return endpoint_; }
  /// Responses sent, error frames included.
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load();
  }
  /// Connections accepted over the lifetime.
  [[nodiscard]] std::uint64_t connections_total() const {
    return connections_total_.load();
  }
  /// Connections whose handler is still running.
  [[nodiscard]] std::uint64_t connections_active();

 private:
  /// One accepted connection: its handler thread plus a completion flag
  /// the accept loop reaps on (a long-lived process must not accumulate a
  /// dead thread per past connection).
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  /// Joins and discards connections whose handlers have finished. Only
  /// ever called from the accept thread.
  void reap_finished_connections();
  void handle_connection(int fd);

  std::size_t max_frame_;
  std::string prefix_;
  Handler handler_;
  net::Endpoint endpoint_;
  obs::Counter& frames_in_;
  obs::Counter& frames_out_;
  obs::Counter& frame_errors_;
  obs::Counter& opened_;
  obs::Counter& closed_;
  obs::Histogram& drain_us_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> connections_total_{0};

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  bool started_ = false;
  std::thread accept_thread_;
};

}  // namespace polaris::server
