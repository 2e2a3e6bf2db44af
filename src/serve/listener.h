// Connection core of the serving front ends (serve::Server, serve::Router):
// a TCP listener whose accept thread gives every connection blocking I/O,
// TCP_NODELAY, a 5 s SO_SNDTIMEO and a session thread of its own. When a
// session returns, its socket is shut down so the peer sees EOF at once.
//
// Accept errors: running out of fds or memory (EMFILE, ENFILE, ENOBUFS,
// ENOMEM, or any errno not named here) waits kAcceptBackoffMs on the
// self-pipe stop_accepting() writes to, then retries; per-connection
// failures (EINTR, ECONNABORTED, EAGAIN, EPROTO and the network errors
// accept(2) says to treat like EAGAIN) retry at once. Only the wake byte or
// an invalid listener (EBADF, EINVAL, ENOTSOCK) ends the loop.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics.h"
#include "support/json.h"

namespace chainnet::serve {

/// Answers a request of a type serve_frames() does not handle itself with
/// the serialized response, or nullopt when the type is unknown. `payload`
/// is the raw frame, for a front end that relays it.
using RequestHandler = std::function<std::optional<std::string>(
    const std::string& type, const support::Json& request,
    const std::string& payload)>;

class Listener {
 public:
  /// Serves one accepted connection until it returns. The listener owns
  /// `fd` and closes it after the session has returned.
  using Session = std::function<void(int fd)>;

  explicit Listener(Session session);
  ~Listener();  // stop()

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds host:port (0 picks an ephemeral port) and starts the accept
  /// thread. Throws std::runtime_error when the socket cannot be bound or
  /// the listener was started or stopped before.
  void start(const std::string& host, int port);

  /// The bound port; -1 until start().
  int port() const noexcept { return port_; }

  /// Blocks until a client sent {"type":"shutdown"} or stop_accepting()
  /// ran; wait_for returns false on timeout. wait_stopped_for ignores the
  /// shutdown request: it is the sleep of a front end's periodic thread.
  void wait();
  bool wait_for(std::chrono::milliseconds timeout);
  bool wait_stopped_for(std::chrono::milliseconds timeout);

  /// Joins the accept thread and closes the listener. True only for the
  /// call that stopped a running listener: it owns the rest of shutdown.
  bool stop_accepting();
  /// Half-closes every connection (SHUT_RD: a blocked recv sees EOF, a
  /// response being written still goes out) and joins its session. Call
  /// after stop_accepting(); a front end drains its own work in between.
  void close_connections();
  void stop() {
    stop_accepting();
    close_connections();
  }

  /// The session both front ends run: one response per request frame, in
  /// order, until the peer closes, a write fails, or a framing error (one
  /// parse_error reply). Answers ping and shutdown itself, hands other
  /// types to `handler`; `latency` times frame decoded -> response written.
  void serve_frames(int fd, FrameMetrics& metrics,
                    LatencyHistogram& latency, const RequestHandler& handler);

 private:
  struct Connection;

  void accept_loop();
  void close_fds() noexcept;
  std::string respond(const std::string& payload, FrameMetrics& metrics,
                      const RequestHandler& handler);

  Session session_;

  std::mutex state_mutex_;
  std::condition_variable state_cv_;
  bool started_ = false;             // GUARDED_BY(state_mutex_)
  bool stopped_ = false;             // GUARDED_BY(state_mutex_)
  bool shutdown_requested_ = false;  // GUARDED_BY(state_mutex_)

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = -1;

  std::mutex conn_mutex_;
  std::vector<std::unique_ptr<Connection>>
      connections_;  // GUARDED_BY(conn_mutex_)
  std::thread accept_thread_;
};

}  // namespace chainnet::serve
