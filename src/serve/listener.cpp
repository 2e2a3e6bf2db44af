#include "serve/listener.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "serve/protocol.h"

namespace chainnet::serve {

struct Listener::Connection {
  int fd = -1;
  std::atomic<bool> done{false};
  std::thread thread;

  void join_and_close() {
    if (thread.joinable()) thread.join();
    ::close(fd);
  }
};

namespace {

using Clock = std::chrono::steady_clock;

/// The accept loop's pause after accept() ran out of fds or memory: poll()
/// reports the pending connection again at once, so no pause would spin.
constexpr int kAcceptBackoffMs = 50;

/// Bounds a write to a peer that stopped reading, so it cannot hang stop().
constexpr timeval kSendTimeout{5, 0};

/// accept() failures that concern one pending connection, not the process;
/// accept(2) says to treat the network errors like EAGAIN.
constexpr int kRetryAtOnce[] = {EINTR,     ECONNABORTED, EAGAIN,
                                EPROTO,    ENETDOWN,     ENOPROTOOPT,
                                EHOSTDOWN, ENONET,       EHOSTUNREACH,
                                EOPNOTSUPP, ENETUNREACH};

}  // namespace

Listener::Listener(Session session) : session_(std::move(session)) {}

Listener::~Listener() { stop(); }

void Listener::start(const std::string& host, int port) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (started_ || stopped_) {
      throw std::runtime_error("listener already started");
    }
  }
  sockaddr_in addr;
  if (!ipv4_address(host, port, addr)) {
    throw std::runtime_error("listen on " + host + ":" +
                             std::to_string(port) +
                             ": not an IPv4 address and port");
  }
  const int one = 1;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0 ||
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) != 0 ||
      ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0 || ::pipe(wake_pipe_) != 0) {
    const std::string detail = std::strerror(errno);
    close_fds();
    throw std::runtime_error("listen on " + host + ":" +
                             std::to_string(port) + ": " + detail);
  }
  // Non-blocking, so accept() cannot block on a connection that aborted
  // between poll() and the call.
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    started_ = true;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Listener::close_fds() noexcept {
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void Listener::wait() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait(lock, [this] { return shutdown_requested_ || stopped_; });
}

bool Listener::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  return state_cv_.wait_for(
      lock, timeout, [this] { return shutdown_requested_ || stopped_; });
}

bool Listener::wait_stopped_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  return state_cv_.wait_for(lock, timeout, [this] { return stopped_; });
}

bool Listener::stop_accepting() {
  bool was_running = false;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    was_running = started_ && !stopped_;
    stopped_ = true;
  }
  state_cv_.notify_all();
  if (!was_running) return false;
  const char wake = 1;
  while (::write(wake_pipe_[1], &wake, 1) < 0 && errno == EINTR) {
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  close_fds();
  return true;
}

void Listener::close_connections() {
  // Swap under the lock; shut down, join and close outside it.
  std::vector<std::unique_ptr<Connection>> doomed;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    doomed.swap(connections_);
  }
  for (auto& conn : doomed) {
    if (!conn->done.load(std::memory_order_acquire)) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (auto& conn : doomed) conn->join_and_close();
}

void Listener::accept_loop() {
  bool backing_off = false;
  for (;;) {
    // While backing off, only the wake pipe is watched, for the backoff.
    pollfd fds[2] = {
        {wake_pipe_[0], POLLIN, 0},
        {listen_fd_, static_cast<short>(backing_off ? 0 : POLLIN), 0}};
    const int ready = ::poll(fds, 2, backing_off ? kAcceptBackoffMs : -1);
    backing_off = false;
    if (ready < 0) {
      backing_off = errno != EINTR;
      continue;
    }
    if (fds[0].revents != 0) return;  // stop_accepting() wrote the wake byte
    if ((fds[1].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EBADF || err == EINVAL || err == ENOTSOCK) return;
      backing_off = std::find(std::begin(kRetryAtOnce), std::end(kRetryAtOnce),
                              err) == std::end(kRetryAtOnce);
      continue;
    }
    // Blocking I/O: on the BSDs, accepted sockets inherit O_NONBLOCK.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    set_low_latency(fd);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kSendTimeout,
                 sizeof(kSendTimeout));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    try {
      conn->thread = std::thread([this, raw = conn.get()] {
        session_(raw->fd);
        ::shutdown(raw->fd, SHUT_RDWR);
        raw->done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error&) {
      ::close(fd);  // out of threads: the same policy as out of fds
      backing_off = true;
      continue;
    }
    // Reap the finished sessions while adding the new one; they are joined
    // outside the lock.
    std::vector<std::unique_ptr<Connection>> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      const auto first_done = std::partition(
          connections_.begin(), connections_.end(), [](const auto& c) {
            return !c->done.load(std::memory_order_acquire);
          });
      finished.assign(std::make_move_iterator(first_done),
                      std::make_move_iterator(connections_.end()));
      connections_.erase(first_done, connections_.end());
      connections_.push_back(std::move(conn));
    }
    for (auto& done : finished) done->join_and_close();
  }
}

void Listener::serve_frames(int fd, FrameMetrics& metrics,
                            LatencyHistogram& latency,
                            const RequestHandler& handler) {
  metrics.connections_accepted.add();
  std::string payload;
  std::string frame_error;
  for (;;) {
    const FrameStatus status = read_frame(fd, payload, frame_error);
    if (status == FrameStatus::kClosed) return;
    if (status == FrameStatus::kError) {
      // Framing is unrecoverable: answer once, then hang up.
      metrics.parse_errors.add();
      write_frame(fd,
                  error_response(ErrorCode::kParseError, frame_error).dump());
      return;
    }
    const auto start = Clock::now();
    metrics.requests_total.add();
    std::string response;
    try {
      response = respond(payload, metrics, handler);
    } catch (const std::exception& e) {
      // Last-resort guard: an exception escaping a session thread would
      // std::terminate the whole process.
      metrics.bad_requests.add();
      response = error_response(ErrorCode::kInternal, e.what()).dump();
    }
    const bool written = write_frame(fd, response);
    latency.record(std::chrono::duration<double>(Clock::now() - start).count());
    if (!written) return;
  }
}

std::string Listener::respond(const std::string& payload,
                              FrameMetrics& metrics,
                              const RequestHandler& handler) {
  support::Json request;
  try {
    request = support::Json::parse(payload);
  } catch (const support::JsonError& e) {
    metrics.parse_errors.add();
    return error_response(ErrorCode::kParseError, e.what()).dump();
  }
  if (!request.is_object() || !request.has("type") ||
      !request.at("type").is_string()) {
    metrics.bad_requests.add();
    return error_response(ErrorCode::kBadRequest,
                          "request must be an object with a \"type\" string")
        .dump();
  }
  const std::string& type = request.at("type").as_string();
  if (type == "ping") return ok_response().dump();
  if (type == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      shutdown_requested_ = true;
    }
    state_cv_.notify_all();
    return ok_response().dump();
  }
  if (auto out = handler(type, request, payload)) return std::move(*out);
  metrics.bad_requests.add();
  return error_response(ErrorCode::kBadRequest,
                        "unknown request type '" + type + "'")
      .dump();
}

}  // namespace chainnet::serve
