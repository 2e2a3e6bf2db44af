#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

namespace chainnet::serve {

namespace {

struct CodeName {
  ErrorCode code;
  std::string_view name;
};

constexpr CodeName kCodeNames[] = {
    {ErrorCode::kParseError, "parse_error"},
    {ErrorCode::kBadRequest, "bad_request"},
    {ErrorCode::kUnknownSystem, "unknown_system"},
    {ErrorCode::kOverloaded, "overloaded"},
    {ErrorCode::kDeadlineExceeded, "deadline_exceeded"},
    {ErrorCode::kShuttingDown, "shutting_down"},
    {ErrorCode::kInternal, "internal"},
    {ErrorCode::kUpstreamFailed, "upstream_failed"},
};

/// Returns bytes read (== size), 0 on EOF at the first byte, -1 on error
/// or EOF mid-buffer.
int recv_all(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n == 0) return got == 0 ? 0 : -1;  // clean close vs truncation
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<std::size_t>(n);
  }
  return static_cast<int>(size);
}

}  // namespace

bool ipv4_address(const std::string& host, int port, sockaddr_in& out) {
  out = sockaddr_in{};
  if (port < 0 || port > 65535) return false;
  out.sin_family = AF_INET;
  out.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  return ::inet_pton(AF_INET, numeric.c_str(), &out.sin_addr) == 1;
}

bool send_all(int fd, std::string_view data) {
  // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not a process-killing
  // signal.
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void set_low_latency(int fd) noexcept {
  const int one = 1;
  // Fails with ENOTSUP/EOPNOTSUPP on non-TCP sockets; deliberately ignored.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::string_view error_code_name(ErrorCode code) noexcept {
  for (const auto& entry : kCodeNames) {
    if (entry.code == code) return entry.name;
  }
  return "internal";
}

std::optional<ErrorCode> error_code_from_name(
    std::string_view name) noexcept {
  for (const auto& entry : kCodeNames) {
    if (entry.name == name) return entry.code;
  }
  return std::nullopt;
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) return false;
  const auto size = static_cast<std::uint32_t>(payload.size());
  // Prefix and payload go out as one buffer: a separate 4-byte send would
  // interact with Nagle + delayed ACK on TCP and stall each request-reply
  // round trip by tens of milliseconds.
  std::string frame;
  frame.reserve(sizeof(std::uint32_t) + payload.size());
  frame.push_back(static_cast<char>((size >> 24) & 0xff));
  frame.push_back(static_cast<char>((size >> 16) & 0xff));
  frame.push_back(static_cast<char>((size >> 8) & 0xff));
  frame.push_back(static_cast<char>(size & 0xff));
  frame.append(payload);
  return send_all(fd, frame);
}

FrameStatus read_frame(int fd, std::string& payload, std::string& error) {
  char prefix[4];
  const int head = recv_all(fd, prefix, sizeof(prefix));
  if (head == 0) return FrameStatus::kClosed;
  if (head < 0) {
    error = "truncated length prefix";
    return FrameStatus::kError;
  }
  const std::uint32_t size =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0]))
       << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2]))
       << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]));
  if (size > kMaxFramePayload) {
    error = "frame payload of " + std::to_string(size) +
            " bytes exceeds the " + std::to_string(kMaxFramePayload) +
            " byte limit";
    return FrameStatus::kError;
  }
  payload.resize(size);
  if (size > 0 && recv_all(fd, payload.data(), size) < 0) {
    error = "connection closed mid-frame";
    return FrameStatus::kError;
  }
  return FrameStatus::kOk;
}

edge::Placement parse_placement(const support::Json& rows) {
  std::vector<std::vector<int>> assignment;
  for (const auto& row : rows.as_array()) {
    std::vector<int> devices;
    for (const auto& dev : row.as_array()) {
      const double v = dev.as_number();
      // static_cast<int> of an out-of-range double is undefined behavior,
      // so the range check must precede the cast.
      if (v != std::floor(v) ||
          v < static_cast<double>(std::numeric_limits<int>::min()) ||
          v > static_cast<double>(std::numeric_limits<int>::max())) {
        throw support::JsonError(
            "device index must be an integer in int range", 0);
      }
      devices.push_back(static_cast<int>(v));
    }
    assignment.push_back(std::move(devices));
  }
  return edge::Placement(std::move(assignment));
}

support::Json ok_response() {
  support::Json response;
  response["ok"] = support::Json(true);
  return response;
}

support::Json error_response(ErrorCode code, const std::string& message) {
  support::Json detail;
  detail["code"] = support::Json(std::string(error_code_name(code)));
  detail["message"] = support::Json(message);
  support::Json response;
  response["ok"] = support::Json(false);
  response["error"] = std::move(detail);
  return response;
}

}  // namespace chainnet::serve
