// Wire protocol of the surrogate serving layer: length-prefixed JSON over
// a stream socket.
//
// Frame:   [u32 payload length, big-endian][payload bytes]
// Payload: one JSON document (support::Json), parsed with the hardened
//          depth-limited parser since it arrives off the wire.
//
// Requests are objects tagged by "type":
//   {"type":"eval","system":"default","deadline_ms":5,
//    "placements":[[[0,1,2],[1,3]], ...]}       -> {"ok":true,"values":[..]}
//   {"type":"stats"}                            -> {"ok":true, ...counters}
//   {"type":"load_system","name":"x","system":{...}}  -> {"ok":true}
//   {"type":"reload","manifest":"path.json"}    -> {"ok":true,"version":2,
//                                                   "checksum":"fnv1a:..."}
//   {"type":"ping"} / {"type":"shutdown"}       -> {"ok":true}
// Failures are typed:
//   {"ok":false,"error":{"code":"overloaded","message":"..."}}
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "edge/placement.h"
#include "support/json.h"

struct sockaddr_in;

namespace chainnet::serve {

/// Upper bound on a frame payload; larger prefixes are a protocol error
/// (never allocated), so a hostile length prefix cannot balloon memory.
inline constexpr std::uint32_t kMaxFramePayload = 8u << 20;

enum class ErrorCode {
  kParseError,        ///< frame was not valid JSON / violated framing
  kBadRequest,        ///< well-formed JSON, invalid request
  kUnknownSystem,     ///< eval named a system the server has not loaded
  kOverloaded,        ///< admission control: pending queue full
  kDeadlineExceeded,  ///< request expired before evaluation
  kShuttingDown,      ///< server is draining; no new work admitted
  kInternal,          ///< evaluator threw
  kUpstreamFailed,    ///< router: every candidate backend failed mid-request
};

std::string_view error_code_name(ErrorCode code) noexcept;
std::optional<ErrorCode> error_code_from_name(std::string_view name) noexcept;

/// Typed failure the client raises when the server answers {"ok":false}.
class ServeError : public std::runtime_error {
 public:
  ServeError(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(error_code_name(code)) + ": " +
                           message),
        code_(code) {}
  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

enum class FrameStatus {
  kOk,      ///< payload filled
  kClosed,  ///< peer closed cleanly before a frame started
  kError,   ///< truncated frame, oversized prefix, or socket error
};

/// Disables Nagle's algorithm (TCP_NODELAY) on a TCP socket so small
/// request/response frames are not held back waiting for ACKs. A no-op on
/// non-TCP sockets (e.g. the socketpairs tests use).
void set_low_latency(int fd) noexcept;

/// Fills `out` with host:port as an IPv4 address. `host` is a dotted quad
/// or "localhost" (127.0.0.1) and `port` lies in [0, 65535]; anything else
/// returns false.
bool ipv4_address(const std::string& host, int port, sockaddr_in& out);

/// Sends all of `data`, looping over EINTR and short writes. Returns false
/// when the peer is gone (EPIPE/ECONNRESET — never raises SIGPIPE) or a
/// send timeout expired.
bool send_all(int fd, std::string_view data);

/// Writes one frame; loops over partial writes. Returns false when the
/// peer is gone (EPIPE/ECONNRESET — never raises SIGPIPE).
bool write_frame(int fd, std::string_view payload);

/// Reads one frame into `payload`. kError fills `error` with a diagnostic;
/// EOF mid-frame is kError (truncation), EOF on the prefix boundary is a
/// clean kClosed.
FrameStatus read_frame(int fd, std::string& payload, std::string& error);

/// Decodes one placement of an eval request: rows of device indices, one
/// row per chain. Throws support::JsonError on a wrong-typed value or an
/// index that is not an integer in int range.
edge::Placement parse_placement(const support::Json& rows);

/// Response builders shared by server, client and tests.
support::Json ok_response();
support::Json error_response(ErrorCode code, const std::string& message);

}  // namespace chainnet::serve
