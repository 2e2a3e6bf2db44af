// Framing and request/response encoding of the serving protocol, exercised
// over socketpairs so the byte-level path (prefix encoding, partial reads,
// truncation, oversize rejection) is the same one the server runs.
#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "edge/placement.h"
#include "serve/client.h"

namespace chainnet::serve {
namespace {

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
};

TEST(Protocol, FrameRoundTrip) {
  SocketPair pair;
  const std::string sent = R"({"type":"ping"})";
  ASSERT_TRUE(write_frame(pair.fds[0], sent));
  std::string payload;
  std::string error;
  EXPECT_EQ(read_frame(pair.fds[1], payload, error), FrameStatus::kOk);
  EXPECT_EQ(payload, sent);
}

TEST(Protocol, EmptyAndBinaryPayloadsSurvive) {
  SocketPair pair;
  std::string payload;
  std::string error;
  ASSERT_TRUE(write_frame(pair.fds[0], ""));
  EXPECT_EQ(read_frame(pair.fds[1], payload, error), FrameStatus::kOk);
  EXPECT_TRUE(payload.empty());
  std::string binary("\x00\xff\n\x80 frame", 8);
  ASSERT_TRUE(write_frame(pair.fds[0], binary));
  EXPECT_EQ(read_frame(pair.fds[1], payload, error), FrameStatus::kOk);
  EXPECT_EQ(payload, binary);
}

TEST(Protocol, SeveralFramesBackToBack) {
  SocketPair pair;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(write_frame(pair.fds[0], "frame " + std::to_string(i)));
  }
  std::string payload;
  std::string error;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(read_frame(pair.fds[1], payload, error), FrameStatus::kOk);
    EXPECT_EQ(payload, "frame " + std::to_string(i));
  }
}

TEST(Protocol, CleanCloseVsTruncation) {
  {
    SocketPair pair;
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    std::string payload;
    std::string error;
    // EOF on the prefix boundary is a clean close...
    EXPECT_EQ(read_frame(pair.fds[1], payload, error), FrameStatus::kClosed);
    pair.fds[0] = ::socket(AF_UNIX, SOCK_STREAM, 0);  // for the destructor
  }
  {
    SocketPair pair;
    // ...EOF mid-prefix or mid-payload is a protocol error.
    const char half_prefix[2] = {0, 0};
    ASSERT_EQ(::send(pair.fds[0], half_prefix, 2, 0), 2);
    ::shutdown(pair.fds[0], SHUT_WR);
    std::string payload;
    std::string error;
    EXPECT_EQ(read_frame(pair.fds[1], payload, error), FrameStatus::kError);
    EXPECT_FALSE(error.empty());
  }
  {
    SocketPair pair;
    const char prefix[4] = {0, 0, 0, 10};  // promises 10 bytes
    ASSERT_EQ(::send(pair.fds[0], prefix, 4, 0), 4);
    ASSERT_EQ(::send(pair.fds[0], "abc", 3, 0), 3);  // delivers 3
    ::shutdown(pair.fds[0], SHUT_WR);
    std::string payload;
    std::string error;
    EXPECT_EQ(read_frame(pair.fds[1], payload, error), FrameStatus::kError);
  }
}

TEST(Protocol, HostileLengthPrefixIsRejectedWithoutAllocation) {
  SocketPair pair;
  const char prefix[4] = {'\x7f', '\xff', '\xff', '\xff'};  // ~2 GiB claim
  ASSERT_EQ(::send(pair.fds[0], prefix, 4, 0), 4);
  std::string payload;
  std::string error;
  EXPECT_EQ(read_frame(pair.fds[1], payload, error), FrameStatus::kError);
  EXPECT_NE(error.find("exceeds"), std::string::npos);
  EXPECT_TRUE(payload.empty());  // never resized toward the hostile claim
}

TEST(Protocol, OversizedWriteRefused) {
  SocketPair pair;
  std::string huge(kMaxFramePayload + 1, 'x');
  EXPECT_FALSE(write_frame(pair.fds[0], huge));
}

TEST(Protocol, WriteToClosedPeerFailsInsteadOfSigpipe) {
  SocketPair pair;
  ::close(pair.fds[1]);
  pair.fds[1] = -1;
  const std::string big(1 << 20, 'x');  // larger than any socket buffer
  EXPECT_FALSE(write_frame(pair.fds[0], big));
  pair.fds[1] = ::socket(AF_UNIX, SOCK_STREAM, 0);  // for the destructor
}

TEST(Protocol, ErrorCodeNamesRoundTrip) {
  const ErrorCode codes[] = {
      ErrorCode::kParseError,       ErrorCode::kBadRequest,
      ErrorCode::kUnknownSystem,    ErrorCode::kOverloaded,
      ErrorCode::kDeadlineExceeded, ErrorCode::kShuttingDown,
      ErrorCode::kInternal,
  };
  for (const auto code : codes) {
    const auto name = error_code_name(code);
    const auto back = error_code_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(error_code_from_name("no_such_code").has_value());
}

TEST(Protocol, PortsOutsideTheTcpRangeAreRejectedNotWrapped) {
  sockaddr_in addr;
  EXPECT_FALSE(ipv4_address("127.0.0.1", -1, addr));
  EXPECT_FALSE(ipv4_address("127.0.0.1", 65536, addr));
  ASSERT_TRUE(ipv4_address("127.0.0.1", 0, addr));
  EXPECT_EQ(ntohs(addr.sin_port), 0);
  ASSERT_TRUE(ipv4_address("localhost", 65535, addr));
  EXPECT_EQ(ntohs(addr.sin_port), 65535);
  EXPECT_EQ(ntohl(addr.sin_addr.s_addr), INADDR_LOOPBACK);
}

TEST(Protocol, ResponseBuilders) {
  EXPECT_TRUE(ok_response().at("ok").as_bool());
  const auto err = error_response(ErrorCode::kOverloaded, "queue full");
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(err.at("error").at("message").as_string(), "queue full");
}

TEST(Protocol, EvalRequestEncodesPlacementsLosslessly) {
  const edge::Placement p(std::vector<std::vector<int>>{{0, 1, 2}, {1, 3}});
  const auto request = make_eval_request({&p, 1}, "default", 2.5);
  EXPECT_EQ(request.at("type").as_string(), "eval");
  EXPECT_EQ(request.at("system").as_string(), "default");
  EXPECT_DOUBLE_EQ(request.at("deadline_ms").as_number(), 2.5);
  const auto& rows = request.at("placements").as_array()[0].as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].as_array()[2].as_number(), 2.0);
  EXPECT_DOUBLE_EQ(rows[1].as_array()[1].as_number(), 3.0);
  // No deadline field when none was requested.
  EXPECT_FALSE(make_eval_request({&p, 1}, "default", 0.0).has("deadline_ms"));
}

}  // namespace
}  // namespace chainnet::serve
