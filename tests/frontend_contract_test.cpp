// The contract every serving front end keeps, checked over real loopback
// sockets against serve::Server and against serve::Router in front of one
// Server: replies to well-formed, malformed and hostile frames, slow and
// vanishing peers, shutdown over the wire, stop() semantics, and an accept
// loop that neither spins nor dies while the process is out of fds. Both
// classes run the same connection core (serve/listener.h); this suite pins
// what that core promises. It runs under ASan/UBSan and TSan
// (scripts/check_asan.sh, scripts/check_tsan.sh).
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "optim/evaluator.h"
#include "runtime/eval_service.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "support/json.h"
#include "support/rng.h"
#include "test_util.h"

namespace chainnet::serve {
namespace {

using support::Json;
using Seconds = std::chrono::duration<double>;

/// A serve::Server over the approximation oracle.
class ServerFrontEnd {
 public:
  static constexpr const char* kName = "Server";

  ServerFrontEnd()
      : service_(pool_,
                 [](support::Rng) {
                   return std::make_unique<optim::ApproximationEvaluator>();
                 }),
        server_(service_) {
    server_.add_system("default", chainnet::testing::small_system());
    server_.start();
  }

  int port() const { return server_.port(); }
  void wait() { server_.wait(); }
  bool wait_for(std::chrono::milliseconds timeout) {
    return server_.wait_for(timeout);
  }
  void stop() { server_.stop(); }

 private:
  runtime::ThreadPool pool_{1};
  runtime::EvalService service_;
  Server server_;
};

/// A serve::Router in front of one ServerFrontEnd.
class RouterFrontEnd {
 public:
  static constexpr const char* kName = "Router";

  RouterFrontEnd() : router_(config(backend_.port())) { router_.start(); }

  int port() const { return router_.port(); }
  void wait() { router_.wait(); }
  bool wait_for(std::chrono::milliseconds timeout) {
    return router_.wait_for(timeout);
  }
  void stop() { router_.stop(); }

 private:
  static RouterConfig config(int backend_port) {
    RouterConfig config;
    config.backends.push_back(BackendAddress{"127.0.0.1", backend_port});
    config.health_interval_ms = 50.0;
    return config;
  }

  ServerFrontEnd backend_;
  Router router_;
};

template <typename FrontEnd>
class FrontEndContract : public ::testing::Test {
 protected:
  FrontEnd front_end_;
};

struct FrontEndName {
  template <typename FrontEnd>
  static std::string GetName(int) {
    return FrontEnd::kName;
  }
};

using FrontEnds = ::testing::Types<ServerFrontEnd, RouterFrontEnd>;
TYPED_TEST_SUITE(FrontEndContract, FrontEnds, FrontEndName);

sockaddr_in loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

int connect_to(int fd, int port) {
  const sockaddr_in addr = loopback(port);
  return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
}

/// A raw client socket whose reads give up after `recv_timeout_s`, so a
/// reply that never comes fails the test instead of hanging it.
int raw_client(int port, int recv_timeout_s = 5) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval timeout{recv_timeout_s, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  EXPECT_EQ(connect_to(fd, port), 0) << std::strerror(errno);
  return fd;
}

std::string frame(const std::string& payload) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  std::string out{static_cast<char>(size >> 24), static_cast<char>(size >> 16),
                  static_cast<char>(size >> 8), static_cast<char>(size)};
  return out + payload;
}

bool send_bytes(int fd, const std::string& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

/// Reads one reply frame and returns it parsed; null when none arrives.
Json read_reply(int fd) {
  std::string payload;
  std::string error;
  if (read_frame(fd, payload, error) != FrameStatus::kOk) return Json();
  return Json::parse(payload);
}

std::string error_code(const Json& reply) {
  if (!reply.is_object() || !reply.has("error")) return "";
  return reply.at("error").get_string("code", "");
}

bool is_ok(const Json& reply) {
  return reply.is_object() && reply.has("ok") && reply.at("ok").as_bool();
}

const std::string kPing = R"({"type":"ping"})";

TYPED_TEST(FrontEndContract, PingIsAnswered) {
  Client client("127.0.0.1", this->front_end_.port());
  EXPECT_NO_THROW(client.ping());
}

TYPED_TEST(FrontEndContract, NonObjectAndUnknownTypeAreBadRequests) {
  Client client("127.0.0.1", this->front_end_.port());
  for (const char* request :
       {R"([1,2,3])", R"("ping")", R"({"type":7})", R"({"kind":"ping"})",
        R"({"type":"frobnicate"})"}) {
    try {
      client.call(Json::parse(request));
      ADD_FAILURE() << "expected bad_request for " << request;
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << request;
    }
  }
  EXPECT_NO_THROW(client.ping());
}

TYPED_TEST(FrontEndContract, InvalidJsonIsAParseErrorAndTheConnectionLives) {
  const int fd = raw_client(this->front_end_.port());
  ASSERT_TRUE(send_bytes(fd, frame(R"({"type":"ping")")));
  EXPECT_EQ(error_code(read_reply(fd)), "parse_error");
  ASSERT_TRUE(send_bytes(fd, frame(kPing)));
  EXPECT_TRUE(is_ok(read_reply(fd)));
  ::close(fd);
}

TYPED_TEST(FrontEndContract, OverLimitPrefixGetsOneParseErrorThenEof) {
  const int fd = raw_client(this->front_end_.port());
  ASSERT_TRUE(send_bytes(fd, std::string(4, '\xff')));
  EXPECT_EQ(error_code(read_reply(fd)), "parse_error");
  std::string payload;
  std::string error;
  EXPECT_EQ(read_frame(fd, payload, error), FrameStatus::kClosed) << error;
  ::close(fd);
}

TYPED_TEST(FrontEndContract, RequestWrittenOneByteAtATimeIsAnswered) {
  const int fd = raw_client(this->front_end_.port());
  for (const char byte : frame(kPing)) {
    ASSERT_TRUE(send_bytes(fd, std::string(1, byte)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(is_ok(read_reply(fd)));
  ::close(fd);
}

TYPED_TEST(FrontEndContract, PeerClosingMidFrameLeavesOthersAlone) {
  Client steady("127.0.0.1", this->front_end_.port());
  steady.ping();
  // One peer dies inside the length prefix, another inside the payload.
  const int in_prefix = raw_client(this->front_end_.port());
  const int in_payload = raw_client(this->front_end_.port());
  ASSERT_TRUE(send_bytes(in_prefix, frame(kPing).substr(0, 2)));
  ASSERT_TRUE(send_bytes(in_payload, frame(kPing).substr(0, 9)));
  steady.ping();
  ::close(in_prefix);
  ::close(in_payload);
  for (int i = 0; i < 3; ++i) EXPECT_NO_THROW(steady.ping());
  Client fresh("127.0.0.1", this->front_end_.port());
  EXPECT_NO_THROW(fresh.ping());
}

TYPED_TEST(FrontEndContract, ShutdownOverTheWireMakesWaitReturn) {
  EXPECT_FALSE(this->front_end_.wait_for(std::chrono::milliseconds(1)));
  Client client("127.0.0.1", this->front_end_.port());
  client.request_shutdown();
  EXPECT_TRUE(this->front_end_.wait_for(std::chrono::seconds(10)));
  this->front_end_.wait();  // returns at once from now on
}

TYPED_TEST(FrontEndContract, StopIsIdempotentAndRefusesLaterConnects) {
  const int port = this->front_end_.port();
  Client before("127.0.0.1", port);
  before.ping();
  this->front_end_.stop();
  this->front_end_.stop();
  EXPECT_THROW(Client("127.0.0.1", port), std::runtime_error);
  this->front_end_.wait();  // stopped counts as shut down
}

TYPED_TEST(FrontEndContract, StopIsBoundedWhileAPeerPipelinesAndNeverReads) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const timeval send_timeout{0, 200 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  ASSERT_EQ(connect_to(fd, this->front_end_.port()), 0);
  std::string pings;
  for (int i = 0; i < 1024; ++i) pings += frame(kPing);
  // Pipeline until a send times out: the replies have filled this socket's
  // window, so the front end's session is stuck writing and reads no more.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < give_up &&
         ::send(fd, pings.data(), pings.size(), MSG_NOSIGNAL) > 0) {
  }
  const auto start = std::chrono::steady_clock::now();
  this->front_end_.stop();
  EXPECT_LT(Seconds(std::chrono::steady_clock::now() - start).count(), 10.0);
  ::close(fd);
}

rlim_t open_fd_count() {
  // Counts the directory's own fd too: one spare slot, which the dup()
  // loop fills like any other.
  using std::filesystem::directory_iterator;
  return static_cast<rlim_t>(
      std::distance(directory_iterator("/proc/self/fd"), directory_iterator()));
}

double process_cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// accept() failing with EMFILE must neither spin the accept loop nor end
// it: with every fd taken, 8 connections wait in the listen backlog for a
// second, then the fds come back and a new client must get its answer.
TYPED_TEST(FrontEndContract, OutOfFdsNeitherSpinsNorStopsTheAcceptLoop) {
  const int port = this->front_end_.port();
  std::vector<int> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_GE(clients.back(), 0);
  }
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = open_fd_count();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> fillers;
  for (int fd = ::dup(clients[0]); fd >= 0; fd = ::dup(clients[0])) {
    fillers.push_back(fd);
  }
  const int dup_errno = errno;
  int connected = 0;
  for (int fd : clients) connected += connect_to(fd, port) == 0 ? 1 : 0;
  const double cpu_before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double cpu_held = process_cpu_seconds() - cpu_before;
  for (int fd : fillers) ::close(fd);
  for (int fd : clients) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_EQ(dup_errno, EMFILE);
  EXPECT_EQ(connected, 8);
  EXPECT_LT(cpu_held, 0.25) << "the accept loop spun while out of fds";
  const int fresh = raw_client(port, /*recv_timeout_s=*/2);
  ASSERT_TRUE(send_bytes(fresh, frame(kPing)));
  EXPECT_TRUE(is_ok(read_reply(fresh)))
      << "no ping reply within 2 s after the fds came back";
  ::close(fresh);
}

}  // namespace
}  // namespace chainnet::serve
