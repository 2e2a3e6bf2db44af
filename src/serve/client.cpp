#include "serve/client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "edge/json_io.h"

namespace chainnet::serve {

using support::Json;

Json make_eval_request(std::span<const edge::Placement> placements,
                       const std::string& system, double deadline_ms) {
  Json docs;
  for (const auto& placement : placements) {
    Json rows;
    for (const auto& chain : placement.assignment()) {
      Json row;
      for (int dev : chain) row.push_back(Json(dev));
      rows.push_back(std::move(row));
    }
    docs.push_back(std::move(rows));
  }
  Json request;
  request["type"] = Json("eval");
  request["system"] = Json(system);
  request["placements"] = std::move(docs);
  if (deadline_ms > 0.0) request["deadline_ms"] = Json(deadline_ms);
  return request;
}

Client::Client(const std::string& host, int port) {
  sockaddr_in addr;
  if (!ipv4_address(host, port, addr)) {
    throw std::runtime_error("Client: connect to " + host + ":" +
                             std::to_string(port) +
                             ": not an IPv4 address and port");
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("Client: socket: ") +
                             std::strerror(errno));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("Client: connect to " + host + ":" +
                             std::to_string(port) + ": " + detail);
  }
  set_low_latency(fd_);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Json Client::call(const Json& request) {
  if (!write_frame(fd_, request.dump())) {
    throw std::runtime_error("Client: connection lost while sending");
  }
  std::string payload;
  std::string error;
  const FrameStatus status = read_frame(fd_, payload, error);
  if (status == FrameStatus::kClosed) {
    throw std::runtime_error("Client: server closed the connection");
  }
  if (status == FrameStatus::kError) {
    throw std::runtime_error("Client: " + error);
  }
  Json response = Json::parse(payload);
  if (!response.is_object() || !response.has("ok")) {
    throw std::runtime_error("Client: malformed response");
  }
  if (!response.at("ok").as_bool()) {
    const Json& detail = response.at("error");
    const auto code =
        error_code_from_name(detail.get_string("code", "internal"));
    throw ServeError(code.value_or(ErrorCode::kInternal),
                     detail.get_string("message", "unknown error"));
  }
  return response;
}

std::vector<double> Client::evaluate(
    std::span<const edge::Placement> placements, const std::string& system,
    double deadline_ms) {
  const Json response =
      call(make_eval_request(placements, system, deadline_ms));
  const auto& values = response.at("values").as_array();
  std::vector<double> out;
  out.reserve(values.size());
  for (const auto& v : values) out.push_back(v.as_number());
  return out;
}

double Client::evaluate_one(const edge::Placement& placement,
                            const std::string& system, double deadline_ms) {
  return evaluate({&placement, 1}, system, deadline_ms).front();
}

void Client::load_system(const std::string& name,
                         const edge::EdgeSystem& system) {
  Json request;
  request["type"] = Json("load_system");
  request["name"] = Json(name);
  request["system"] = edge::to_json(system);
  call(request);
}

Json Client::stats() {
  return call(Json(Json::Object{{"type", Json("stats")}}));
}

void Client::ping() { call(Json(Json::Object{{"type", Json("ping")}})); }

void Client::request_shutdown() {
  call(Json(Json::Object{{"type", Json("shutdown")}}));
}

}  // namespace chainnet::serve
