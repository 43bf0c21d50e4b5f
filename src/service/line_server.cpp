#include "service/line_server.h"

#include <utility>

#include "support/check.h"

namespace bfdn {

LineServer::LineServer(Handler handler) : handler_(std::move(handler)) {}

LineServer::~LineServer() { drain(); }

void LineServer::start(std::uint16_t port) {
  BFDN_REQUIRE(!accept_thread_.joinable(), "server already started");
  listener_.listen(port);
  started_at_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

double LineServer::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

void LineServer::accept_loop() {
  while (!draining_) {
    auto socket = listener_.accept(/*timeout_ms=*/50);
    if (!socket.has_value()) continue;
    MutexLock lock(connections_mutex_);
    reap_finished_locked();
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(*socket);
    Connection* raw = connection.get();
    connection->thread =
        std::thread([this, raw] { serve_connection(raw); });
    connections_.push_back(std::move(connection));
  }
}

void LineServer::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void LineServer::serve_connection(Connection* connection) {
  for (;;) {
    const auto line = connection->socket.recv_line();
    if (!line.has_value()) break;
    if (line->empty()) continue;
    ++total_;
    ServiceRequest request;
    std::string error;
    std::string response;
    if (parse_request(*line, request, &error)) {
      response = handler_(request, *line, connection->socket);
    } else {
      ++protocol_errors_;
      response = error_response("", error);
    }
    const std::string status = extract_status(response);
    if (status == "ok") {
      ++ok_;
    } else if (status == "retry") {
      ++retry_;
    } else {
      ++error_;
    }
    if (!connection->socket.send_all(response + "\n")) break;
  }
  connection->finished = true;
}

void LineServer::drain(const std::function<void()>& quiesce) {
  MutexLock drain_lock(drain_mutex_);
  if (drained_) return;
  draining_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  if (quiesce) quiesce();

  // Wake connection threads idling in recv_line and let them exit.
  {
    MutexLock lock(connections_mutex_);
    for (const auto& connection : connections_) {
      connection->socket.shutdown_read();
    }
    for (const auto& connection : connections_) {
      connection->thread.join();
    }
    connections_.clear();
  }
  drained_ = true;
}

void LineServer::write_requests(JsonWriter& w) const {
  w.key("requests").begin_object();
  w.kv("total", total_.load());
  w.kv("ok", ok_.load());
  w.kv("retry", retry_.load());
  w.kv("error", error_.load());
  w.kv("protocol_errors", protocol_errors_.load());
  w.end_object();
}

}  // namespace bfdn
