// The connection shell both daemons share: the shard (service/server.h)
// and the fleet router (cluster/router.h) each own one LineServer and
// supply only the handler that turns one parsed request into one
// response line.
//
// A LineServer binds a loopback listener, polls it for connections and
// serves each on its own thread. Each non-empty '\n'-terminated line is
// parsed (a parse failure is answered with an error envelope and counted
// as a protocol error), handed to the handler, and the answer is written
// back followed by '\n'.
//
// It also keeps the `requests` counters of both stats documents: `total`
// goes up once per line, and every answer is counted exactly once as ok,
// retry or error by its envelope "status", before it is sent. So once a
// client's calls have all returned, total == ok + retry + error.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "support/json.h"
#include "support/socket.h"
#include "support/thread_annotations.h"

namespace bfdn {

class LineServer {
 public:
  /// Answers one parsed request. `line` is the raw request line (the
  /// router forwards it verbatim); `socket` is the client connection,
  /// from which segment_fill reads the binary image that follows its
  /// header line.
  using Handler = std::function<std::string(
      const ServiceRequest& request, const std::string& line,
      Socket& socket)>;

  explicit LineServer(Handler handler);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens and starts accepting. Throws CheckError when the
  /// port is taken.
  void start(std::uint16_t port);
  std::uint16_t port() const { return listener_.port(); }
  /// Seconds since start().
  double uptime_s() const;

  /// Stops accepting, closes the listener, runs `quiesce` while the
  /// connection threads still wait to write their answers, then wakes
  /// those threads out of recv_line and joins them. Idempotent: only the
  /// first call does anything, `quiesce` included.
  void drain(const std::function<void()>& quiesce = {})
      BFDN_EXCLUDES(drain_mutex_, connections_mutex_);

  /// Writes the stats document's "requests" member.
  void write_requests(JsonWriter& w) const;
  std::int64_t protocol_errors() const { return protocol_errors_; }

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void accept_loop() BFDN_EXCLUDES(connections_mutex_);
  void serve_connection(Connection* connection);
  void reap_finished_locked() BFDN_REQUIRES(connections_mutex_);

  Handler handler_;
  ListenSocket listener_;
  std::chrono::steady_clock::time_point started_at_;

  std::thread accept_thread_;
  Mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_
      BFDN_GUARDED_BY(connections_mutex_);

  std::atomic<bool> draining_{false};
  // drain() is serialized by drain_mutex_; the flag never needs to be
  // read outside it, so it is a plain guarded bool rather than an
  // atomic. Acquisition order is drain_mutex_ -> connections_mutex_
  // (the lock-order analyzer tracks this edge).
  Mutex drain_mutex_;
  bool drained_ BFDN_GUARDED_BY(drain_mutex_) = false;

  std::atomic<std::int64_t> total_{0};
  std::atomic<std::int64_t> ok_{0};
  std::atomic<std::int64_t> retry_{0};
  std::atomic<std::int64_t> error_{0};
  std::atomic<std::int64_t> protocol_errors_{0};
};

}  // namespace bfdn
