// serve::Server -- the TCP transport around serve::Service.
//
// Plain POSIX sockets, line-delimited JSON (one request line in, one reply
// line out, in order per connection). The server binds 127.0.0.1 by
// default -- hcsd is a lab-bench daemon, not an internet service -- and
// port 0 asks the kernel for an ephemeral port (port() reports the bound
// one, which is how tests avoid fixed-port collisions).
//
// Threading: one accept thread plus one thread per connection; all
// request handling funnels into the shared Service, which owns the
// cross-connection state (cache, coalescing, pool). A "shutdown" request
// drains: the acceptor stops, open sockets are shut down, every
// connection thread is joined, and wait() returns.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"

namespace hcs::serve {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port (see Server::port()).
  std::uint16_t port = 0;
  ServiceConfig service;
};

class Server {
 public:
  explicit Server(ServerConfig config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Joins every thread and closes every socket (idempotent with stop()).
  ~Server();

  /// Binds, listens and spawns the accept thread. False (with a
  /// diagnostic in `*error`) when the address can't be bound.
  [[nodiscard]] bool start(std::string* error);

  /// The bound port (valid after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks until the server stops (shutdown request or stop()).
  void wait();

  /// Initiates shutdown from outside the protocol: stops accepting,
  /// unblocks every connection and joins. Safe to call concurrently with
  /// a protocol-level shutdown; the second caller no-ops.
  void stop();

  [[nodiscard]] Service& service() { return *service_; }

 private:
  void accept_loop(int listen_fd);
  void serve_connection(int fd);
  void close_listener();

  ServerConfig config_;
  std::unique_ptr<Service> service_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::mutex conn_mutex_;  ///< guards conn_threads_ + open_fds_ + shutdown_thread_
  std::vector<std::thread> conn_threads_;
  std::vector<int> open_fds_;
  /// Runs stop() on behalf of a protocol-level shutdown request (a
  /// connection thread cannot stop() itself: stop joins it).
  std::thread shutdown_thread_;

  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
};

}  // namespace hcs::serve
