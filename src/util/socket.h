#ifndef GDLOG_UTIL_SOCKET_H_
#define GDLOG_UTIL_SOCKET_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace gdlog {

/// A connected TCP stream with poll-based timeouts — the byte transport
/// beneath the HTTP serving layer (src/server) and its test/load clients.
/// POSIX-only. Writes use MSG_NOSIGNAL so a peer hanging up surfaces as a
/// Status instead of killing the process with SIGPIPE.
class Connection {
 public:
  /// Adopts an already-connected file descriptor (what ListenSocket::Accept
  /// hands out).
  explicit Connection(int fd) : fd_(fd) {}

  /// Connects to host:port. `host` may be an IPv4/IPv6 literal or a name
  /// (resolved via getaddrinfo). `timeout_ms` bounds the connect itself
  /// (-1 = no bound).
  static Result<Connection> ConnectTcp(const std::string& host, int port,
                                       int timeout_ms);

  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Reads at most `capacity` bytes into `buf`. Returns the byte count, 0
  /// on clean EOF. Blocks up to `timeout_ms` for the first byte (-1 =
  /// forever); an expired wait is kBudgetExhausted.
  Result<size_t> ReadSome(char* buf, size_t capacity, int timeout_ms);

  /// Writes all of `data`; `timeout_ms` bounds each wait for writability.
  Status WriteAll(std::string_view data, int timeout_ms);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// A listening TCP socket. Accept() can be interrupted through an arbitrary
/// "wake" descriptor (the serving layer uses a pipe written from a signal
/// handler), which is what makes graceful SIGTERM drain possible without
/// timers or EINTR games.
class ListenSocket {
 public:
  /// Binds host:port (port 0 = kernel-assigned, reported by port()) with
  /// SO_REUSEADDR and starts listening.
  static Result<ListenSocket> BindTcp(const std::string& host, int port,
                                      int backlog = 128);

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ~ListenSocket();

  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// The bound port (meaningful after BindTcp with port 0).
  int port() const { return port_; }

  /// Blocks until a connection arrives — or, when `wake_fd` >= 0, until
  /// `wake_fd` becomes readable, which returns nullopt without draining it.
  Result<std::optional<Connection>> Accept(int wake_fd);

 private:
  ListenSocket(int fd, int port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  int port_ = 0;
};

}  // namespace gdlog

#endif  // GDLOG_UTIL_SOCKET_H_
