// gdlogd child processes: start on a kernel-assigned port, read their CPU
// time and peak RSS from /proc, and stop them gracefully.
#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class Daemon {
 public:
  /// Starts `binary` with `args` plus "--port 0" and waits (up to
  /// `timeout_ms`) for its "listening on http://host:port" line. stderr —
  /// gdlogd's access log — is appended to `log_path`. The daemon is killed
  /// when the calling thread exits, so call this from the main thread.
  static gdlog::Result<Daemon> Start(const std::string& binary,
                                     const std::vector<std::string>& args,
                                     const std::string& log_path,
                                     int timeout_ms = 10'000);

  Daemon(Daemon&& other) noexcept;
  Daemon& operator=(Daemon&& other) noexcept;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  /// Stops the daemon if it is still running.
  ~Daemon();

  int port() const { return port_; }
  int pid() const { return pid_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

  /// User + system CPU time of all the daemon's threads so far.
  gdlog::Result<int64_t> CpuNs() const;
  /// Peak resident set size (VmHWM) in bytes.
  gdlog::Result<int64_t> PeakRssBytes() const;

  /// SIGTERM (graceful drain), then SIGKILL if it has not exited within
  /// `timeout_ms`; always reaps. Returns the exit status.
  int Stop(int timeout_ms = 5'000);

  /// SIGKILLs and reaps every daemon still running — for error exits that
  /// skip destructors.
  static void KillAll();

 private:
  Daemon(int pid, int stdout_fd, int port)
      : pid_(pid), stdout_fd_(stdout_fd), port_(port) {}
  int pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
