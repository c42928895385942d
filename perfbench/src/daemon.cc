#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

// Pids of running daemons, for KillAll().
std::mutex g_live_mu;
std::set<int> g_live;

int64_t SteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

gdlog::Result<Daemon> Daemon::Start(const std::string& binary,
                                    const std::vector<std::string>& args,
                                    const std::string& log_path,
                                    int timeout_ms) {
  std::vector<std::string> argv = {binary};
  argv.insert(argv.end(), args.begin(), args.end());
  argv.push_back("--port");
  argv.push_back("0");
  std::vector<char*> cargv;
  for (std::string& arg : argv) cargv.push_back(arg.data());
  cargv.push_back(nullptr);

  int out_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    return gdlog::Status::Internal(std::string("pipe: ") +
                                   std::strerror(errno));
  }
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    return gdlog::Status::Internal("cannot open " + log_path);
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    close(log_fd);
    return gdlog::Status::Internal(std::string("fork: ") +
                                   std::strerror(errno));
  }
  if (pid == 0) {
    // Never outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    const int null_fd = open("/dev/null", O_RDONLY);
    if (null_fd >= 0) dup2(null_fd, STDIN_FILENO);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  close(out_pipe[1]);
  close(log_fd);
  {
    std::lock_guard<std::mutex> lock(g_live_mu);
    g_live.insert(pid);
  }
  Daemon daemon(pid, out_pipe[0], 0);

  // Read stdout until the listening line names the port.
  std::string out;
  const int64_t deadline = SteadyMs() + timeout_ms;
  const std::string marker = "listening on http://";
  while (true) {
    size_t at = out.find(marker);
    size_t eol = at == std::string::npos ? std::string::npos
                                         : out.find('\n', at);
    if (eol != std::string::npos) {
      const std::string url = out.substr(at + marker.size(),
                                         eol - at - marker.size());
      const size_t colon = url.rfind(':');
      if (colon != std::string::npos) {
        daemon.port_ = std::atoi(url.c_str() + colon + 1);
      }
      if (daemon.port_ <= 0) {
        return gdlog::Status::Internal("unparsable listening line: " + url);
      }
      return daemon;
    }
    const int64_t left = deadline - SteadyMs();
    if (left <= 0) {
      return gdlog::Status::BudgetExhausted(binary + " did not start within " +
                                            std::to_string(timeout_ms) +
                                            " ms");
    }
    pollfd pfd{daemon.stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char buf[512];
    const ssize_t n = read(daemon.stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      return gdlog::Status::Internal(binary + " exited before listening (see " +
                                     log_path + ")");
    }
    out.append(buf, static_cast<size_t>(n));
  }
}

Daemon::Daemon(Daemon&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      port_(other.port_) {}

Daemon& Daemon::operator=(Daemon&& other) noexcept {
  if (this != &other) {
    Stop();
    pid_ = std::exchange(other.pid_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    port_ = other.port_;
  }
  return *this;
}

Daemon::~Daemon() { Stop(); }

gdlog::Result<int64_t> Daemon::CpuNs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) {
    return gdlog::Status::Internal("cannot read /proc stat of " +
                                   std::to_string(pid_));
  }
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::atoll(field.c_str());
    if (i == 15) stime = std::atoll(field.c_str());
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return static_cast<int64_t>((utime + stime) * (1'000'000'000LL / ticks));
}

gdlog::Result<int64_t> Daemon::PeakRssBytes() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<int64_t>(std::atoll(line.c_str() + 6)) * 1024;
    }
  }
  return gdlog::Status::Internal("no VmHWM for pid " + std::to_string(pid_));
}

int Daemon::Stop(int timeout_ms) {
  if (pid_ <= 0) return 0;
  kill(pid_, SIGTERM);
  int status = 0;
  const int64_t deadline = SteadyMs() + timeout_ms;
  while (true) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || done < 0) break;
    if (SteadyMs() >= deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(g_live_mu);
    g_live.erase(pid_);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

void Daemon::KillAll() {
  std::lock_guard<std::mutex> lock(g_live_mu);
  for (int pid : g_live) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  g_live.clear();
}

}  // namespace perfbench
