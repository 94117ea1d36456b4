#include "server_host.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string_view>

#include "core/scope.h"
#include "net/stream_server.h"
#include "runtime/event_loop.h"
#include "spans.h"

namespace servebench {

namespace {

// Hosts still running, for KillAllServers (async-signal-safe reads only).
constexpr int kMaxHosts = 16;
volatile pid_t g_hosts[kMaxHosts] = {};

void TrackHost(pid_t pid) {
  for (int i = 0; i < kMaxHosts; ++i) {
    if (g_hosts[i] == 0) {
      g_hosts[i] = pid;
      return;
    }
  }
}

void UntrackHost(pid_t pid) {
  for (int i = 0; i < kMaxHosts; ++i) {
    if (g_hosts[i] == pid) {
      g_hosts[i] = 0;
    }
  }
}

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

void Put(std::string& out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %.17g\n", key, value);
  out.append(buf);
}

// The child: one MainLoop, one display scope, one StreamServer (defaults).
[[noreturn]] void RunHost(int cmd_fd, int res_fd, int64_t delay_ms) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  setpriority(PRIO_PROCESS, 0, 0);  // the parent may run at raised priority
  signal(SIGALRM, SIG_DFL);
  signal(SIGPIPE, SIG_IGN);
  gscope::MainLoop loop;
  gscope::Scope display(&loop, {.name = "display"});
  display.SetPollingMode(10);
  display.SetDelayMs(delay_ms);
  gscope::StreamServer server(&loop, &display);
  if (!server.Listen(0)) {
    WriteAll(res_fd, "FAIL listen\n");
    _exit(1);
  }
  // The scope clock origin lies between these two reads (sub-microsecond).
  int64_t before = MonoNs();
  display.StartPolling();
  int64_t after = MonoNs();
  char ready[160];
  std::snprintf(ready, sizeof(ready), "READY %u %lld %zu\n", server.port(),
                static_cast<long long>(before + (after - before) / 2),
                server.router().fanout_worker_count());
  if (!WriteAll(res_fd, ready)) {
    _exit(1);
  }

  bool tracing = false;
  bool quit = false;
  std::string spans_path = "-";
  int64_t iterations = 0, busy_ns = 0, blocked_ns = 0;
  SpanLog spans;
  std::string rx;
  auto snapshot = [&]() {
    std::string out;
    const gscope::StreamServer::Stats& s = server.stats();
    Put(out, "tuples", static_cast<double>(s.tuples.load()));
    Put(out, "parse_errors", static_cast<double>(s.parse_errors.load()));
    Put(out, "dropped_late", static_cast<double>(s.dropped_late.load()));
    Put(out, "tuples_echoed", static_cast<double>(s.tuples_echoed.load()));
    Put(out, "echo_dropped", static_cast<double>(s.echo_dropped.load()));
    Put(out, "echo_evicted", static_cast<double>(s.echo_evicted.load()));
    Put(out, "frames_rx", static_cast<double>(s.frames_rx.load()));
    Put(out, "frames_crc_errors", static_cast<double>(s.frames_crc_errors.load()));
    Put(out, "stage_evals", static_cast<double>(s.stage_evals.load()));
    Put(out, "tuples_derived", static_cast<double>(s.tuples_derived.load()));
    Put(out, "stages_active", static_cast<double>(s.stages_active.load()));
    Put(out, "sessions_opened", static_cast<double>(s.sessions_opened.load()));
    Put(out, "route_count", static_cast<double>(server.router().route_count()));
    Put(out, "excluded_route_slots",
        static_cast<double>(server.router().excluded_route_slots()));
    Put(out, "fanout_workers", static_cast<double>(server.router().fanout_worker_count()));
    Put(out, "loops", static_cast<double>(server.loop_count()));
    const gscope::Scope::Counters& c = display.counters();
    Put(out, "display_ticks", static_cast<double>(c.ticks));
    Put(out, "display_lost_ticks", static_cast<double>(c.lost_ticks));
    Put(out, "display_samples_retained", static_cast<double>(c.samples_retained));
    gscope::TimerStatsAggregate t = server.GatherTimerStats();
    Put(out, "timers_fired", static_cast<double>(t.total.fired));
    Put(out, "timers_lost", static_cast<double>(t.total.lost));
    Put(out, "timers_latency_mean_ns", t.total.MeanLatencyNs());
    Put(out, "timers_latency_max_ns", static_cast<double>(t.total.max_latency_ns));
    Put(out, "loop_iterations", static_cast<double>(iterations));
    Put(out, "loop_busy_ns", static_cast<double>(busy_ns));
    Put(out, "loop_blocked_ns", static_cast<double>(blocked_ns));
    Put(out, "server_spans", static_cast<double>(spans.size()));
    out.append("END\n");
    WriteAll(res_fd, out);
  };
  loop.AddIoWatch(cmd_fd, gscope::IoCondition::kIn,
                  [&](int fd, gscope::IoCondition) {
                    char buf[512];
                    ssize_t n = read(fd, buf, sizeof(buf));
                    if (n <= 0) {
                      quit = true;  // parent gone
                      return false;
                    }
                    rx.append(buf, static_cast<size_t>(n));
                    size_t nl;
                    while ((nl = rx.find('\n')) != std::string::npos) {
                      std::string line = rx.substr(0, nl);
                      rx.erase(0, nl + 1);
                      if (line == "TRACE") {
                        tracing = true;
                      } else if (line == "SNAP") {
                        snapshot();
                      } else if (line.rfind("QUIT ", 0) == 0) {
                        spans_path = line.substr(5);
                        quit = true;
                      }
                    }
                    return true;
                  });
  while (!quit) {
    if (!tracing) {
      loop.Iterate(true);
      continue;
    }
    int64_t w0 = MonoNs();
    int64_t c0 = ThreadCpuNs();
    loop.Iterate(true);
    int64_t c1 = ThreadCpuNs();
    int64_t w1 = MonoNs();
    iterations += 1;
    busy_ns += c1 - c0;
    blocked_ns += (w1 - w0) - (c1 - c0);
    spans.Add("server.iterate", 0, static_cast<uint64_t>(iterations), w0, w1, c1 - c0);
  }
  if (spans_path != "-") {
    spans.Write(spans_path, "server");
  }
  WriteAll(res_fd, "BYE\n");
  _exit(0);
}

}  // namespace

void KillAllServers() {
  for (int i = 0; i < kMaxHosts; ++i) {
    pid_t pid = g_hosts[i];
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      g_hosts[i] = 0;
    }
  }
}

ServerProcess::~ServerProcess() { Kill(); }

bool ServerProcess::Start(int64_t delay_ms, int timeout_ms, std::string* err) {
  int cmd[2], res[2];
  if (pipe2(cmd, O_CLOEXEC) != 0 || pipe2(res, O_CLOEXEC) != 0) {
    *err = "pipe failed";
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    *err = "fork failed";
    return false;
  }
  if (pid == 0) {
    close(cmd[1]);
    close(res[0]);
    RunHost(cmd[0], res[1], delay_ms);
  }
  close(cmd[0]);
  close(res[1]);
  pid_ = pid;
  TrackHost(pid);
  cmd_fd_ = cmd[1];
  res_fd_ = res[0];
  clockid_t cid;
  if (clock_getcpuclockid(pid, &cid) != 0) {
    *err = "clock_getcpuclockid failed";
    return false;
  }
  cpu_clock_ = static_cast<int>(cid);
  std::string line;
  if (!ReadLine(&line, timeout_ms)) {
    *err = "server did not become ready";
    return false;
  }
  unsigned port = 0;
  long long origin = 0;
  size_t workers = 0;
  if (std::sscanf(line.c_str(), "READY %u %lld %zu", &port, &origin, &workers) != 3) {
    *err = "server start failed: " + line;
    return false;
  }
  port_ = static_cast<uint16_t>(port);
  origin_ns_ = origin;
  return true;
}

int64_t ServerProcess::CpuNs() const {
  timespec ts{};
  if (pid_ <= 0 || clock_gettime(static_cast<clockid_t>(cpu_clock_), &ts) != 0) {
    return -1;
  }
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

bool ServerProcess::SendLine(const std::string& line) {
  return cmd_fd_ >= 0 && WriteAll(cmd_fd_, line + "\n");
}

bool ServerProcess::ReadLine(std::string* line, int timeout_ms) {
  int64_t deadline = MonoNs() + static_cast<int64_t>(timeout_ms) * 1'000'000;
  while (true) {
    size_t nl = rx_.find('\n');
    if (nl != std::string::npos) {
      *line = rx_.substr(0, nl);
      rx_.erase(0, nl + 1);
      return true;
    }
    int64_t left_ms = (deadline - MonoNs()) / 1'000'000;
    if (left_ms <= 0) {
      return false;
    }
    pollfd p{res_fd_, POLLIN, 0};
    int r = poll(&p, 1, static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    char buf[4096];
    ssize_t n = read(res_fd_, buf, sizeof(buf));
    if (n <= 0) {
      return false;
    }
    rx_.append(buf, static_cast<size_t>(n));
  }
}

bool ServerProcess::EnableTrace() { return SendLine("TRACE"); }

bool ServerProcess::Snapshot(std::map<std::string, double>* out, int timeout_ms) {
  if (!SendLine("SNAP")) {
    return false;
  }
  std::string line;
  while (ReadLine(&line, timeout_ms)) {
    if (line == "END") {
      return true;
    }
    size_t sp = line.find(' ');
    if (sp != std::string::npos) {
      (*out)[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
  }
  return false;
}

bool ServerProcess::Quit(const std::string& spans_path, int timeout_ms) {
  if (pid_ <= 0) {
    return false;
  }
  bool ok = SendLine("QUIT " + spans_path);
  std::string line;
  ok = ok && ReadLine(&line, timeout_ms) && line == "BYE";
  if (ok) {
    waitpid(pid_, nullptr, 0);
    UntrackHost(pid_);
    pid_ = -1;
  }
  Kill();
  return ok;
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    UntrackHost(pid_);
    pid_ = -1;
  }
  if (cmd_fd_ >= 0) {
    close(cmd_fd_);
    cmd_fd_ = -1;
  }
  if (res_fd_ >= 0) {
    close(res_fd_);
    res_fd_ = -1;
  }
}

}  // namespace servebench
