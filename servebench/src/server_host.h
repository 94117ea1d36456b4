// The system under test in its own process.
//
// ServerProcess forks a child that hosts a StreamServer with default options
// (one event loop) plus one display scope, on a fresh MainLoop.  The child
// reports its port and the display scope's time origin on CLOCK_MONOTONIC,
// so the parent stamps tuples and computes display deadlines on the server's
// own scope clock.  The parent reads the child's CPU clock (all threads) to
// charge server work alone, and drives it through a line protocol on a pipe:
//   TRACE        time every host Iterate() from now on (busy CPU, wall) and
//                keep one span per iteration
//   SNAP         reply with "key value" lines (stats(), router, display
//                scope, timers, iteration totals) and "END"
//   QUIT <path>  write the spans to <path> ("-" = none), reply "BYE", exit
#ifndef SERVEBENCH_SERVER_HOST_H_
#define SERVEBENCH_SERVER_HOST_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>

namespace servebench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Forks the host and waits (up to timeout_ms) for it to listen.  The
  // display scope uses `delay_ms`.
  bool Start(int64_t delay_ms, int timeout_ms, std::string* err);
  uint16_t port() const { return port_; }
  int64_t origin_ns() const { return origin_ns_; }
  // Server-process CPU time, user + system, all threads.
  int64_t CpuNs() const;

  bool EnableTrace();
  bool Snapshot(std::map<std::string, double>* out, int timeout_ms);
  // Asks the host to exit (writing its spans to `spans_path` unless "-")
  // and reaps it; falls back to SIGKILL after timeout_ms.
  bool Quit(const std::string& spans_path, int timeout_ms);
  // SIGKILL + reap; a no-op once reaped.
  void Kill();

 private:
  bool SendLine(const std::string& line);
  bool ReadLine(std::string* line, int timeout_ms);

  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int res_fd_ = -1;
  uint16_t port_ = 0;
  int64_t origin_ns_ = 0;
  int cpu_clock_ = 0;  // clockid_t of the child's process CPU clock
  std::string rx_;
};

// Kills and reaps every host still running (watchdog / fatal exit path).
void KillAllServers();

}  // namespace servebench

#endif  // SERVEBENCH_SERVER_HOST_H_
