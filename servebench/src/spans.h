// In-memory span recorder for traced runs.
//
// Spans are recorded around the benchmark's own calls into each layer (the
// program itself is not instrumented): name, start, end, the id of the span
// that caused it, and a request id shared by the spans of one request (a
// send batch index, a tuple's schedule index, a verb sequence number).  They
// stay in memory and are written as JSON lines when the run ends.
#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

int64_t MonoNs();        // CLOCK_MONOTONIC (the scope clock's source)
int64_t ThreadCpuNs();   // CLOCK_THREAD_CPUTIME_ID

class SpanLog {
 public:
  struct Span {
    const char* name = "";  // static string
    uint32_t id = 0;
    uint32_t parent = 0;    // 0 = root
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t cpu_ns = -1;    // thread CPU inside the span, -1 = not measured
  };

  explicit SpanLog(size_t cap = 2'000'000) : cap_(cap) {}

  // Returns the new span's id (0 when the log is full; the drop is counted).
  uint32_t Add(const char* name, uint32_t parent, uint64_t request, int64_t start_ns,
               int64_t end_ns, int64_t cpu_ns = -1);
  // Opens a span whose end is filled in by Close (parents of later spans).
  uint32_t Open(const char* name, uint32_t parent, uint64_t request);
  void Close(uint32_t id);

  size_t size() const { return spans_.size(); }
  int64_t dropped() const { return dropped_; }
  bool Write(const std::string& path, const std::string& process) const;

 private:
  size_t cap_;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
