#include "spans.h"

#include <time.h>

#include <cstdio>

namespace servebench {

namespace {
int64_t ReadClock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

int64_t MonoNs() { return ReadClock(CLOCK_MONOTONIC); }
int64_t ThreadCpuNs() { return ReadClock(CLOCK_THREAD_CPUTIME_ID); }

uint32_t SpanLog::Add(const char* name, uint32_t parent, uint64_t request, int64_t start_ns,
                      int64_t end_ns, int64_t cpu_ns) {
  if (spans_.size() >= cap_) {
    dropped_ += 1;
    return 0;
  }
  Span s;
  s.name = name;
  s.id = static_cast<uint32_t>(spans_.size()) + 1;
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.cpu_ns = cpu_ns;
  spans_.push_back(s);
  return s.id;
}

uint32_t SpanLog::Open(const char* name, uint32_t parent, uint64_t request) {
  int64_t now = MonoNs();
  return Add(name, parent, request, now, now);
}

void SpanLog::Close(uint32_t id) {
  if (id != 0 && id <= spans_.size()) {
    spans_[id - 1].end_ns = MonoNs();
  }
}

bool SpanLog::Write(const std::string& path, const std::string& process) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"process\":\"%s\",\"name\":\"%s\",\"id\":%u,\"parent\":%u,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,\"cpu_ns\":%lld}\n",
                 process.c_str(), s.name, s.id, s.parent,
                 static_cast<unsigned long long>(s.request), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.cpu_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
