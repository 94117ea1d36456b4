#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace servebench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

bool MakeWorkload(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "text-raw") {
    // The paper's path: text producers, text viewers, every-sample echo.
    // Shares: 10% to the small viewer, 60% to the large one, 30% to no one
    // (routed to the display scope only).  At 50k tuples/s the server's
    // per-read fixed costs (wake-ups, fan-out hand-offs) dominate its CPU
    // per tuple and swing with host load; 100k keeps the per-tuple work in
    // front at about a tenth of a core.
    w.rate_tps = 100000;
    w.groups = {{"ta", 8, 0.10, 1.0}, {"tb", 32, 0.60, 1.0}, {"tc", 24, 0.30, 1.0}};
    w.producers = {Wire::kText, Wire::kText};
    w.viewers = {{"small", Wire::kText, {"ta*"}, "", false},
                 {"large", Wire::kText, {"tb*"}, "", false}};
  } else if (name == "binary-derived") {
    // Binary decode, one shared SPECTRUM group and frame-relay egress; the
    // raw binary viewer takes a 1/16 slice.
    w.rate_tps = 100000;
    w.groups = {{"bd", 16, 1.0, 0.0}};
    w.producers = {Wire::kBinary};
    w.spectrum_block = 256;
    w.viewers = {{"spectrum-a", Wire::kBinary, {"*"}, "SPECTRUM 256 hann", false},
                 {"spectrum-b", Wire::kBinary, {"*"}, "SPECTRUM 256 hann", false},
                 {"raw-slice", Wire::kBinary, {"bd07"}, "", false}};
  } else if (name == "record-replay") {
    // Capture while serving, then a burst replay read back from the log
    // (rate doubled from 30k for the same reason as text-raw).
    w.rate_tps = 60000;
    w.groups = {{"ra", 4, 0.25, 1.0}, {"rb", 4, 0.25, 1.0}, {"rc", 24, 0.5, 1.0}};
    w.producers = {Wire::kText, Wire::kBinary};
    w.viewers = {{"slice", Wire::kText, {"ra*"}, "", false},
                 {"operator", Wire::kText, {"rb*"}, "", true}};
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::vector<std::string> WorkloadNames() {
  return {"text-raw", "binary-derived", "record-replay"};
}

Schedule BuildSchedule(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Schedule s;
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 0x1234567ULL);
  std::vector<double> weight;
  for (const NameGroup& g : spec.groups) {
    std::vector<double> zipf(static_cast<size_t>(g.count));
    double sum = 0.0;
    for (int k = 0; k < g.count; ++k) {
      zipf[static_cast<size_t>(k)] = 1.0 / std::pow(static_cast<double>(k + 1), g.zipf);
      sum += zipf[static_cast<size_t>(k)];
    }
    // Seeded assignment of the skewed weights to the group's names; the
    // group's total share never changes.
    for (int k = g.count - 1; k > 0; --k) {
      std::swap(zipf[static_cast<size_t>(k)],
                zipf[rng.Below(static_cast<uint64_t>(k) + 1)]);
    }
    for (int k = 0; k < g.count; ++k) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%02d", g.prefix.c_str(), k);
      s.names.emplace_back(buf);
      weight.push_back(g.share * zipf[static_cast<size_t>(k)] / sum);
    }
  }
  std::vector<double> cumulative(weight.size());
  double acc = 0.0;
  for (size_t i = 0; i < weight.size(); ++i) {
    acc += weight[i];
    cumulative[i] = acc;
  }
  s.producer_of.resize(s.names.size());
  for (size_t i = 0; i < s.names.size(); ++i) {
    s.producer_of[i] = static_cast<uint32_t>(i % spec.producers.size());
  }
  // Per-name random walk in milli-units: short decimal text, exact doubles.
  std::vector<int64_t> level(s.names.size());
  for (int64_t& l : level) {
    l = static_cast<int64_t>(rng.Below(100000));
  }
  const int64_t n = std::llround(static_cast<double>(spec.rate_tps) * seconds);
  s.tuples.resize(static_cast<size_t>(std::max<int64_t>(n, 0)));
  for (int64_t i = 0; i < n; ++i) {
    double u = rng.Uniform() * acc;
    size_t name = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) - cumulative.begin());
    name = std::min(name, s.names.size() - 1);
    level[name] += static_cast<int64_t>(rng.Below(1001)) - 500;
    Scheduled& t = s.tuples[static_cast<size_t>(i)];
    t.offset_ns = i * 1'000'000'000 / spec.rate_tps;
    t.name = static_cast<uint32_t>(name);
    t.value = static_cast<double>(level[name]) / 1000.0;
  }
  return s;
}

}  // namespace servebench
