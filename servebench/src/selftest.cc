// Self-test of the benchmark's own logic (no server, no sockets):
//   * the reference checker counts a dropped, a duplicated, a late and a
//     corrupted tuple exactly;
//   * the percentile function on known inputs;
//   * the same seed gives the same schedule, another seed another one, and
//     group shares hold whatever the seed;
//   * a spectrum block spoiled by a dropped sample costs only itself.
// Exit status 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checker.h"
#include "freq/spectrum.h"
#include "schedule.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      g_failures += 1;                                                \
    }                                                                 \
  } while (0)

using servebench::DeliveryChecker;

void TestCheckerCountsEachFault() {
  const int64_t delay = 50;
  DeliveryChecker c(delay, 1000.0, true);
  // Ten expected tuples; two share a name and a stamp (multiset).
  struct T {
    const char* name;
    int64_t stamp;
    double value;
  };
  std::vector<T> expected = {{"a", 100, 1.5}, {"a", 100, 1.5}, {"a", 101, 2.0},
                             {"b", 101, 3.25}, {"b", 102, -4.0}, {"a", 103, 5.0},
                             {"b", 104, 6.0},  {"a", 105, 7.0},  {"b", 106, 8.0},
                             {"a", 107, 9.0}};
  for (const T& t : expected) {
    c.Expect(t.name, t.stamp, t.value);
  }
  auto on_time = [&](const T& t) { return static_cast<double>(t.stamp + delay) + 2.0; };
  // Delivered: all but index 4 (dropped); index 6 arrives 1500 ms late;
  // index 8 arrives with a corrupted value; index 2 is delivered twice.
  for (size_t i = 0; i < expected.size(); ++i) {
    const T& t = expected[i];
    if (i == 4) {
      continue;
    }
    if (i == 6) {
      c.Deliver(t.name, t.stamp, t.value, static_cast<double>(t.stamp + delay) + 1500.0);
      continue;
    }
    if (i == 8) {
      c.Deliver(t.name, t.stamp, t.value + 0.001, on_time(t));
      continue;
    }
    c.Deliver(t.name, t.stamp, t.value, on_time(t));
    if (i == 2) {
      c.Deliver(t.name, t.stamp, t.value, on_time(t));
    }
  }
  servebench::Counts k = c.total();
  CHECK(k.expected == 10);
  CHECK(k.exact == 7);
  CHECK(k.late == 1);
  CHECK(k.duplicate == 1);
  CHECK(k.corrupt == 1);
  CHECK(k.missing() == 2);  // the dropped one and the corrupted one's original
  CHECK(k.lost() == 3);
  // Every delivery of a known name has a lag (the corrupted value too).
  CHECK(c.lags(0).size() == 10);

  DeliveryChecker split(delay, 1000.0, true, /*split_stamp=*/104);
  split.Expect("x", 103, 1.0);
  split.Expect("x", 104, 1.0);
  split.Deliver("x", 104, 1.0, 160.0);
  split.Deliver("y", 90, 1.0, 160.0);  // unknown name: corrupt, no lag
  CHECK(split.counts(0).expected == 1 && split.counts(0).exact == 0);
  CHECK(split.counts(0).corrupt == 1);
  CHECK(split.counts(1).expected == 1 && split.counts(1).exact == 1);
  CHECK(split.lags(1).size() == 1 && std::fabs(split.lags(1)[0] - 6.0) < 1e-12);

  // Expectations are relative; deliveries carry absolute stamps.
  DeliveryChecker based(delay, 1000.0, true);
  based.Expect("x", 3, 1.0);
  based.SetBase(1000);
  based.Deliver("x", 1003, 1.0, 1060.0);
  based.Deliver("x", 3, 1.0, 1060.0);
  CHECK(based.total().exact == 1 && based.total().corrupt == 1);
  CHECK(based.lags(0).size() == 2 && std::fabs(based.lags(0)[0] - 7.0) < 1e-12);
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  CHECK(servebench::Percentile(v, 50.0) == 50.0);
  CHECK(servebench::Percentile(v, 99.0) == 99.0);
  CHECK(servebench::Percentile(v, 100.0) == 100.0);
  CHECK(servebench::Percentile(v, 0.0) == 1.0);
  std::vector<double> one = {7.5};
  CHECK(servebench::Percentile(one, 99.0) == 7.5);
  std::vector<double> four = {4, 1, 3, 2};
  CHECK(servebench::Percentile(four, 50.0) == 2.0);
  CHECK(servebench::Percentile(four, 75.0) == 3.0);
  CHECK(servebench::Percentile(four, 76.0) == 4.0);
  std::vector<double> none;
  CHECK(std::isnan(servebench::Percentile(none, 50.0)));
}

bool SameSchedule(const servebench::Schedule& a, const servebench::Schedule& b) {
  if (a.names != b.names || a.tuples.size() != b.tuples.size()) {
    return false;
  }
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    if (a.tuples[i].offset_ns != b.tuples[i].offset_ns || a.tuples[i].name != b.tuples[i].name ||
        a.tuples[i].value != b.tuples[i].value) {
      return false;
    }
  }
  return true;
}

void TestScheduleDeterminism() {
  for (const std::string& name : servebench::WorkloadNames()) {
    servebench::WorkloadSpec spec;
    CHECK(servebench::MakeWorkload(name, &spec));
    servebench::Schedule a = servebench::BuildSchedule(spec, 7, 0.5);
    servebench::Schedule b = servebench::BuildSchedule(spec, 7, 0.5);
    servebench::Schedule c = servebench::BuildSchedule(spec, 8, 0.5);
    CHECK(SameSchedule(a, b));
    CHECK(!SameSchedule(a, c));
    CHECK(static_cast<int64_t>(a.tuples.size()) == spec.rate_tps / 2);
    // Group shares are fixed; only the assignment inside a group is seeded.
    size_t first = 0;
    for (const servebench::NameGroup& g : spec.groups) {
      for (const servebench::Schedule* s : {&a, &c}) {
        int64_t in_group = 0;
        for (const servebench::Scheduled& t : s->tuples) {
          in_group += t.name >= first && t.name < first + static_cast<size_t>(g.count) ? 1 : 0;
        }
        double share = static_cast<double>(in_group) / static_cast<double>(s->tuples.size());
        CHECK(std::fabs(share - g.share) < 0.02);
      }
      first += static_cast<size_t>(g.count);
    }
    // Send times are non-decreasing and stamps never run ahead of them.
    for (size_t i = 1; i < a.tuples.size(); ++i) {
      CHECK(a.tuples[i].offset_ns >= a.tuples[i - 1].offset_ns);
    }
  }
  CHECK(!servebench::MakeWorkload("no-such-workload", nullptr));
}

// Spectrum blocks are verified one by one: a sample the server drops spoils
// only the block it falls in; later blocks, ending one sample later, verify.
void TestSpectrumCheckerResyncsAfterDrop() {
  servebench::WorkloadSpec spec;
  CHECK(servebench::MakeWorkload("binary-derived", &spec));
  servebench::Schedule s = servebench::BuildSchedule(spec, 3, 0.5);
  const std::string name = "bd03";
  std::vector<double> values;
  std::vector<int64_t> stamps;
  for (const servebench::Scheduled& t : s.tuples) {
    if (s.names[t.name] == name) {
      values.push_back(t.value);
      stamps.push_back(t.offset_ms());
    }
  }
  const int block = spec.spectrum_block;
  const size_t bins = static_cast<size_t>(block / 2 + 1);
  const int64_t blocks = static_cast<int64_t>(values.size()) / block;
  CHECK(blocks >= 4);
  const int64_t base = 1000;
  servebench::SpectrumChecker c(s, {name}, block, spec.delay_ms, 1000.0);
  c.SetBase(base);
  // The server keeps every sample but one inside the second block.
  const size_t dropped = static_cast<size_t>(block) + 17;
  std::vector<double> kept_v;
  std::vector<int64_t> kept_t;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != dropped) {
      kept_v.push_back(values[i]);
      kept_t.push_back(stamps[i]);
    }
  }
  auto deliver_block = [&](size_t end) {
    std::vector<double> b(kept_v.begin() + static_cast<std::ptrdiff_t>(end + 1 - block),
                          kept_v.begin() + static_cast<std::ptrdiff_t>(end + 1));
    gscope::Spectrum sp =
        gscope::ComputeSpectrum(b, 1000.0, {.window = gscope::WindowKind::kHann});
    for (size_t k = 0; k < sp.power_db.size(); ++k) {
      c.Deliver(name + ".bin" + std::to_string(k), base + kept_t[end], sp.power_db[k],
                static_cast<double>(base + kept_t[end] + spec.delay_ms) + 3.0);
    }
  };
  int64_t delivered = 0;
  for (size_t end = static_cast<size_t>(block) - 1; end < kept_v.size(); end += block) {
    deliver_block(end);
    delivered += 1;
  }
  deliver_block(static_cast<size_t>(block) - 1);  // the first block again
  c.Deliver("bd99.bin1", base, 0.0, 0.0);          // no such signal
  c.Finish();
  servebench::Counts k = c.total();
  CHECK(k.expected == blocks * static_cast<int64_t>(bins));
  CHECK(k.exact == (delivered - 1) * static_cast<int64_t>(bins));
  CHECK(k.duplicate == static_cast<int64_t>(bins));
  CHECK(k.corrupt == static_cast<int64_t>(bins) + 1);
  CHECK(k.late == 0);
}

}  // namespace

int main() {
  TestCheckerCountsEachFault();
  TestPercentile();
  TestScheduleDeterminism();
  TestSpectrumCheckerResyncsAfterDrop();
  if (g_failures != 0) {
    std::fprintf(stderr, "servebench self-test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("servebench self-test: ok\n");
  return 0;
}
