// Workload definitions and the seeded open-loop schedule.
//
// A workload is a fixed traffic mix: producers (text or binary wire), the
// signal names they write with a fixed per-group share of the rate, and the
// viewers that subscribe to slices of those names.  The seed only chooses
// which name carries which weight inside a group, the per-tuple name draws
// and the values; group shares and rates are constant, so every seed offers
// the server the same amount of work.
#ifndef SERVEBENCH_SCHEDULE_H_
#define SERVEBENCH_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

enum class Wire : uint8_t { kText, kBinary };

// A run of names "<prefix>00".."<prefix>NN" sharing `share` of the rate,
// skewed inside the group by a Zipf law with exponent `zipf` (0 = uniform).
struct NameGroup {
  std::string prefix;
  int count = 0;
  double share = 0.0;
  double zipf = 0.0;
};

struct ViewerSpec {
  std::string label;
  Wire wire = Wire::kText;
  std::vector<std::string> subs;  // SUB patterns, sent in order
  std::string stage;              // stage verb line ("" = raw every-sample echo)
  bool operator_session = false;  // RECORD before the load, REPLAY after it
};

struct WorkloadSpec {
  std::string name;
  int64_t rate_tps = 0;
  int64_t delay_ms = 50;           // DELAY every viewer sends
  std::vector<NameGroup> groups;
  std::vector<Wire> producers;     // name i is written by producer i % size
  std::vector<ViewerSpec> viewers;
  int spectrum_block = 0;          // SPECTRUM block size of staged viewers
};

// The three serving workloads; false for an unknown name.
bool MakeWorkload(const std::string& name, WorkloadSpec* out);
std::vector<std::string> WorkloadNames();

// One scheduled tuple.  offset_ns is the send time relative to the start of
// the paced phase; the wire stamp is the phase's base scope-ms plus
// offset_ns / 1e6 rounded down, so a tuple is never stamped after it was due.
struct Scheduled {
  int64_t offset_ns = 0;
  uint32_t name = 0;  // index into Schedule::names
  double value = 0.0;
  int64_t offset_ms() const { return offset_ns / 1'000'000; }
};

struct Schedule {
  std::vector<std::string> names;
  std::vector<uint32_t> producer_of;  // by name index
  std::vector<Scheduled> tuples;      // in send order
};

// Deterministic: the same (spec, seed, seconds) always yields the same
// schedule, element for element.
Schedule BuildSchedule(const WorkloadSpec& spec, uint64_t seed, double seconds);

// splitmix64: a small, fully specified generator, so the schedule does not
// depend on the standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();                       // [0, 1)
  uint64_t Below(uint64_t bound);         // [0, bound)

 private:
  uint64_t state_;
};

}  // namespace servebench

#endif  // SERVEBENCH_SCHEDULE_H_
