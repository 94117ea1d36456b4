// Reference checkers: every tuple a viewer receives is matched against the
// deliveries the generator's schedule implies.
//
// Each received tuple is classified as exactly one of:
//   exact      matches an outstanding expected delivery, within the late limit
//   late       matches one, but arrived more than late_limit_ms after its
//              display deadline (stamp + delay): useless to a display
//   duplicate  matches a delivery whose expected copies were all consumed
//   corrupt    matches no expected delivery (wrong name, stamp or value)
// Expected deliveries never received are missing.  lost = expected - exact.
#ifndef SERVEBENCH_CHECKER_H_
#define SERVEBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "schedule.h"

namespace servebench {

// Nearest-rank percentile (p in [0, 100]) of `v`; reorders `v`.  NaN when
// `v` is empty.
double Percentile(std::vector<double>& v, double p);

// True when `name` matches any of `subs` (the server's glob semantics).
bool MatchesAny(const std::vector<std::string>& subs, std::string_view name);

struct Counts {
  int64_t expected = 0;
  int64_t exact = 0;
  int64_t late = 0;
  int64_t duplicate = 0;
  int64_t corrupt = 0;
  int64_t missing() const { return expected - exact - late; }
  int64_t lost() const { return expected - exact; }
  void Add(const Counts& o);
};

// Shared bookkeeping of one viewer stream.  Expected stamps are relative to
// a base set once the clock starts (SetBase), so expectations can be built
// before it.  Deliveries at or after relative stamp `split_stamp` count in
// phase 1, the rest in phase 0 (a traced run compares the two).
class StreamChecker {
 public:
  virtual ~StreamChecker() = default;
  StreamChecker(const StreamChecker&) = delete;
  StreamChecker& operator=(const StreamChecker&) = delete;

  // `stamp` as received (absolute); `arrival_ms` is the arrival time on the
  // server's scope clock.
  virtual void Deliver(std::string_view name, int64_t stamp, double value,
                       double arrival_ms) = 0;
  // Completes classification once the stream has ended.
  virtual void Finish() {}

  // The scope time of relative stamp 0.
  void SetBase(int64_t base_ms) { base_ms_ = base_ms; }
  const Counts& counts(int phase) const { return counts_[phase]; }
  Counts total() const;
  // Lags (arrival - deadline, ms) of delivered non-corrupt tuples, and the
  // relative stamp of each (same order).
  std::vector<double>& lags(int phase) { return lags_[phase]; }
  const std::vector<int64_t>& lag_stamps(int phase) const { return lag_stamps_[phase]; }

 protected:
  // `delay_ms` sets each tuple's display deadline; lags are recorded only
  // when `record_lag`.
  StreamChecker(int64_t delay_ms, double late_limit_ms, bool record_lag, int64_t split_stamp);
  int Phase(int64_t rel_stamp) const { return rel_stamp >= split_stamp_ ? 1 : 0; }
  // Lag of a delivery stamped at `rel_stamp`; recorded when record_lag.
  double RecordLag(int64_t rel_stamp, double arrival_ms);

  int64_t delay_ms_;
  double late_limit_ms_;
  bool record_lag_;
  int64_t split_stamp_;
  int64_t base_ms_ = 0;
  Counts counts_[2];
  std::vector<double> lags_[2];
  std::vector<int64_t> lag_stamps_[2];
};

// Raw and replayed streams: the expected deliveries are (name, stamp, value)
// triples, kept as a multiset because several tuples of one name can share
// a millisecond stamp.
class DeliveryChecker : public StreamChecker {
 public:
  DeliveryChecker(int64_t delay_ms, double late_limit_ms, bool record_lag,
                  int64_t split_stamp = INT64_MAX)
      : StreamChecker(delay_ms, late_limit_ms, record_lag, split_stamp) {}

  void Expect(std::string_view name, int64_t rel_stamp, double value);
  void Deliver(std::string_view name, int64_t stamp, double value, double arrival_ms) override;

 private:
  struct Key {
    uint32_t name;
    int64_t stamp;
    uint64_t bits;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Slot {
    uint32_t expected = 0;
    uint32_t consumed = 0;
  };
  uint32_t NameId(std::string_view name, bool create);

  std::unordered_map<std::string, uint32_t> names_;
  std::string name_scratch_;
  std::unordered_map<Key, Slot, KeyHash> slots_;
};

// The SPECTRUM stage output for one subscription: per matching name, each
// complete block of `block` samples yields bins <name>.bin0..bin<block/2>,
// stamped at the block's last sample, valued as ComputeSpectrum (Hann
// window) computes them on the block.  The schedule implies
// floor(samples / block) blocks per name.
//
// Each delivered block is verified on its own: it is exact when its bins
// equal ComputeSpectrum over the `block` consecutive sent samples of that
// name ending at a sample stamped with the block's stamp.  A sample the
// server late-drops (by design) leaves the block around it one sample short
// of the schedule: that block cannot match and counts as corrupt, while the
// blocks after it still verify.
class SpectrumChecker : public StreamChecker {
 public:
  SpectrumChecker(const Schedule& s, const std::vector<std::string>& subs, int block,
                  int64_t delay_ms, double late_limit_ms, int64_t split_stamp = INT64_MAX);

  void Deliver(std::string_view name, int64_t stamp, double value, double arrival_ms) override;
  void Finish() override;

 private:
  struct Track {                  // the sent samples of one subscribed name
    std::vector<double> values;
    std::vector<int64_t> stamps;  // relative, non-decreasing
    std::vector<char> used;       // a block ending here was verified
    int64_t last_end = -1;        // end index of the last verified block
  };
  struct Block {                  // one delivered block, as received
    uint32_t track = 0;
    int64_t rel_stamp = 0;
    std::vector<double> bins;
    std::vector<char> present;
    std::vector<double> bin_lags;
  };
  void Verify(const Block& b);

  int block_;
  size_t bins_per_block_;
  std::unordered_map<std::string, uint32_t> tracks_by_name_;
  std::vector<Track> tracks_;
  std::vector<Block> blocks_;
  std::string name_scratch_;
};

// Registers the raw every-sample echo a viewer subscribed with `subs` must
// receive: every scheduled tuple whose name matches one of the globs.
void ExpectRaw(const Schedule& s, const std::vector<std::string>& subs,
               DeliveryChecker* checker);

// Registers a replay of the recorded window [t0, t1] (relative stamps)
// through `subs`.  Returns the number of tuples registered.
int64_t ExpectReplay(const Schedule& s, const std::vector<std::string>& subs, int64_t t0,
                     int64_t t1, DeliveryChecker* checker);

}  // namespace servebench

#endif  // SERVEBENCH_CHECKER_H_
