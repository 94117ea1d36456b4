#include "checker.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/signal_filter.h"
#include "freq/spectrum.h"

namespace servebench {

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Nearest rank: the smallest value with at least p% of samples <= it.
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  idx = std::min(idx, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

void Counts::Add(const Counts& o) {
  expected += o.expected;
  exact += o.exact;
  late += o.late;
  duplicate += o.duplicate;
  corrupt += o.corrupt;
}

StreamChecker::StreamChecker(int64_t delay_ms, double late_limit_ms, bool record_lag,
                             int64_t split_stamp)
    : delay_ms_(delay_ms),
      late_limit_ms_(late_limit_ms),
      record_lag_(record_lag),
      split_stamp_(split_stamp) {}

Counts StreamChecker::total() const {
  Counts t = counts_[0];
  t.Add(counts_[1]);
  return t;
}

double StreamChecker::RecordLag(int64_t rel_stamp, double arrival_ms) {
  double lag_ms = arrival_ms - static_cast<double>(base_ms_ + rel_stamp + delay_ms_);
  if (record_lag_) {
    lags_[Phase(rel_stamp)].push_back(lag_ms);
    lag_stamps_[Phase(rel_stamp)].push_back(rel_stamp);
  }
  return lag_ms;
}

size_t DeliveryChecker::KeyHash::operator()(const Key& k) const {
  uint64_t h = k.bits * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<uint64_t>(k.stamp) * 0xC2B2AE3D27D4EB4FULL + (h >> 29);
  h ^= static_cast<uint64_t>(k.name) * 0x165667B19E3779F9ULL + (h >> 32);
  return static_cast<size_t>(h);
}

uint32_t DeliveryChecker::NameId(std::string_view name, bool create) {
  name_scratch_.assign(name);
  auto it = names_.find(name_scratch_);
  if (it != names_.end()) {
    return it->second;
  }
  if (!create) {
    return 0;
  }
  uint32_t id = static_cast<uint32_t>(names_.size()) + 1;
  names_.emplace(name_scratch_, id);
  return id;
}

void DeliveryChecker::Expect(std::string_view name, int64_t rel_stamp, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  slots_[Key{NameId(name, true), rel_stamp, bits}].expected += 1;
  counts_[Phase(rel_stamp)].expected += 1;
}

void DeliveryChecker::Deliver(std::string_view name, int64_t stamp, double value,
                              double arrival_ms) {
  const int64_t rel = stamp - base_ms_;
  Counts& c = counts_[Phase(rel)];
  uint32_t id = NameId(name, false);
  if (id == 0) {
    c.corrupt += 1;
    return;
  }
  double lag_ms = RecordLag(rel, arrival_ms);
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  auto it = slots_.find(Key{id, rel, bits});
  if (it == slots_.end()) {
    c.corrupt += 1;
    return;
  }
  Slot& slot = it->second;
  if (slot.consumed >= slot.expected) {
    c.duplicate += 1;
    return;
  }
  slot.consumed += 1;
  if (lag_ms > late_limit_ms_) {
    c.late += 1;
  } else {
    c.exact += 1;
  }
}

SpectrumChecker::SpectrumChecker(const Schedule& s, const std::vector<std::string>& subs,
                                 int block, int64_t delay_ms, double late_limit_ms,
                                 int64_t split_stamp)
    : StreamChecker(delay_ms, late_limit_ms, true, split_stamp),
      block_(block),
      bins_per_block_(static_cast<size_t>(block / 2 + 1)) {
  std::vector<int64_t> track_of(s.names.size(), -1);
  for (size_t i = 0; i < s.names.size(); ++i) {
    if (MatchesAny(subs, s.names[i])) {
      track_of[i] = static_cast<int64_t>(tracks_.size());
      tracks_by_name_.emplace(s.names[i], static_cast<uint32_t>(tracks_.size()));
      tracks_.emplace_back();
    }
  }
  for (const Scheduled& t : s.tuples) {
    if (track_of[t.name] >= 0) {
      Track& tr = tracks_[static_cast<size_t>(track_of[t.name])];
      tr.values.push_back(t.value);
      tr.stamps.push_back(t.offset_ms());
    }
  }
  for (Track& tr : tracks_) {
    tr.used.assign(tr.values.size(), 0);
    for (size_t e = static_cast<size_t>(block_) - 1; e < tr.values.size();
         e += static_cast<size_t>(block_)) {
      counts_[Phase(tr.stamps[e])].expected += static_cast<int64_t>(bins_per_block_);
    }
  }
}

void SpectrumChecker::Deliver(std::string_view name, int64_t stamp, double value,
                              double arrival_ms) {
  const int64_t rel = stamp - base_ms_;
  size_t pos = name.rfind(".bin");
  size_t bin = 0;
  auto it = tracks_by_name_.end();
  if (pos != std::string_view::npos) {
    const char* first = name.data() + pos + 4;
    const char* last = name.data() + name.size();
    auto [ptr, ec] = std::from_chars(first, last, bin);
    if (ec == std::errc() && ptr == last && first != last && bin < bins_per_block_) {
      name_scratch_.assign(name.substr(0, pos));
      it = tracks_by_name_.find(name_scratch_);
    }
  }
  if (it == tracks_by_name_.end()) {
    counts_[Phase(rel)].corrupt += 1;
    return;
  }
  double lag_ms = RecordLag(rel, arrival_ms);
  // Bins of one block arrive back to back; a new (name, stamp) or a bin seen
  // twice opens the next block.
  if (blocks_.empty() || blocks_.back().track != it->second ||
      blocks_.back().rel_stamp != rel || blocks_.back().present[bin] != 0) {
    Block b;
    b.track = it->second;
    b.rel_stamp = rel;
    b.bins.assign(bins_per_block_, 0.0);
    b.present.assign(bins_per_block_, 0);
    b.bin_lags.assign(bins_per_block_, 0.0);
    blocks_.push_back(std::move(b));
  }
  Block& b = blocks_.back();
  b.bins[bin] = value;
  b.present[bin] = 1;
  b.bin_lags[bin] = lag_ms;
}

void SpectrumChecker::Verify(const Block& b) {
  Track& tr = tracks_[b.track];
  auto matches = [&](int64_t e) {
    if (e < block_ - 1 || e >= static_cast<int64_t>(tr.values.size()) ||
        tr.stamps[static_cast<size_t>(e)] != b.rel_stamp) {
      return false;
    }
    size_t first = static_cast<size_t>(e - block_ + 1);
    std::vector<double> values(tr.values.begin() + static_cast<std::ptrdiff_t>(first),
                               tr.values.begin() + e + 1);
    // The stage infers the rate from the block's stamps; power_db does not
    // depend on it, but the same formula keeps the call identical.
    double rate_hz = 1000.0;
    int64_t span = tr.stamps[static_cast<size_t>(e)] - tr.stamps[first];
    if (span > 0) {
      rate_hz = static_cast<double>(values.size() - 1) * 1000.0 / static_cast<double>(span);
    }
    gscope::Spectrum sp =
        gscope::ComputeSpectrum(values, rate_hz, {.window = gscope::WindowKind::kHann});
    for (size_t k = 0; k < bins_per_block_; ++k) {
      if (b.present[k] != 0 && (k >= sp.power_db.size() ||
                                std::memcmp(&sp.power_db[k], &b.bins[k], sizeof(double)) != 0)) {
        return false;
      }
    }
    return true;
  };
  // Without drops the next block ends block_ samples after the last one;
  // otherwise any sample of the name carrying the block's stamp may end it.
  int64_t end = -1;
  int64_t preferred = tr.last_end + block_;
  if (matches(preferred)) {
    end = preferred;
  } else {
    auto range = std::equal_range(tr.stamps.begin(), tr.stamps.end(), b.rel_stamp);
    for (auto i = range.first; i != range.second && end < 0; ++i) {
      int64_t e = i - tr.stamps.begin();
      if (e != preferred && matches(e)) {
        end = e;
      }
    }
  }
  Counts& c = counts_[Phase(b.rel_stamp)];
  int64_t present = std::count(b.present.begin(), b.present.end(), 1);
  if (end < 0) {
    c.corrupt += present;
    return;
  }
  if (tr.used[static_cast<size_t>(end)] != 0) {
    c.duplicate += present;
    return;
  }
  tr.used[static_cast<size_t>(end)] = 1;
  tr.last_end = end;
  for (size_t k = 0; k < bins_per_block_; ++k) {
    if (b.present[k] != 0) {
      (b.bin_lags[k] > late_limit_ms_ ? c.late : c.exact) += 1;
    }
  }
}

void SpectrumChecker::Finish() {
  for (const Block& b : blocks_) {
    Verify(b);
  }
  blocks_.clear();
}

bool MatchesAny(const std::vector<std::string>& subs, std::string_view name) {
  for (const std::string& p : subs) {
    if (gscope::GlobMatch(p, name)) {
      return true;
    }
  }
  return false;
}

void ExpectRaw(const Schedule& s, const std::vector<std::string>& subs,
               DeliveryChecker* checker) {
  std::vector<char> match(s.names.size());
  for (size_t i = 0; i < s.names.size(); ++i) {
    match[i] = MatchesAny(subs, s.names[i]) ? 1 : 0;
  }
  for (const Scheduled& t : s.tuples) {
    if (match[t.name] != 0) {
      checker->Expect(s.names[t.name], t.offset_ms(), t.value);
    }
  }
}

int64_t ExpectReplay(const Schedule& s, const std::vector<std::string>& subs, int64_t t0,
                     int64_t t1, DeliveryChecker* checker) {
  int64_t n = 0;
  std::vector<char> match(s.names.size());
  for (size_t i = 0; i < s.names.size(); ++i) {
    match[i] = MatchesAny(subs, s.names[i]) ? 1 : 0;
  }
  for (const Scheduled& t : s.tuples) {
    int64_t stamp = t.offset_ms();
    if (match[t.name] != 0 && stamp >= t0 && stamp <= t1) {
      checker->Expect(s.names[t.name], stamp, t.value);
      n += 1;
    }
  }
  return n;
}

}  // namespace servebench
