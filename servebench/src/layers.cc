#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "checker.h"
#include "core/ingest_router.h"
#include "core/scope.h"
#include "core/signal_filter.h"
#include "core/tuple.h"
#include "freq/spectrum.h"
#include "net/frame_codec.h"
#include "record/extent_log.h"
#include "runtime/clock.h"
#include "runtime/event_loop.h"

namespace servebench {

namespace {

// Calls cheaper than ~100 ns are timed in batches so the clock reads do not
// dominate what is measured.
constexpr size_t kBatch = 256;
// Producers seal a binary frame every 128 samples (StreamClient default).
constexpr size_t kFrameSamples = 128;
// Roughly one read chunk of text tuples per router flush.
constexpr size_t kFlushEvery = 64;
constexpr int64_t kPollMs = 10;
// Receive-side chunk size for the frame decoder.
constexpr size_t kReadChunk = 4096;

volatile double g_sink = 0.0;

// One live scope topology (see layers.h) on a SimClock.
struct Topology {
  struct Member {
    std::unique_ptr<gscope::Scope> scope;
    std::unique_ptr<gscope::SignalFilter> filter;  // null = unfiltered
    int64_t expected = 0;                          // samples routed to it
  };
  gscope::SimClock clock{0};
  gscope::MainLoop loop{&clock};
  gscope::IngestRouter router;
  std::vector<Member> members;
  int64_t taps = 0;

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;
  ~Topology() {
    for (Member& m : members) {
      router.RemoveScope(m.scope.get());
    }
  }

  Topology(const WorkloadSpec& spec, const Schedule& s) {
    auto add = [&](const std::vector<std::string>* subs, bool tap) {
      Member m;
      m.scope = std::make_unique<gscope::Scope>(&loop, gscope::ScopeOptions{});
      m.scope->SetPollingMode(kPollMs);
      // Every scope gets the viewers' delay.  On the live server the
      // recorder's scope keeps its own, later time origin, so it never
      // late-drops either.
      m.scope->SetDelayMs(spec.delay_ms);
      if (tap) {
        m.scope->SetBufferedTap([this](std::string_view, int64_t, double) { taps += 1; },
                                gscope::TapMode::kEverySample);
      }
      if (subs != nullptr) {
        m.filter = std::make_unique<gscope::SignalFilter>();
        for (const std::string& p : *subs) {
          m.filter->Add(p);
        }
      }
      for (const Scheduled& t : s.tuples) {
        if (subs == nullptr || MatchesAny(*subs, s.names[t.name])) {
          m.expected += 1;
        }
      }
      m.scope->TickOnce();  // starts scope time at the SimClock's zero
      router.AddScope(m.scope.get(), m.filter.get());
      members.push_back(std::move(m));
    };
    add(nullptr, false);  // the host's display scope
    bool staged_group = false;
    bool recording = false;
    for (const ViewerSpec& v : spec.viewers) {
      if (!v.stage.empty()) {
        if (!staged_group) {
          add(&v.subs, true);  // one shared stage group
          staged_group = true;
        }
        continue;
      }
      add(&v.subs, true);
      recording = recording || v.operator_session;
    }
    if (recording) {
      add(nullptr, true);
    }
  }

  int64_t expected_samples() const {
    int64_t n = 0;
    for (const Member& m : members) {
      n += m.expected;
    }
    return n;
  }
};

class Layer {
 public:
  Layer(SpanLog* spans, uint32_t parent, const char* name)
      : spans_(spans), id_(spans->Open(name, parent, 0)) {}
  ~Layer() { spans_->Close(id_); }
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  // Records one timed call (or batch) and returns its duration.
  int64_t Record(const char* name, uint64_t request, int64_t t0, int64_t t1) {
    spans_->Add(name, id_, request, t0, t1);
    return t1 - t0;
  }
  uint32_t id() const { return id_; }

 private:
  SpanLog* spans_;
  uint32_t id_;
};

int64_t Stamp(const Scheduled& t) { return t.offset_ms(); }

// Router + scope drain over one topology.  `route_path` feeds through
// ResolveRoute/AppendRoute (the binary ingest path) instead of Append.
void FeedRouter(const WorkloadSpec& spec, const Schedule& s, bool route_path, Layer& layer,
                int64_t* append_ns, int64_t* flush_ns, int64_t* drain_ns, int64_t* drained) {
  Topology topo(spec, s);
  std::vector<uint32_t> routes(s.names.size());
  if (route_path) {
    for (size_t i = 0; i < s.names.size(); ++i) {
      topo.router.ResolveRoute(s.names[i], &routes[i]);
    }
  }
  int64_t next_tick_ms = kPollMs;
  auto tick_all = [&](uint64_t request) {
    for (Topology::Member& m : topo.members) {
      int64_t t0 = MonoNs();
      m.scope->TickOnce();
      *drain_ns += layer.Record("core.scope.tick", request, t0, MonoNs());
    }
  };
  const size_t n = s.tuples.size();
  for (size_t begin = 0; begin < n; begin += kFlushEvery) {
    size_t end = std::min(n, begin + kFlushEvery);
    int64_t now_ms = Stamp(s.tuples[end - 1]);
    while (next_tick_ms <= now_ms) {
      topo.clock.SetNs(gscope::MillisToNanos(next_tick_ms));
      tick_all(static_cast<uint64_t>(next_tick_ms));
      next_tick_ms += kPollMs;
    }
    topo.clock.SetNs(gscope::MillisToNanos(now_ms));
    int64_t t0 = MonoNs();
    for (size_t i = begin; i < end; ++i) {
      const Scheduled& t = s.tuples[i];
      if (route_path) {
        topo.router.AppendRoute(routes[t.name], Stamp(t), t.value);
      } else {
        topo.router.Append(s.names[t.name], Stamp(t), t.value);
      }
    }
    int64_t t1 = MonoNs();
    *append_ns += layer.Record(route_path ? "core.ingest_router.append_route"
                                          : "core.ingest_router.append",
                               begin, t0, t1);
    topo.router.Flush();
    *flush_ns += layer.Record("core.ingest_router.flush", begin, t1, MonoNs());
  }
  int64_t last_ms = n == 0 ? 0 : Stamp(s.tuples[n - 1]);
  while (next_tick_ms <= last_ms + spec.delay_ms + 2 * kPollMs) {
    topo.clock.SetNs(gscope::MillisToNanos(next_tick_ms));
    tick_all(static_cast<uint64_t>(next_tick_ms));
    next_tick_ms += kPollMs;
  }
  *drained += topo.expected_samples();
  g_sink = g_sink + static_cast<double>(topo.taps);
}

struct DecodeCounter {
  int64_t records = 0;
  void OnDictEntry(uint32_t, std::string_view) {}
  void OnSampleBatch(int64_t, const char* recs, size_t n) {
    records += static_cast<int64_t>(n);
    if (n > 0) {
      g_sink = g_sink + gscope::wire::LoadF64(recs + 8);
    }
  }
  void OnTextLine(std::string_view) {}
};

double PerUnit(int64_t total_ns, int64_t units) {
  return units <= 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(units);
}

}  // namespace

bool RunLayerIsolation(const WorkloadSpec& spec, const Schedule& s,
                       const std::string& scratch_dir, SpanLog* spans,
                       std::map<std::string, double>* metrics, std::string* err) {
  const size_t n = s.tuples.size();
  const int64_t count = static_cast<int64_t>(n);
  Layer isolation(spans, 0, "isolation");
  const uint32_t root = isolation.id();

  {  // core.tuple: ParseTupleView over the exact text lines producers send.
    Layer layer(spans, root, "layer.core.tuple");
    std::string text;
    std::vector<size_t> ends;
    ends.reserve(n);
    for (const Scheduled& t : s.tuples) {
      gscope::AppendTuple(text, Stamp(t), t.value, s.names[t.name]);
      ends.push_back(text.size() - 1);  // the newline
    }
    int64_t parse_ns = 0, parsed = 0;
    size_t line_begin = 0;
    for (size_t b = 0; b < n; b += kBatch) {
      size_t e = std::min(n, b + kBatch);
      int64_t t0 = MonoNs();
      for (size_t i = b; i < e; ++i) {
        std::optional<gscope::TupleView> v = gscope::ParseTupleView(
            std::string_view(text).substr(line_begin, ends[i] - line_begin));
        if (v.has_value() && v->value == s.tuples[i].value) {
          parsed += 1;
        }
        line_begin = ends[i] + 1;
      }
      parse_ns += layer.Record("core.tuple.parse", b, t0, MonoNs());
    }
    if (parsed != count) {
      *err = "ParseTupleView returned " + std::to_string(parsed) + " of " +
             std::to_string(count) + " tuples";
      return false;
    }
    (*metrics)["core.tuple.parse_ns"] = PerUnit(parse_ns, count);
  }

  {  // net.frame_codec: the producers' framing, then the server's decode.
    Layer layer(spans, root, "layer.net.frame_codec");
    gscope::wire::WireEncoder enc;
    std::string frames;
    int64_t encode_ns = 0;
    for (size_t b = 0; b < n; b += kBatch) {
      size_t e = std::min(n, b + kBatch);
      int64_t t0 = MonoNs();
      for (size_t i = b; i < e; ++i) {
        const Scheduled& t = s.tuples[i];
        if (enc.Add(s.names[t.name], Stamp(t), t.value) ==
            gscope::wire::StageResult::kFrameFull) {
          enc.EmitFrame(frames);
          enc.Add(s.names[t.name], Stamp(t), t.value);
        }
        if (enc.staged_samples() >= kFrameSamples) {
          enc.EmitFrame(frames);
        }
      }
      encode_ns += layer.Record("net.frame_codec.encode", b, t0, MonoNs());
    }
    enc.EmitFrame(frames);
    gscope::wire::FrameDecoder dec;
    DecodeCounter counter;
    int64_t decode_ns = 0;
    for (size_t off = 0; off < frames.size(); off += kReadChunk) {
      size_t len = std::min(kReadChunk, frames.size() - off);
      int64_t t0 = MonoNs();
      dec.Consume(frames.data() + off, len, counter);
      decode_ns += layer.Record("net.frame_codec.consume", off, t0, MonoNs());
    }
    if (counter.records != count || dec.stats().crc_errors != 0) {
      *err = "FrameDecoder returned " + std::to_string(counter.records) + " of " +
             std::to_string(count) + " records";
      return false;
    }
    (*metrics)["net.frame_codec.encode_ns_per_tuple"] = PerUnit(encode_ns, count);
    (*metrics)["net.frame_codec.decode_ns_per_tuple"] = PerUnit(decode_ns, count);
  }

  {  // core.ingest_router + core.scope with the live topology.
    Layer layer(spans, root, "layer.core.ingest_router");
    int64_t append_ns = 0, flush_ns = 0, drain_ns = 0, drained = 0;
    FeedRouter(spec, s, false, layer, &append_ns, &flush_ns, &drain_ns, &drained);
    int64_t route_ns = 0, unused_flush = 0, unused_drain = 0, unused_drained = 0;
    FeedRouter(spec, s, true, layer, &route_ns, &unused_flush, &unused_drain, &unused_drained);
    (*metrics)["core.ingest_router.append_ns"] = PerUnit(append_ns, count);
    (*metrics)["core.ingest_router.append_route_ns"] = PerUnit(route_ns, count);
    (*metrics)["core.ingest_router.flush_ns"] = PerUnit(flush_ns, count);
    (*metrics)["core.scope.drain_ns_per_sample"] = PerUnit(drain_ns, drained);
  }

  {  // freq: ComputeSpectrum over each name's consecutive blocks.
    Layer layer(spans, root, "layer.freq.spectrum");
    const size_t block =
        spec.spectrum_block > 0 ? static_cast<size_t>(spec.spectrum_block) : 256;
    std::vector<std::vector<double>> open(s.names.size());
    int64_t spectrum_ns = 0, blocks = 0;
    for (const Scheduled& t : s.tuples) {
      std::vector<double>& b = open[t.name];
      b.push_back(t.value);
      if (b.size() < block) {
        continue;
      }
      int64_t t0 = MonoNs();
      gscope::Spectrum sp =
          gscope::ComputeSpectrum(b, 1000.0, {.window = gscope::WindowKind::kHann});
      spectrum_ns += layer.Record("freq.compute_spectrum", static_cast<uint64_t>(blocks), t0,
                                  MonoNs());
      g_sink = g_sink + sp.power_db[1];
      blocks += 1;
      b.clear();
    }
    (*metrics)["freq.spectrum_us_per_block"] = PerUnit(spectrum_ns, blocks) / 1000.0;
  }

  {  // record: capture every tuple with the server's default geometry, then
     // read the whole retained range back.
    Layer layer(spans, root, "layer.record.extent_log");
    std::string path = scratch_dir + "/isolation.extents";
    unlink(path.c_str());
    int64_t append_ns = 0, appends = 0, seal_ns = 0, seals = 0;
    {
      gscope::ExtentLog log;
      if (!log.Open(path)) {
        *err = "ExtentLog::Open failed on " + path;
        return false;
      }
      int64_t batch_start = MonoNs();
      for (size_t i = 0; i < n; ++i) {
        const Scheduled& t = s.tuples[i];
        int64_t sealed = log.stats().extents_sealed;
        int64_t t0 = MonoNs();
        log.Append(s.names[t.name], Stamp(t), t.value);
        int64_t dt = MonoNs() - t0;
        if (log.stats().extents_sealed != sealed) {
          // This Append filled the open extent and sealed it.
          seal_ns += dt;
          seals += 1;
        } else {
          append_ns += dt;
          appends += 1;
        }
        if ((i + 1) % kBatch == 0 || i + 1 == n) {
          int64_t batch_end = MonoNs();
          layer.Record("record.extent_log.append", i, batch_start, batch_end);
          batch_start = batch_end;
        }
      }
      int64_t t0 = MonoNs();
      if (log.SealNow()) {
        seal_ns += layer.Record("record.extent_log.seal_now", 0, t0, MonoNs());
        seals += 1;
      }
    }
    (*metrics)["record.extent_log.append_ns"] = PerUnit(append_ns, appends);
    (*metrics)["record.extent_log.seal_us"] = PerUnit(seal_ns, seals) / 1000.0;

    gscope::ExtentReader reader;
    if (!reader.Open(path)) {
      *err = "ExtentReader::Open failed on " + path;
      return false;
    }
    std::vector<gscope::ReplayRecord> out;
    int64_t t0 = MonoNs();
    reader.ReadWindow(reader.min_time_ms(), reader.max_time_ms(), &out);
    int64_t read_ns = layer.Record("record.extent_reader.read_window", 0, t0, MonoNs());
    if (out.empty() || out.size() > n) {
      *err = "ExtentReader returned " + std::to_string(out.size()) + " records for " +
             std::to_string(n) + " appended";
      return false;
    }
    (*metrics)["record.extent_reader.read_ns_per_record"] =
        PerUnit(read_ns, static_cast<int64_t>(out.size()));
    unlink(path.c_str());
  }
  return true;
}

}  // namespace servebench
