// servebench: open-loop serving benchmark for the gscope stream server.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Forks a StreamServer host (server_host.h), connects at most four clients
// from this single-threaded process, and offers the workload's seeded
// schedule open loop: each tuple is stamped with the scope time it was due,
// so a stall anywhere shows up as lag.  Every viewer stream is matched
// against the schedule (checker.h).  Prints human-readable lines, then one
// JSON object as the last line of stdout: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
//
// A traced run paces the first half of the schedule untraced and the second
// half traced (per-Iterate timing in the host, spans here), so it reports
// the tracing overhead as traced-minus-untraced end-to-end metrics of one
// run; then it runs the layer-isolation pass (layers.h) and writes spans.
//
// Exit status: 0 with a result; 2 on a harness failure (bad arguments,
// server failing to start, setup timeout, generator lateness past its
// bound), without printing a result.  Product failures - lost, late, wrong
// or duplicated deliveries - are measured, not fatal.
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checker.h"
#include "layers.h"
#include "net/control_client.h"
#include "net/stream_client.h"
#include "runtime/event_loop.h"
#include "schedule.h"
#include "server_host.h"
#include "spans.h"

namespace servebench {
namespace {

// Set-up is repeated this many times per run (fork to every verb answered);
// the last one serves the load and setup_s reports the median.
constexpr int kSetupRounds = 11;
constexpr int kSetupTimeoutMs = 10000;
constexpr int kReplyTimeoutMs = 10000;
// A delivery this far past its display deadline counts as lost (late).
constexpr double kLateLimitMs = 1000.0;
// Harness validity: the generator itself must keep to its schedule.
constexpr double kGenLateP99BoundMs = 50.0;
// First stamp this far after the end of set-up.
constexpr int64_t kLeadMs = 30;
// Wait after the last due time before counting what has not arrived.
constexpr int64_t kDrainSlackMs = 300;
// record-replay: burst replays of one recorded window (median CPU).
constexpr int kReplayBursts = 5;
// The paced phase is cut into windows.  Server CPU is read at every window
// boundary and lag tails are taken per window (by stamp); the reported
// server_cpu_ns_per_tuple and lag_p99_ms are medians over windows, so a
// transient stall of the shared host moves one window, not the result.  The
// p99 and maximum over the whole phase are reported per layer as well.
constexpr int64_t kWindowMs = 100;
constexpr int64_t kCpuWindowNs = kWindowMs * 1'000'000;
// A window's p99 needs at least ten samples beyond it.
constexpr size_t kMinWindowSamples = 1000;
// Traced runs keep one viewer-callback span in this many.
constexpr int64_t kCallbackSpanEvery = 16;
// Scheduling priority of this process (see main()).
constexpr int kGeneratorNice = -10;
// Watchdog: every run ends within 180 s, whatever hangs.
constexpr unsigned kWatchdogSeconds = 170;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/servebench-out";
};

[[noreturn]] void HarnessFail(const std::string& why) {
  std::fprintf(stderr, "servebench: harness failure: %s\n", why.c_str());
  KillAllServers();
  std::exit(2);
}

void OnWatchdog(int) {
  static const char msg[] = "servebench: harness failure: watchdog expired\n";
  ssize_t r = write(2, msg, sizeof(msg) - 1);
  (void)r;
  KillAllServers();
  _exit(2);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 && a->seconds <= 60.0;
}

std::string Num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string FormatCounts(const Counts& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "expected %lld exact %lld late %lld missing %lld duplicate %lld corrupt %lld",
                static_cast<long long>(c.expected), static_cast<long long>(c.exact),
                static_cast<long long>(c.late), static_cast<long long>(c.missing()),
                static_cast<long long>(c.duplicate), static_cast<long long>(c.corrupt));
  return buf;
}

// One viewer connection: verbs, replies and its reference checkers.
struct Viewer {
  const ViewerSpec* spec = nullptr;
  std::unique_ptr<gscope::ControlClient> client;
  int oks_expected = 0;
  int oks = 0;
  std::vector<std::string> errors;
  std::string last_stats;
  std::unique_ptr<StreamChecker> live;
  DeliveryChecker* replay = nullptr;  // set while a REPLAY burst streams in
  bool replay_done = false;
  int64_t replay_announced = -1;
  int64_t stray = 0;                  // tuples received before the load
  int64_t callbacks = 0;
};

// Everything one set-up creates, torn down as a unit (clients first).
struct Rig {
  ServerProcess server;
  std::vector<std::unique_ptr<gscope::StreamClient>> producers;
  std::vector<std::unique_ptr<Viewer>> viewers;
};

class Bench {
 public:
  Bench(Args args, WorkloadSpec spec) : args_(std::move(args)), spec_(std::move(spec)) {}
  int Run();

 private:
  // Forks a server, connects every client, sends every verb and waits for
  // all of them to answer OK.  Returns the set-up time in seconds.
  double Setup(Rig* rig, int round);
  void Pump(const std::function<bool()>& done, int timeout_ms, const char* what);
  void SendLoad(Rig* rig);
  void Drain();
  void CollectStats(Rig* rig);
  void RunReplays(Rig* rig);
  double ArrivalMs() const {
    return static_cast<double>(MonoNs() - origin_ns_) / 1e6;
  }

  Args args_;
  WorkloadSpec spec_;
  gscope::MainLoop loop_;
  SpanLog spans_;
  bool tracing_ = false;   // parent spans on (the traced half)
  uint32_t phase_span_ = 0;
  int64_t origin_ns_ = 0;
  uint64_t verb_seq_ = 0;

  Schedule sched_;
  int64_t base_ms_ = 0;      // stamp of offset 0
  int64_t start_ns_ = 0;     // CLOCK_MONOTONIC of offset 0
  int64_t half_ns_ = INT64_MAX;

  // Measurements.
  std::vector<double> setup_s_;
  int64_t offered_ = 0;
  // Server CPU per paced window (kCpuWindowNs), tagged with its phase.
  struct CpuWindow {
    int64_t cpu_ns = 0;
    int64_t offered = 0;
    int64_t length_ns = 0;
    int phase = 0;
  };
  std::vector<CpuWindow> cpu_windows_;
  std::vector<double> late_ms_;
  std::vector<double> send_ns_;
  int64_t send_failed_ = 0;
  int64_t verbs_ = 0;
  std::map<std::string, double> server_stats_;   // the STATS verb
  std::map<std::string, double> snapshot_;       // the host's SNAP
  std::vector<double> replay_cpu_per_tuple_;
  Counts replay_counts_;
  int64_t replay_count_mismatch_ = 0;
  int64_t replay_wrong_ = 0;  // corrupt + duplicate in repeated bursts
};

void Bench::Pump(const std::function<bool()>& done, int timeout_ms, const char* what) {
  int64_t deadline = MonoNs() + static_cast<int64_t>(timeout_ms) * 1'000'000;
  while (!done()) {
    if (MonoNs() > deadline) {
      HarnessFail(std::string("timeout waiting for ") + what);
    }
    loop_.Iterate(true);
  }
}

double Bench::Setup(Rig* rig, int round) {
  int64_t t0 = MonoNs();
  std::string err;
  if (!rig->server.Start(spec_.delay_ms, kSetupTimeoutMs, &err)) {
    HarnessFail(err);
  }
  origin_ns_ = rig->server.origin_ns();
  uint16_t port = rig->server.port();
  for (Wire w : spec_.producers) {
    gscope::StreamClient::Options o;
    o.wire_format = w == Wire::kBinary ? gscope::WireFormat::kBinary : gscope::WireFormat::kText;
    auto p = std::make_unique<gscope::StreamClient>(&loop_, o);
    if (!p->Connect(port)) {
      HarnessFail("producer connect failed");
    }
    rig->producers.push_back(std::move(p));
  }
  for (const ViewerSpec& vs : spec_.viewers) {
    auto v = std::make_unique<Viewer>();
    v->spec = &vs;
    gscope::ControlClientOptions o;
    o.wire_format = vs.wire == Wire::kBinary ? gscope::WireFormat::kBinary
                                             : gscope::WireFormat::kText;
    v->client = std::make_unique<gscope::ControlClient>(&loop_, o);
    Viewer* vp = v.get();
    v->client->SetReplyCallback([vp](std::string_view line) {
      if (line.rfind("OK HELLO", 0) == 0) {
        return;  // wire negotiation, not one of the verbs sent
      }
      if (line.rfind("OK", 0) == 0) {
        vp->oks += 1;
        if (line.rfind("OK STATS", 0) == 0) {
          vp->last_stats.assign(line);
        } else if (line.rfind("OK REPLAY ", 0) == 0) {
          vp->replay_announced = std::strtoll(std::string(line.substr(10)).c_str(), nullptr, 10);
        }
      } else if (line.rfind("ERR", 0) == 0) {
        vp->errors.emplace_back(line);
      } else if (line.rfind("INFO REPLAY DONE", 0) == 0) {
        vp->replay = nullptr;
        vp->replay_done = true;
      }
    });
    v->client->SetTupleCallback([this, vp](const gscope::TupleView& t) {
      double arrival = ArrivalMs();
      vp->callbacks += 1;
      int64_t c0 = tracing_ && vp->callbacks % kCallbackSpanEvery == 0 ? MonoNs() : 0;
      if (vp->replay != nullptr) {
        vp->replay->Deliver(t.name, t.time_ms, t.value, arrival);
      } else if (vp->live != nullptr) {
        vp->live->Deliver(t.name, t.time_ms, t.value, arrival);
      } else {
        vp->stray += 1;
      }
      if (c0 != 0) {
        spans_.Add("viewer.callback", phase_span_, static_cast<uint64_t>(vp->callbacks), c0,
                   MonoNs());
      }
    });
    if (!v->client->Connect(port)) {
      HarnessFail("viewer connect failed");
    }
    // Verbs go out right after Connect(), as the ControlClient documents:
    // they queue while the handshake is in flight.
    for (const std::string& p : vs.subs) {
      v->client->Subscribe(p);
      v->oks_expected += 1;
    }
    v->client->SetDelay(spec_.delay_ms);
    v->oks_expected += 1;
    if (!vs.stage.empty()) {
      v->client->Stage(vs.stage);
      v->oks_expected += 1;
    }
    if (vs.operator_session) {
      std::string path = args_.out_dir + "/capture-" + std::to_string(round) + ".extents";
      unlink(path.c_str());
      v->client->Record(path);
      v->oks_expected += 1;
    }
    verbs_ += v->oks_expected;
    rig->viewers.push_back(std::move(v));
  }
  uint32_t verb_span = args_.trace ? spans_.Open("verb.setup", 0, ++verb_seq_) : 0;
  Pump(
      [&]() {
        for (const auto& p : rig->producers) {
          if (p->state() == gscope::ConnectState::kFailed) {
            HarnessFail("producer connect failed");
          }
          if (!p->connected()) {
            return false;
          }
        }
        for (size_t i = 0; i < rig->producers.size(); ++i) {
          if (spec_.producers[i] == Wire::kBinary && !rig->producers[i]->wire_binary()) {
            return false;
          }
        }
        for (const auto& v : rig->viewers) {
          if (!v->errors.empty()) {
            HarnessFail("verb refused during set-up: " + v->errors.front());
          }
          if (v->oks < v->oks_expected) {
            return false;
          }
          if (v->spec->wire == Wire::kBinary && !v->client->wire_binary()) {
            return false;
          }
        }
        return true;
      },
      kSetupTimeoutMs, "set-up");
  spans_.Close(verb_span);
  return static_cast<double>(MonoNs() - t0) / 1e9;
}

void Bench::SendLoad(Rig* rig) {
  const std::vector<Scheduled>& tuples = sched_.tuples;
  const size_t n = tuples.size();
  late_ms_.assign(n, 0.0);
  size_t next = 0;
  uint64_t batch = 0;
  int phase = 0;
  CpuWindow window;
  int64_t window_start_ns = 0;
  int64_t window_cpu0 = rig->server.CpuNs();
  auto close_window = [&](int64_t end_ns) {
    int64_t cpu = rig->server.CpuNs();
    window.cpu_ns = cpu - window_cpu0;
    window.length_ns = end_ns - window_start_ns;
    window.phase = window_start_ns >= half_ns_ ? 1 : 0;
    cpu_windows_.push_back(window);
    window = CpuWindow();
    window_start_ns = end_ns;
    window_cpu0 = cpu;
  };
  while (next < n) {
    int64_t now = MonoNs();
    int64_t due = now - start_ns_;
    if (due >= window_start_ns + kCpuWindowNs) {
      close_window(window_start_ns + kCpuWindowNs);
    }
    if (phase == 0 && due >= half_ns_) {
      phase = 1;
      if (args_.trace) {
        rig->server.EnableTrace();
        tracing_ = true;
        spans_.Close(phase_span_);
        phase_span_ = spans_.Open("run.paced_traced", 0, 0);
      }
    }
    size_t first = next;
    while (next < n && tuples[next].offset_ns <= due) {
      const Scheduled& t = tuples[next];
      int64_t s0 = tracing_ ? MonoNs() : 0;
      bool ok = rig->producers[sched_.producer_of[t.name]]->Send(base_ms_ + t.offset_ms(),
                                                                  t.value, sched_.names[t.name]);
      if (tracing_) {
        send_ns_.push_back(static_cast<double>(MonoNs() - s0));
      }
      if (!ok) {
        send_failed_ += 1;
      }
      late_ms_[next] = static_cast<double>(now - (start_ns_ + t.offset_ns)) / 1e6;
      window.offered += 1;
      offered_ += 1;
      next += 1;
    }
    if (tracing_ && next > first) {
      spans_.Add("gen.send_batch", phase_span_, batch, now, MonoNs());
    }
    batch += 1;
    loop_.Iterate(true);  // the 1 ms wake timer bounds the block
  }
  close_window(n == 0 ? 0 : tuples.back().offset_ns + 1);
}

void Bench::Drain() {
  int64_t last = sched_.tuples.empty() ? 0 : sched_.tuples.back().offset_ns;
  int64_t until = start_ns_ + last + (spec_.delay_ms + kDrainSlackMs) * 1'000'000;
  uint32_t span = args_.trace ? spans_.Open("run.drain", 0, 0) : 0;
  while (MonoNs() < until) {
    loop_.Iterate(true);
  }
  spans_.Close(span);
}

void Bench::CollectStats(Rig* rig) {
  Viewer* v = rig->viewers.front().get();
  v->last_stats.clear();
  uint32_t span = args_.trace ? spans_.Open("verb.stats", 0, ++verb_seq_) : 0;
  v->client->RequestStats();
  verbs_ += 1;
  Pump([&]() { return !v->last_stats.empty() || !v->errors.empty(); }, kReplyTimeoutMs,
       "STATS");
  spans_.Close(span);
  if (!v->errors.empty()) {
    HarnessFail("STATS refused: " + v->errors.front());
  }
  // "OK STATS k v k v ..."
  std::string_view rest = std::string_view(v->last_stats).substr(9);
  while (!rest.empty()) {
    size_t sp = rest.find(' ');
    std::string key(rest.substr(0, sp));
    rest = sp == std::string_view::npos ? std::string_view() : rest.substr(sp + 1);
    sp = rest.find(' ');
    std::string val(rest.substr(0, sp));
    rest = sp == std::string_view::npos ? std::string_view() : rest.substr(sp + 1);
    server_stats_[key] = std::strtod(val.c_str(), nullptr);
  }
}

void Bench::RunReplays(Rig* rig) {
  Viewer* op = nullptr;
  for (const auto& v : rig->viewers) {
    if (v->spec->operator_session) {
      op = v.get();
    }
  }
  if (op == nullptr) {
    return;
  }
  // A seeded window well inside the live phase: the default ring (256 x
  // 64 KiB extents) retains all of it, and one burst of it fits the
  // session's default 1 MiB egress backlog.
  const int64_t span_ms = std::llround(args_.seconds * 1000.0);
  Rng rng(args_.seed ^ 0x5EEDF00DULL);
  int64_t len = std::max<int64_t>(1, std::min<int64_t>(1500, span_ms * 3 / 10));
  uint64_t jitter_ms = static_cast<uint64_t>(std::max<int64_t>(1, span_ms / 10));
  int64_t t0 = span_ms / 5 + static_cast<int64_t>(rng.Below(jitter_ms));
  int64_t t1 = t0 + len - 1;
  for (int b = 0; b < kReplayBursts; ++b) {
    DeliveryChecker checker(spec_.delay_ms, INFINITY, false);
    int64_t expected = ExpectReplay(sched_, op->spec->subs, t0, t1, &checker);
    checker.SetBase(base_ms_);
    op->replay = &checker;
    op->replay_done = false;
    op->replay_announced = -1;
    uint32_t span = args_.trace ? spans_.Open("verb.replay", 0, ++verb_seq_) : 0;
    int64_t c0 = rig->server.CpuNs();
    op->client->Replay(base_ms_ + t0, base_ms_ + t1);
    verbs_ += 1;
    Pump([&]() { return op->replay_done || !op->errors.empty(); }, kReplyTimeoutMs, "REPLAY");
    int64_t c1 = rig->server.CpuNs();
    spans_.Close(span);
    op->replay = nullptr;
    if (!op->errors.empty()) {
      HarnessFail("REPLAY refused: " + op->errors.front());
    }
    // The server announces n ("OK REPLAY n") and must stream exactly n;
    // fewer than the schedule implies is loss, counted by the checker.
    Counts got = checker.total();
    if (op->replay_announced != got.exact + got.late + got.duplicate + got.corrupt) {
      replay_count_mismatch_ += 1;
    }
    // Every burst replays the same window (repeated for the CPU median), so
    // the schedule implies its tuples once: loss counts from the first burst,
    // wrong or repeated tuples from any.
    if (b == 0) {
      replay_counts_.Add(got);
    } else {
      replay_wrong_ += got.corrupt + got.duplicate;
    }
    replay_cpu_per_tuple_.push_back(static_cast<double>(c1 - c0) /
                                    static_cast<double>(std::max<int64_t>(1, expected)));
  }
}

struct PhaseResult {
  double lag_p50 = 0, lag_p99 = 0;  // lag_p99: median of per-window p99s
  double lag_p99_all = 0, lag_max = 0;
  int64_t lag_samples = 0;
  double delivered_frac = 0, loss_frac = 0;
  double cpu_ns_per_tuple = 0;
  Counts counts;
};

int Bench::Run() {
  loop_.AddTimeoutMs(1, []() { return true; });  // bounds every blocking Iterate
  mkdir(args_.out_dir.c_str(), 0755);
  if (args_.out_dir.find_first_of(" \t\n") != std::string::npos) {
    HarnessFail("output directory must not contain whitespace");
  }
  phase_span_ = 0;

  // Set-up, repeated; the last rig serves the load.
  std::unique_ptr<Rig> rig;
  for (int round = 0; round < kSetupRounds; ++round) {
    rig = std::make_unique<Rig>();
    setup_s_.push_back(Setup(rig.get(), round));
    if (round + 1 < kSetupRounds) {
      rig->viewers.clear();
      rig->producers.clear();
      rig->server.Quit("-", kReplyTimeoutMs);
      unlink((args_.out_dir + "/capture-" + std::to_string(round) + ".extents").c_str());
    }
  }

  // The schedule and every expected delivery, before the clock starts.
  sched_ = BuildSchedule(spec_, args_.seed, args_.seconds);
  int64_t split_ms = INT64_MAX;
  if (args_.trace) {
    split_ms = std::llround(args_.seconds * 500.0);
    half_ns_ = split_ms * 1'000'000;
  }
  for (const auto& v : rig->viewers) {
    if (!v->spec->stage.empty()) {
      v->live = std::make_unique<SpectrumChecker>(sched_, v->spec->subs, spec_.spectrum_block,
                                                  spec_.delay_ms, kLateLimitMs, split_ms);
    } else {
      auto raw = std::make_unique<DeliveryChecker>(spec_.delay_ms, kLateLimitMs, true, split_ms);
      ExpectRaw(sched_, v->spec->subs, raw.get());
      v->live = std::move(raw);
    }
  }
  base_ms_ = static_cast<int64_t>(ArrivalMs()) + kLeadMs;
  start_ns_ = origin_ns_ + base_ms_ * 1'000'000;
  for (const auto& v : rig->viewers) {
    v->live->SetBase(base_ms_);
  }
  // Wait out the lead so pacing starts on time.
  while (MonoNs() < start_ns_) {
    loop_.Iterate(true);
  }
  phase_span_ = args_.trace ? spans_.Open("run.paced_untraced", 0, 0) : 0;
  SendLoad(rig.get());
  spans_.Close(phase_span_);
  phase_span_ = 0;
  Drain();
  CollectStats(rig.get());
  RunReplays(rig.get());
  if (!rig->server.Snapshot(&snapshot_, kReplyTimeoutMs)) {
    HarnessFail("server snapshot failed");
  }

  // Client-side counters before tear-down.
  int64_t viewer_parse_errors = 0, frames_dropped = 0, backlog_hw = 0;
  int64_t viewer_bytes = 0, viewer_tuples = 0, stray = 0;
  for (const auto& p : rig->producers) {
    const gscope::StreamClient::Stats& s = p->stats();
    frames_dropped += s.tuples_dropped;
    backlog_hw = std::max(backlog_hw, s.backlog_high_water);
  }
  for (const auto& v : rig->viewers) {
    const gscope::ControlClient::Stats& s = v->client->stats();
    viewer_parse_errors += s.parse_errors;
    frames_dropped += s.frames_dropped;
    backlog_hw = std::max(backlog_hw, s.backlog_high_water);
    viewer_bytes += s.bytes_received;
    viewer_tuples += s.tuples_received;
    stray += v->stray;
  }
  std::string server_spans = args_.trace ? args_.out_dir + "/spans.server.jsonl" : "-";
  std::vector<std::unique_ptr<Viewer>> viewers = std::move(rig->viewers);
  rig->producers.clear();
  for (const auto& v : viewers) {
    v->client->Close();
    v->live->Finish();
  }
  if (!rig->server.Quit(server_spans, kReplyTimeoutMs)) {
    HarnessFail("server did not exit cleanly");
  }

  // Generator validity.
  std::vector<double> late = late_ms_;
  double gen_late_p99 = Percentile(late, 99.0);
  double gen_late_max = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  if (!(gen_late_p99 <= kGenLateP99BoundMs)) {
    HarnessFail("generator ran late: p99 " + Num(gen_late_p99) + " ms exceeds " +
                Num(kGenLateP99BoundMs) + " ms");
  }

  auto phase_result = [&](int phase) {
    PhaseResult r;
    std::vector<double> lags;
    std::map<int64_t, std::vector<double>> by_window;
    for (const auto& v : viewers) {
      r.counts.Add(v->live->counts(phase));
      const std::vector<double>& l = v->live->lags(phase);
      const std::vector<int64_t>& st = v->live->lag_stamps(phase);
      lags.insert(lags.end(), l.begin(), l.end());
      for (size_t i = 0; i < l.size(); ++i) {
        by_window[st[i] / kWindowMs].push_back(l[i]);
      }
    }
    r.lag_samples = static_cast<int64_t>(lags.size());
    if (lags.empty()) {
      // Nothing delivered: every tuple missed any latency limit.
      r.lag_p50 = r.lag_p99 = r.lag_p99_all = r.lag_max = kLateLimitMs;
    } else {
      r.lag_max = *std::max_element(lags.begin(), lags.end());
      r.lag_p50 = Percentile(lags, 50.0);
      r.lag_p99_all = Percentile(lags, 99.0);
      std::vector<double> window_p99;
      for (auto& [w, wl] : by_window) {
        if (wl.size() >= kMinWindowSamples) {
          window_p99.push_back(Percentile(wl, 99.0));
        }
      }
      r.lag_p99 = window_p99.empty() ? r.lag_p99_all : Percentile(window_p99, 50.0);
    }
    // Replayed tuples count in untraced runs; a traced run compares its two
    // halves, which only the live traffic has.
    Counts all = r.counts;
    if (!args_.trace) {
      all.Add(replay_counts_);
    }
    r.delivered_frac = all.expected == 0 ? 0.0
                                         : static_cast<double>(all.exact) /
                                               static_cast<double>(all.expected);
    r.loss_frac = 1.0 - r.delivered_frac;
    r.counts = all;
    // Median over the phase's windows; a trailing window shorter than half
    // a window only counts when the phase has no other.
    std::vector<double> per_tuple, partial;
    for (const CpuWindow& w : cpu_windows_) {
      if (w.phase != phase || w.offered == 0) {
        continue;
      }
      double v = static_cast<double>(w.cpu_ns) / static_cast<double>(w.offered);
      (w.length_ns * 2 >= kCpuWindowNs ? per_tuple : partial).push_back(v);
    }
    std::vector<double>& use = per_tuple.empty() ? partial : per_tuple;
    r.cpu_ns_per_tuple = use.empty() ? 0.0 : Percentile(use, 50.0);
    return r;
  };
  PhaseResult main = phase_result(0);
  PhaseResult traced;
  if (args_.trace) {
    traced = phase_result(1);
  }
  Counts total = main.counts;
  if (args_.trace) {
    total.Add(traced.counts);
  }
  std::vector<double> setups = setup_s_;
  double setup_median = Percentile(setups, 50.0);
  double stage_share = 0.0;
  {
    // stage_evals per input sample matched by a stage group (1.0 = shared).
    int64_t matched = 0;
    for (const ViewerSpec& vs : spec_.viewers) {
      if (!vs.stage.empty()) {
        for (const Scheduled& t : sched_.tuples) {
          matched += MatchesAny(vs.subs, sched_.names[t.name]) ? 1 : 0;
        }
        break;
      }
    }
    if (matched > 0) {
      stage_share = snapshot_["stage_evals"] / static_cast<double>(matched);
    }
  }
  double captured = server_stats_["samples_captured"];
  double capture_bytes_per_sample =
      captured > 0 ? server_stats_["capture_bytes"] / captured : 0.0;
  std::vector<double> rcpu = replay_cpu_per_tuple_;
  double replay_cpu = rcpu.empty() ? 0.0 : Percentile(rcpu, 50.0);

  // Output is wrong when a raw or replayed tuple was never sent, or any
  // delivery repeats.  A spectrum block that cannot match counts as lost, not
  // wrong: a sample the server late-dropped by design leaves it short.
  int64_t raw_corrupt = 0;
  for (const auto& v : viewers) {
    if (v->spec->stage.empty()) {
      raw_corrupt += v->live->total().corrupt;
    }
  }
  bool correct = raw_corrupt == 0 && total.duplicate == 0 && replay_counts_.corrupt == 0 &&
                 replay_counts_.duplicate == 0 && replay_wrong_ == 0 && stray == 0 &&
                 replay_count_mismatch_ == 0;

  // Human-readable report.
  std::printf("workload %s seed %llu seconds %s trace %d\n", spec_.name.c_str(),
              static_cast<unsigned long long>(args_.seed), Num(args_.seconds).c_str(),
              args_.trace ? 1 : 0);
  std::printf("host nproc %ld fanout_workers %s loops %s\n", sysconf(_SC_NPROCESSORS_ONLN),
              Num(snapshot_["fanout_workers"]).c_str(), Num(snapshot_["loops"]).c_str());
  auto report = [&](const char* label, const PhaseResult& r) {
    std::printf("%s setup_s %s s\n", label, Num(setup_median).c_str());
    std::printf("%s lag_p50_ms %s ms\n", label, Num(r.lag_p50).c_str());
    std::printf("%s lag_p99_ms %s ms (median of per-window p99s; whole-phase p99 %s ms, max "
                "%s ms, samples %lld)\n",
                label, Num(r.lag_p99).c_str(), Num(r.lag_p99_all).c_str(), Num(r.lag_max).c_str(),
                static_cast<long long>(r.lag_samples));
    std::printf("%s loss_frac %s (%s)\n", label, Num(r.loss_frac).c_str(),
                FormatCounts(r.counts).c_str());
    std::printf("%s server_cpu_ns_per_tuple %s ns\n", label, Num(r.cpu_ns_per_tuple).c_str());
  };
  report(args_.trace ? "untraced" : "e2e", main);
  if (args_.trace) {
    report("traced", traced);
  }
  if (!replay_cpu_per_tuple_.empty()) {
    std::printf("e2e replay_cpu_ns_per_tuple %s ns (bursts %zu, tuples/burst %lld)\n",
                Num(replay_cpu).c_str(), replay_cpu_per_tuple_.size(),
                static_cast<long long>(replay_counts_.expected));
    std::printf("e2e capture_bytes_per_sample %s B\n", Num(capture_bytes_per_sample).c_str());
  }
  std::printf("server tuples %s dropped_late %s tuples_echoed %s echo_dropped %s "
              "stage_evals %s samples_captured %s\n",
              Num(snapshot_["tuples"]).c_str(), Num(snapshot_["dropped_late"]).c_str(),
              Num(snapshot_["tuples_echoed"]).c_str(), Num(snapshot_["echo_dropped"]).c_str(),
              Num(snapshot_["stage_evals"]).c_str(),
              Num(server_stats_["samples_captured"]).c_str());
  for (const auto& v : viewers) {
    std::vector<double> l = v->live->lags(0);
    double p50 = l.empty() ? 0.0 : Percentile(l, 50.0);
    double p99 = l.empty() ? 0.0 : Percentile(l, 99.0);
    std::printf("viewer %s %s stray %lld lag_p50_ms %s lag_p99_ms %s\n", v->spec->label.c_str(),
                FormatCounts(v->live->total()).c_str(), static_cast<long long>(v->stray),
                Num(p50).c_str(), Num(p99).c_str());
  }
  if (!replay_cpu_per_tuple_.empty()) {
    std::printf("replay %s count_mismatch %lld\n", FormatCounts(replay_counts_).c_str(),
                static_cast<long long>(replay_count_mismatch_));
  }
  std::printf("gen late_p99_ms %s late_max_ms %s send_failed %lld\n", Num(gen_late_p99).c_str(),
              Num(gen_late_max).c_str(), static_cast<long long>(send_failed_));

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!args_.trace) {
    metrics = {
        {"setup_s", {setup_median, "s"}},
        {"lag_p50_ms", {main.lag_p50, "ms"}},
        {"lag_p99_ms", {main.lag_p99, "ms"}},
        {"delivered_frac", {main.delivered_frac, "frac"}},
        {"server_cpu_ns_per_tuple", {main.cpu_ns_per_tuple, "ns"}},
    };
  } else {
    std::map<std::string, double> layer;
    std::string err;
    if (!RunLayerIsolation(spec_, sched_, args_.out_dir, &spans_, &layer, &err)) {
      std::printf("isolation check failed: %s\n", err.c_str());
      correct = false;
    }
    spans_.Write(args_.out_dir + "/spans.parent.jsonl", "parent");
    std::printf("trace spans parent %zu (dropped %lld) server %s\n", spans_.size(),
                static_cast<long long>(spans_.dropped()), Num(snapshot_["server_spans"]).c_str());
    std::vector<double> send_ns = send_ns_;
    const double busy_ms = snapshot_["loop_busy_ns"] / 1e6;
    const double blocked_ms = snapshot_["loop_blocked_ns"] / 1e6;
    auto& ss = server_stats_;
    metrics = {
        {"host.nproc", {static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)), "count"}},
        {"runtime.timers.fired", {snapshot_["timers_fired"], "count"}},
        {"runtime.timers.lost", {snapshot_["timers_lost"], "count"}},
        {"runtime.timers.latency_mean_us", {snapshot_["timers_latency_mean_ns"] / 1e3, "us"}},
        {"runtime.timers.latency_max_us", {snapshot_["timers_latency_max_ns"] / 1e3, "us"}},
        {"runtime.event_loop.iterations", {snapshot_["loop_iterations"], "count"}},
        {"runtime.event_loop.busy_cpu_ms", {busy_ms, "ms"}},
        {"runtime.event_loop.blocked_ms", {blocked_ms, "ms"}},
        {"core.tuple.parse_ns", {layer["core.tuple.parse_ns"], "ns"}},
        {"core.ingest_router.append_ns", {layer["core.ingest_router.append_ns"], "ns"}},
        {"core.ingest_router.append_route_ns",
         {layer["core.ingest_router.append_route_ns"], "ns"}},
        {"core.ingest_router.flush_ns", {layer["core.ingest_router.flush_ns"], "ns"}},
        {"core.ingest_router.route_count", {snapshot_["route_count"], "count"}},
        {"core.ingest_router.excluded_route_slots", {snapshot_["excluded_route_slots"], "count"}},
        {"core.ingest_router.fanout_workers", {snapshot_["fanout_workers"], "count"}},
        {"core.scope.drain_ns_per_sample", {layer["core.scope.drain_ns_per_sample"], "ns"}},
        {"core.scope.lost_ticks", {snapshot_["display_lost_ticks"], "count"}},
        {"core.scope.samples_retained", {snapshot_["display_samples_retained"], "count"}},
        {"net.frame_codec.decode_ns_per_tuple",
         {layer["net.frame_codec.decode_ns_per_tuple"], "ns"}},
        {"net.frame_codec.encode_ns_per_tuple",
         {layer["net.frame_codec.encode_ns_per_tuple"], "ns"}},
        {"freq.spectrum_us_per_block", {layer["freq.spectrum_us_per_block"], "us"}},
        {"net.stream_server.stage_share_ratio", {stage_share, "ratio"}},
        {"net.stream_server.dropped_late", {snapshot_["dropped_late"], "count"}},
        {"net.stream_server.echo_dropped", {snapshot_["echo_dropped"], "count"}},
        {"net.stream_server.echo_evicted", {snapshot_["echo_evicted"], "count"}},
        {"net.stream_server.frames_crc_errors", {snapshot_["frames_crc_errors"], "count"}},
        {"record.extent_log.append_ns", {layer["record.extent_log.append_ns"], "ns"}},
        {"record.extent_log.seal_us", {layer["record.extent_log.seal_us"], "us"}},
        {"record.extent_log.extents_sealed", {ss["extents_sealed"], "count"}},
        {"record.extent_log.extents_dropped", {ss["extents_dropped"], "count"}},
        {"record.extent_log.capture_degraded", {ss["capture_degraded"], "count"}},
        {"record.extent_reader.read_ns_per_record",
         {layer["record.extent_reader.read_ns_per_record"], "ns"}},
        {"record.capture_bytes_per_sample", {capture_bytes_per_sample, "B"}},
        {"record.replay_cpu_ns_per_tuple", {replay_cpu, "ns"}},
        {"net.client.viewer_parse_errors", {static_cast<double>(viewer_parse_errors), "count"}},
        {"net.client.frames_dropped", {static_cast<double>(frames_dropped), "count"}},
        {"net.client.backlog_high_water_bytes", {static_cast<double>(backlog_hw), "B"}},
        {"net.client.send_ns_p50", {send_ns.empty() ? 0.0 : Percentile(send_ns, 50.0), "ns"}},
        {"net.client.egress_bytes_per_tuple",
         {viewer_tuples == 0 ? 0.0
                             : static_cast<double>(viewer_bytes) /
                                   static_cast<double>(viewer_tuples),
          "B"}},
        {"gen.late_p99_ms", {gen_late_p99, "ms"}},
        {"gen.late_max_ms", {gen_late_max, "ms"}},
        {"gen.offered_tps",
         {static_cast<double>(offered_) / args_.seconds, "1/s"}},
        {"lag.samples", {static_cast<double>(main.lag_samples + traced.lag_samples), "count"}},
        {"lag.p99_all_ms", {main.lag_p99_all, "ms"}},
        {"lag.max_ms", {main.lag_max, "ms"}},
        {"trace.spans", {static_cast<double>(spans_.size()) + snapshot_["server_spans"], "count"}},
        {"trace.overhead.lag_p50_ms", {traced.lag_p50 - main.lag_p50, "ms"}},
        {"trace.overhead.lag_p99_ms", {traced.lag_p99 - main.lag_p99, "ms"}},
        {"trace.overhead.server_cpu_ns_per_tuple",
         {traced.cpu_ns_per_tuple - main.cpu_ns_per_tuple, "ns"}},
        {"trace.overhead.delivered_frac", {traced.delivered_frac - main.delivered_frac, "frac"}},
    };
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(offered_ + verbs_);
  json += ", \"failed\": " + std::to_string(send_failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + Num(v) + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n");
    return 2;
  }
  servebench::WorkloadSpec spec;
  if (!servebench::MakeWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The generator/receiver shares the host with the server's threads (main
  // loop, fan-out workers, recorder).  At raised priority its sends and
  // arrival clock reads are not queued behind them; the host resets itself
  // to normal priority after fork.  Without the privilege, run as is.
  if (setpriority(PRIO_PROCESS, 0, servebench::kGeneratorNice) != 0) {
    std::fprintf(stderr, "servebench: note: cannot raise generator priority\n");
  }
  signal(SIGPIPE, SIG_IGN);
  signal(SIGALRM, servebench::OnWatchdog);
  alarm(servebench::kWatchdogSeconds);
  servebench::Bench bench(std::move(args), std::move(spec));
  return bench.Run();
}
