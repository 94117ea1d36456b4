// Layer-isolation pass of a traced run.
//
// Feeds the run's exact generated inputs through each serving layer's public
// entry points, in-process and without sockets, and times the calls:
//   core      ParseTupleView; IngestRouter Append / AppendRoute / Flush with
//             the workload's live scope topology (display scope, one scope
//             per raw viewer with its SignalFilter and every-sample tap, one
//             per stage group, the recorder's unfiltered scope); TickOnce
//   net       WireEncoder (the producers' framing) and FrameDecoder::Consume
//   freq      ComputeSpectrum over each name's consecutive blocks
//   record    ExtentLog Append / SealNow, ExtentReader ReadWindow
// Scopes run on a SimClock that follows the schedule's stamps, so late-drop
// and drain behave as on the live server without real waiting.
#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <map>
#include <string>

#include "schedule.h"
#include "spans.h"

namespace servebench {

// Fills `metrics` with per-layer timings (names as in BENCHMARK.json).
// Returns false, with `err` set, when a layer returned something other than
// what was fed to it (a decode, parse or read-back count mismatch).
bool RunLayerIsolation(const WorkloadSpec& spec, const Schedule& s,
                       const std::string& scratch_dir, SpanLog* spans,
                       std::map<std::string, double>* metrics, std::string* err);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
