// In-memory span recorder for the traced run, and the arithmetic over its
// spans (self time, the phase-coverage check, Chrome trace export).
//
// Spans are recorded by the benchmark's own code around its calls into
// the library; nothing inside src/ is instrumented. A span carries a name,
// start and end on one steady clock, the id of the span that caused it and
// the id of the session it belongs to, plus a count of the work units it
// covers (e.g. how many ticks a "tick" span batched).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kSession,      ///< one GroupSession from construction to Finish
  kOpen,         ///< GroupSession construction
  kTick,         ///< a run of AdvanceAndCheck calls, up to a violation
  kRecompute,    ///< GroupSession::Recompute
  kInstall,      ///< GroupSession::InstallResult
  kFinish,       ///< GroupSession::Finish
  kGnn,          ///< replayed FindGnn on a recompute's snapshot
  kMsr,          ///< replayed ComputeTileMsr / ComputeCircleMsr
  kRegionCodec,  ///< replayed EncodeTileRegion + DecodeTileRegion
  kStateEncode,  ///< replayed ExportState + EncodeLiveSession
  kStateDecode,  ///< replayed DecodeLiveSession
  kCount
};

const char* SpanNameString(SpanName name);

/// True for the GroupSession phases (the spans whose sum must match the
/// phase loop's wall time); false for the session span and replay spans.
bool IsPhase(SpanName name);

struct Span {
  uint32_t parent = 0;  ///< causing span's id (ids are 1-based; 0 = none)
  uint32_t session = 0;
  SpanName name = SpanName::kSession;
  uint32_t count = 1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Records spans into memory. A disabled tracer reads no clock and stores
/// nothing, so the same loop measures the untraced wall time.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Starts a span now; returns its id (0 when disabled).
  uint32_t Open(SpanName name, uint32_t parent, uint32_t session);
  /// Ends span `id` now, covering `count` work units. No-op for id 0.
  void Close(uint32_t id, uint32_t count = 1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// Self time of every span (parallel to `spans`): its duration minus the
/// part of its interval covered by its children. Children are the spans
/// whose parent is the span's id; a child reaching outside the parent's
/// interval only counts inside it, and overlapping children count once.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Summed duration of the phase spans (IsPhase).
int64_t PhaseSumNs(const std::vector<Span>& spans);

/// The phase-coverage check: |sum - wall| <= tolerance * wall.
bool WithinShare(int64_t sum_ns, int64_t wall_ns, double tolerance);

/// Writes the first `max_events` spans as Chrome trace-event JSON (complete
/// "X" events; pid = 1, tid = session id), which Perfetto and
/// chrome://tracing open. `metadata` is a JSON object body added as the
/// top-level "metadata" key. Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_events, const std::string& metadata);

}  // namespace perfbench
