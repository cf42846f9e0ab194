#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kSession: return "session";
    case SpanName::kOpen: return "open";
    case SpanName::kTick: return "tick";
    case SpanName::kRecompute: return "recompute";
    case SpanName::kInstall: return "install";
    case SpanName::kFinish: return "finish";
    case SpanName::kGnn: return "index.gnn";
    case SpanName::kMsr: return "mpn.msr";
    case SpanName::kRegionCodec: return "mpn.codec";
    case SpanName::kStateEncode: return "engine.encode";
    case SpanName::kStateDecode: return "engine.decode";
    case SpanName::kCount: break;
  }
  return "?";
}

bool IsPhase(SpanName name) {
  switch (name) {
    case SpanName::kOpen:
    case SpanName::kTick:
    case SpanName::kRecompute:
    case SpanName::kInstall:
    case SpanName::kFinish:
      return true;
    default:
      return false;
  }
}

uint32_t Tracer::Open(SpanName name, uint32_t parent, uint32_t session) {
  if (!enabled_) return 0;
  Span s;
  s.parent = parent;
  s.session = session;
  s.name = name;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::Close(uint32_t id, uint32_t count) {
  if (id == 0) return;
  Span& s = spans_[id - 1];
  s.end_ns = NowNs();
  s.count = count;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children's intervals, clipped to the parent, grouped per parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& child : spans) {
    if (child.parent == 0 || child.parent > spans.size()) continue;
    const Span& parent = spans[child.parent - 1];
    const int64_t lo = std::max(child.start_ns, parent.start_ns);
    const int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (lo < hi) covered[child.parent - 1].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - union_ns;
  }
  return self;
}

int64_t PhaseSumNs(const std::vector<Span>& spans) {
  int64_t sum = 0;
  for (const Span& s : spans) {
    if (IsPhase(s.name)) sum += s.duration_ns();
  }
  return sum;
}

bool WithinShare(int64_t sum_ns, int64_t wall_ns, double tolerance) {
  const double diff = static_cast<double>(sum_ns > wall_ns ? sum_ns - wall_ns
                                                           : wall_ns - sum_ns);
  return diff <= tolerance * static_cast<double>(wall_ns);
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_events, const std::string& metadata) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"metadata\":{%s},"
                  "\"traceEvents\":[", metadata.c_str());
  const size_t n = std::min(max_events, spans.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u,\"count\":%u}}",
                 i == 0 ? "" : ",", SpanNameString(s.name), s.session,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, i + 1, s.parent,
                 s.count);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
