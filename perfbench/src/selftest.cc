// Self-tests of the benchmark's own arithmetic (stats.h, trace.h). run.py
// runs this after every build and refuses to measure if it fails; it also
// runs standalone: perfbench_selftest (exit code 0 = all passed).
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantiles() {
  Check(Near(Median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
  Check(Near(Median({4.0, 1.0, 2.0, 3.0}), 2.5), "median interpolates");
  Check(Near(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0), "quartile");
  Check(Near(Quantile({7.0}, 0.95), 7.0), "single sample");
  Check(Near(Quantile({}, 0.5), 0.0), "empty is zero");
}

void TestPercentileRule() {
  // Highest percentile with at least ten samples beyond it.
  Check(HighestReportablePercentile(9) == 0.0, "9 samples: nothing");
  Check(HighestReportablePercentile(20) == 50.0, "20 samples: p50");
  Check(HighestReportablePercentile(100) == 90.0, "100 samples: p90");
  Check(HighestReportablePercentile(199) == 90.0, "199 samples: p90");
  Check(HighestReportablePercentile(200) == 95.0, "200 samples: p95");
  Check(HighestReportablePercentile(999) == 95.0, "999 samples: p95");
  Check(HighestReportablePercentile(1000) == 99.0, "1000 samples: p99");
  Check(HighestReportablePercentile(10000) == 99.9, "10000 samples: p99.9");
  Check(Reportable(200, 95.0) && !Reportable(199, 95.0), "p95 boundary");
}

void TestDueLatency() {
  // Requests due every 10 ms; the generator stalls 50 ms before the third,
  // so it and the next are admitted late. Latency counts from the due time:
  // the stall shows up in both, not only in the admit-to-done part.
  const double due[] = {0.00, 0.01, 0.02, 0.03};
  const double admitted[] = {0.00, 0.01, 0.07, 0.07};
  const double done[] = {0.005, 0.015, 0.075, 0.080};
  Check(Near(DueLatency(due[0], done[0]), 0.005), "on-time request");
  Check(Near(DueLatency(due[2], done[2]), 0.055), "stalled request");
  Check(Near(DueLatency(due[3], done[3]), 0.050), "request behind stall");
  Check(DueLatency(due[2], done[2]) > done[2] - admitted[2],
        "due-time latency exceeds admit-time latency after a stall");

  std::vector<double> steady(40, 0.015);
  Check(!BacklogGrowing(steady), "flat latency is no backlog");
  std::vector<double> growing;
  for (int i = 0; i < 40; ++i) growing.push_back(0.015 + 0.005 * i);
  Check(BacklogGrowing(growing), "linearly growing latency is a backlog");
  std::vector<double> noisy = steady;
  noisy.back() = 1.0;  // one outlier does not move the last quarter's median
  Check(!BacklogGrowing(noisy), "single outlier is no backlog");
  std::vector<double> drifting(20, 0.015);
  drifting.insert(drifting.end(), 20, 0.020);  // slower, but not piling up
  Check(!BacklogGrowing(drifting), "moderately slower end is no backlog");
  Check(!BacklogGrowing({0.01, 0.5, 0.9}), "too few requests");
}

Span MakeSpan(uint32_t parent, SpanName name, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  // session [0,100] with phases [0,10], [10,60], [70,100]; the recompute
  // [10,60] caused a replay span [55,75] that reaches past its end, and
  // two overlapping children [20,40] and [30,50] inside it.
  const std::vector<Span> spans = {
      MakeSpan(0, SpanName::kSession, 0, 100),    // id 1
      MakeSpan(1, SpanName::kTick, 0, 10),        // id 2
      MakeSpan(1, SpanName::kRecompute, 10, 60),  // id 3
      MakeSpan(1, SpanName::kInstall, 70, 100),   // id 4
      MakeSpan(3, SpanName::kMsr, 55, 75),        // id 5
      MakeSpan(3, SpanName::kGnn, 20, 40),        // id 6
      MakeSpan(3, SpanName::kGnn, 30, 50),        // id 7
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  Check(self[0] == 10, "session self time = gap not covered by phases");
  Check(self[1] == 10, "leaf self time = duration");
  // Children cover [20,50] (union, 30) and [55,60] (clipped, 5).
  Check(self[2] == 15, "overlapping and out-of-interval children");
  Check(self[4] == 20, "replay leaf");
  // A child that starts before its parent only counts from the parent's
  // start.
  const std::vector<Span> early = {MakeSpan(0, SpanName::kRecompute, 10, 20),
                                   MakeSpan(1, SpanName::kMsr, 5, 15)};
  Check(SelfTimes(early)[0] == 5, "child starting before its parent");

  Check(PhaseSumNs(spans) == 90, "phase sum counts phases only");
  Check(WithinShare(PhaseSumNs(spans), 100, 0.10), "90 of 100 within 10%");
  Check(!WithinShare(PhaseSumNs(spans), 100, 0.05),
        "90 of 100 not within 5%");
  Check(WithinShare(96, 100, 0.05) && WithinShare(104, 100, 0.05),
        "both sides of the 5% band");
  Check(!WithinShare(106, 100, 0.05), "over-coverage also fails");
}

void TestFailureCount() {
  FailureCount c;
  Check(c.Ratio() == 0.0, "no sessions: ratio 0");
  for (int i = 0; i < 7; ++i) c.Record(true);
  c.Record(false);
  Check(c.attempted == 8 && c.failed == 1, "counts");
  Check(Near(c.Ratio(), 0.125), "1 of 8 failed");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantiles();
  perfbench::TestPercentileRule();
  perfbench::TestDueLatency();
  perfbench::TestSelfTime();
  perfbench::TestFailureCount();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d self-test(s) failed\n", perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench self-tests passed\n");
  return 0;
}
