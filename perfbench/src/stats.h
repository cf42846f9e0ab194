// The benchmark's own arithmetic: quantiles, the percentile reporting rule,
// open-loop due-time latency, the backlog test and failure counting.
// perfbench_selftest checks every function here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// A percentile is reportable from `n` samples when at least `min_beyond`
/// samples lie beyond it: p95 needs 200 samples, p99 needs 1,000.
inline bool Reportable(size_t n, double percentile, size_t min_beyond = 10) {
  const double beyond = static_cast<double>(n) * (100.0 - percentile) / 100.0;
  return beyond + 1e-9 >= static_cast<double>(min_beyond);
}

/// The highest of the conventional percentiles (50, 90, 95, 99, 99.9) that
/// `n` samples can report under Reportable(); 0 when not even the median is.
inline double HighestReportablePercentile(size_t n, size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (Reportable(n, p, min_beyond)) best = p;
  }
  return best;
}

/// Open-loop latency of one request: measured from when it was *due*, so a
/// generator that fell behind charges its own stall to every later request
/// instead of hiding it. Both stamps are seconds on the same clock.
inline double DueLatency(double due_s, double done_s) { return done_s - due_s; }

/// True when an open-loop run built up a backlog: the median latency of the
/// last quarter of requests (in due order) is more than twice the first
/// quarter's plus `slack_s`. Runs with fewer than 8 requests never qualify.
inline bool BacklogGrowing(const std::vector<double>& latency_in_due_order,
                           double slack_s = 0.010) {
  const size_t n = latency_in_due_order.size();
  if (n < 8) return false;
  const size_t quarter = n / 4;
  const std::vector<double> first(latency_in_due_order.begin(),
                                  latency_in_due_order.begin() + quarter);
  const std::vector<double> last(latency_in_due_order.end() - quarter,
                                 latency_in_due_order.end());
  return Median(last) > 2.0 * Median(first) + slack_s;
}

/// Sessions attempted and failed across a run (the failed_ratio metric).
struct FailureCount {
  size_t attempted = 0;
  size_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double Ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
