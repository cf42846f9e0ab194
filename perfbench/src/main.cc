// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Generates the named workload's input sets from the seed and runs one
// discarded warm-up repetition of set 0. Then it measures passes over all
// sets (set-up + run each), starting another pass only while at least half
// of one still fits in S seconds. Every session's result is checked. The
// last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones of a separate traced run (trace file
// written under DIR). A readable summary, with the spread of the
// per-repetition figures next to their medians, goes to stderr.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "stats.h"
#include "traced.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Samples needed for a reportable p95 (10 beyond it).
constexpr size_t kMinNotifySamples = 200;
/// No pass starts after this long, so a run ends well within its limit.
constexpr double kMaxMeasureSeconds = 100.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double PeakRssMb(bool with_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (with_children) {
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

/// Logs a metric's median next to its spread over `v`.
void LogSpread(const char* name, const std::vector<double>& v) {
  std::fprintf(stderr, "  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g "
                       "min %-12.6g max %-12.6g n %zu\n",
               name, Median(v), Quantile(v, 0.25), Quantile(v, 0.75),
               Quantile(v, 0.0), Quantile(v, 1.0), v.size());
}

/// Median over the repetitions of each input set, summed over the sets.
template <typename F>
double SumOfSetMedians(const std::vector<RepResult>& reps, size_t sets, F f) {
  double sum = 0.0;
  for (size_t set = 0; set < sets; ++set) {
    std::vector<double> v;
    for (const RepResult& r : reps) {
      if (r.set == set) v.push_back(f(r));
    }
    sum += Median(v);
  }
  return sum;
}

std::vector<Metric> EndToEnd(const WorkloadSpec& spec,
                             const std::vector<RepResult>& reps) {
  // Work and time are summed over the input sets, each set's time being
  // the median of its repetitions; latencies pool every group of every
  // repetition (each set runs equally often).
  std::vector<double> notify_ms, setup_s, rounds, server;
  for (const RepResult& r : reps) {
    for (const double s : r.notify_s) notify_ms.push_back(s * 1e3);
    setup_s.push_back(r.setup_s);
    rounds.push_back(static_cast<double>(r.session_timestamps) / r.run_s);
    server.push_back(r.server_seconds * 1e3 / static_cast<double>(r.updates));
  }
  const auto count = [&](auto f) {
    return SumOfSetMedians(reps, spec.sets,
                           [&](const RepResult& r) { return double(f(r)); });
  };
  const double ts =
      count([](const RepResult& r) { return r.session_timestamps; });
  const double updates = count([](const RepResult& r) { return r.updates; });
  const double packets = count([](const RepResult& r) { return r.packets; });
  const double run_s = count([](const RepResult& r) { return r.run_s; });
  const double server_s =
      count([](const RepResult& r) { return r.server_seconds; });
  LogSpread("setup_s", setup_s);
  LogSpread("rounds_per_s (per rep)", rounds);
  LogSpread("server_ms_per_update (per rep)", server);
  std::fprintf(stderr, "  notify samples %zu (highest reportable "
                       "percentile p%g)\n",
               notify_ms.size(), HighestReportablePercentile(notify_ms.size()));
  return {
      {"setup_s", "s", Median(setup_s)},
      {"rounds_per_s", "session-ts/s", ts / run_s},
      {"server_ms_per_update", "ms", server_s * 1e3 / updates},
      {"notify_p50_ms", "ms", Quantile(notify_ms, 0.50)},
      {"notify_p95_ms", "ms", Quantile(notify_ms, 0.95)},
      {"updates_per_ts", "updates/ts", updates / ts},
      {"packets_per_ts", "packets/ts", packets / ts},
      {"peak_rss_mb", "MB", PeakRssMb(spec.workers > 0)},
  };
}

int Main(const Args& args) {
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string spill_dir = args.out_dir + "/spill";
  ::mkdir(args.out_dir.c_str(), 0777);
  ::mkdir(spill_dir.c_str(), 0777);

  // Warm-up: a repetition of set 0 whose timings are discarded. Like the
  // first repetition of every set, its sessions are checked by brute force,
  // and its digest and meeting points are the reference that later
  // repetitions of the same set must reproduce.
  std::deque<RepResult> first;  // first repetition of each set
  first.push_back(RunRepetition(spec, args.seed, 0, nullptr, spill_dir));
  FailureCount sessions = first.front().sessions;
  std::vector<RepResult> reps;
  size_t notify_samples = 0;
  mpn::Timer measured;
  double pass_s = 0.0;
  while (reps.empty() ||
         (measured.ElapsedSeconds() < kMaxMeasureSeconds &&
          (notify_samples < kMinNotifySamples ||
           measured.ElapsedSeconds() + pass_s / 2 < args.seconds))) {
    mpn::Timer pass;
    for (size_t set = 0; set < spec.sets; ++set) {
      const RepResult* ref = set < first.size() ? &first[set] : nullptr;
      reps.push_back(RunRepetition(spec, args.seed, set, ref, spill_dir));
      if (ref == nullptr) first.push_back(reps.back());
      notify_samples += reps.back().notify_s.size();
    }
    pass_s = pass.ElapsedSeconds();
    std::fprintf(stderr, "pass %zu: %.3f s\n", reps.size() / spec.sets,
                 pass_s);
  }
  bool correct = true;
  for (const RepResult& r : reps) {
    sessions.attempted += r.sessions.attempted;
    sessions.failed += r.sessions.failed;
    if (r.backlog_growing) {
      std::fprintf(stderr, "invalid run: open-loop backlog grew\n");
      correct = false;
    }
  }
  std::fprintf(stderr, "%s seed %llu: %zu repetitions of %zu input sets "
                       "in %.2f s\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               reps.size(), spec.sets, measured.ElapsedSeconds());

  std::vector<Metric> metrics;
  if (args.trace) {
    const std::string trace_path = args.out_dir + "/trace-" + spec.name +
                                   "-" + std::to_string(args.seed) + ".json";
    TracedResult traced = RunTraced(spec, args.seed, reps, trace_path);
    correct = correct && traced.ok;
    sessions.attempted += traced.sessions.attempted;
    sessions.failed += traced.sessions.failed;
    metrics = std::move(traced.per_layer);
    metrics.push_back({"failed_ratio", "failed/attempted", sessions.Ratio()});
    std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
  } else {
    metrics = EndToEnd(spec, reps);
  }
  correct = correct && sessions.failed == 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(sessions.attempted);
  json += ", \"failed\": " + std::to_string(sessions.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    std::fprintf(stderr, "  %-36s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  // A hung run must still end within the benchmark's time limit; SIGALRM's
  // default action terminates the process, and cluster workers exit on the
  // resulting EOF.
  alarm(170);
  try {
    return perfbench::Main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
