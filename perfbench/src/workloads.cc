#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "index/gnn.h"
#include "traj/generators.h"
#include "traj/road_network.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

using mpn::Method;
using mpn::Objective;

namespace {

const mpn::Rect kWorld({0.0, 0.0}, {100000.0, 100000.0});
/// POIs per input set: the size of the pocketgpsworld UK set the paper uses.
constexpr size_t kPois = 21287;

/// Independent generator streams per input set and kind, from the seed.
uint64_t StreamSeed(uint64_t seed, uint64_t set, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + set * 0xBF58476D1CE4E5B9ULL +
         stream * 0xD1B54A32D192ED03ULL + 1;
}

double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Folds one session's result into `r`.
void AddSession(const mpn::SimMetrics& metrics, RepResult* r) {
  r->session_timestamps += metrics.timestamps;
  r->updates += metrics.updates;
  r->packets += metrics.comm.TotalPackets();
  r->server_seconds += metrics.server_seconds;
}

mpn::EngineOptions MakeEngineOptions(const WorkloadSpec& spec,
                                     size_t threads,
                                     const std::string& spill_dir) {
  mpn::EngineOptions eo;
  eo.threads = threads;
  eo.sim = MakeSimOptions(spec);
  eo.budget.bytes_cap = spec.budget_bytes;
  eo.budget.spill_dir = spill_dir;
  return eo;
}

/// Reads every session's result from an in-process engine after its drain.
/// A group is due at its scheduled admission (open loop) or at Start.
void CollectEngine(const mpn::Engine& engine, const Inputs& in,
                   RepResult* r, std::vector<bool>* finished) {
  r->mem = engine.memory_stats();
  for (uint32_t id = 0; id < in.groups.size(); ++id) {
    engine.WithSessionResult(id, [&](const mpn::SessionFinalResult& fr) {
      AddSession(fr.metrics, r);
      r->stalls += fr.stall_count;
      const double due = in.due_s.empty() ? 0.0 : in.due_s[id];
      r->notify_s.push_back(DueLatency(due, fr.advance_seconds[1]));
      r->final_po.push_back(fr.po);
      finished->push_back(fr.has_result &&
                          fr.metrics.timestamps == Horizon(in.groups[id]));
    });
  }
}

/// The brute-force oracle: the minimum of AggDist over every POI (what
/// FindGnnBruteForce ranks, without its full sort).
bool MeetingPointOptimal(const std::vector<mpn::Point>& pois, uint32_t po,
                         const std::vector<mpn::Point>& locations,
                         Objective objective) {
  if (po >= pois.size()) return false;
  double best = mpn::AggDist(pois.front(), locations, objective);
  for (const mpn::Point& p : pois) {
    best = std::min(best, mpn::AggDist(p, locations, objective));
  }
  const double reported = mpn::AggDist(pois[po], locations, objective);
  return reported <= best + 1e-7 * (1.0 + best);
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "tiled-geolife") {
    // The paper's default configuration; mpn does nearly all the work. At 3
    // threads it completes as much as at 4 on a 4-core machine and its
    // run-to-run spread is smaller; so is it with 64 groups per set than 32.
    s.sets = 8;
    s.groups = 64;
    s.timestamps = 1200;
    s.threads = 3;
  } else if (name == "swarm-spill") {
    // Many tiny Circle sessions under a cap far below resident demand:
    // the engine (scheduler, spill, codec) dominates, mpn does little.
    s.sets = 5;
    s.method = Method::kCircle;
    s.m = 2;
    s.groups = 4096;
    s.timestamps = 300;
    s.budget_bytes = 1u << 20;
  } else if (name == "sum-roads-cluster") {
    // Road movement under SUM with buffered candidates, on forked workers.
    s.sets = 26;
    s.movement = Movement::kRoads;
    s.method = Method::kTileDBuffered;
    s.objective = Objective::kSum;
    s.groups = 64;
    s.timestamps = 1200;
    s.threads = 2;
    s.workers = 2;
  } else if (name == "arrivals") {
    // Open loop: short Tile-D groups admitted into a running engine on a
    // seeded random schedule at roughly a third of measured capacity.
    s.sets = 8;
    s.open_loop = true;
    s.timestamps = 100;
    s.rate = 40.0;
    s.window_s = 2.5;
    s.threads = 0;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

size_t EngineThreads(const WorkloadSpec& spec) {
  if (spec.threads != 0) return spec.threads;
  const size_t hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t set) {
  Inputs in;
  mpn::Timer gen;
  {
    mpn::Rng rng(StreamSeed(seed, set, 1));
    mpn::PoiOptions opt;
    opt.world = kWorld;
    opt.clusters = 30;
    opt.cluster_sigma_frac = 0.045;
    opt.background_frac = 0.45;
    in.pois = mpn::GeneratePois(kPois, opt, &rng);
  }
  size_t groups = spec.groups;
  if (spec.open_loop) {
    // A Poisson process conditioned on its count: a fixed number of groups
    // at sorted uniform times, so every seed offers the same load.
    mpn::Rng rng(StreamSeed(seed, set, 3));
    groups = static_cast<size_t>(std::lround(spec.rate * spec.window_s));
    for (size_t i = 0; i < groups; ++i) {
      in.due_s.push_back(rng.Uniform(0.0, spec.window_s));
    }
    std::sort(in.due_s.begin(), in.due_s.end());
  }
  mpn::Rng rng(StreamSeed(seed, set, 2));
  const size_t count = groups * spec.m;
  // Group members start co-located (2 km spread), as in the paper's
  // per-city trajectory sets.
  if (spec.movement == Movement::kWalk) {
    mpn::RandomWalkGenerator::Options opt;
    opt.world = kWorld;
    opt.mean_speed = 1.5;
    opt.speed_jitter = 0.25;
    opt.heading_sigma = 0.06;
    opt.dwell_prob = 0.003;
    in.trajectories = mpn::RandomWalkGenerator(opt).GenerateGroupedFleet(
        count, spec.m, 2000.0, spec.timestamps, &rng);
  } else {
    const mpn::RoadNetwork network = mpn::RoadNetwork::RandomGrid(
        kWorld, 24, 24, 0.25, 0.12, 0.18, &rng);
    mpn::BrinkhoffGenerator::Options opt;
    opt.min_speed = 1.0;
    opt.max_speed = 3.0;
    in.trajectories = mpn::BrinkhoffGenerator(&network, opt)
                          .GenerateGroupedFleet(count, spec.m, 2000.0,
                                                spec.timestamps, &rng);
  }
  in.groups = mpn::MakeGroups(in.trajectories, spec.m, spec.m);
  in.generate_s = gen.ElapsedSeconds();
  mpn::Timer build;
  in.index = mpn::PoiIndex::Build(in.pois, mpn::IndexKind::kPackedStr);
  in.index_s = build.ElapsedSeconds();
  return in;
}

mpn::SimOptions MakeSimOptions(const WorkloadSpec& spec) {
  mpn::SimOptions sim;
  sim.server.method = spec.method;
  sim.server.objective = spec.objective;
  sim.server.alpha = 30;
  sim.server.split_level = 2;
  sim.server.buffer_b = 100;
  return sim;
}

mpn::SessionTuning MakeTuning() {
  mpn::SessionTuning tuning;
  tuning.mailbox_capacity = 0;
  return tuning;
}

size_t Horizon(const std::vector<const mpn::Trajectory*>& group) {
  size_t horizon = group.front()->size();
  for (const mpn::Trajectory* t : group) horizon = std::min(horizon, t->size());
  return horizon;
}

std::vector<bool> CheckSessions(const Inputs& in, Objective objective,
                                const std::vector<uint32_t>& po,
                                const std::vector<bool>& finished,
                                const RepResult* reference) {
  const size_t n = in.groups.size();
  std::vector<bool> ok(n, false);
  if (reference != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      ok[i] = finished[i] && po[i] == reference->final_po[i];
    }
    return ok;
  }
  // Brute force is O(N m) per session; spread it over a few threads.
  std::vector<char> verdict(n, 0);
  const size_t workers = std::min<size_t>(
      n, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (size_t i = w; i < n; i += workers) {
        const auto& group = in.groups[i];
        std::vector<mpn::Point> final_locations;
        for (const mpn::Trajectory* t : group) {
          final_locations.push_back(t->at(Horizon(group) - 1));
        }
        verdict[i] = finished[i] && MeetingPointOptimal(in.pois, po[i],
                                                        final_locations,
                                                        objective);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (size_t i = 0; i < n; ++i) ok[i] = verdict[i] != 0;
  return ok;
}

RepResult RunRepetition(const WorkloadSpec& spec, uint64_t seed, size_t set,
                        const RepResult* reference,
                        const std::string& spill_dir) {
  RepResult r;
  r.set = set;
  const mpn::SessionTuning tuning = MakeTuning();
  mpn::Timer setup;
  const Inputs in = MakeInputs(spec, seed, set);
  r.generate_s = in.generate_s;
  r.index_s = in.index_s;
  std::vector<bool> finished;
  bool rep_ok = true;

  if (spec.workers > 0) {
    mpn::ClusterOptions co;
    co.workers = spec.workers;
    co.engine = MakeEngineOptions(spec, spec.threads, spill_dir);
    mpn::ClusterEngine cluster(&in.pois, in.index.view(), co);
    cluster.Start();  // forks the workers
    r.setup_s = setup.ElapsedSeconds();
    const double cpu0 = CpuSeconds(RUSAGE_SELF);
    const double child0 = CpuSeconds(RUSAGE_CHILDREN);
    mpn::Timer run;
    for (const auto& group : in.groups) cluster.AdmitSession(group, tuning);
    cluster.Wait();
    r.run_s = run.ElapsedSeconds();
    const double cpu1 = CpuSeconds(RUSAGE_SELF);
    cluster.Shutdown();  // reaps the workers, so their CPU time is counted
    r.cpu_s = (cpu1 - cpu0) + (CpuSeconds(RUSAGE_CHILDREN) - child0);
    r.digest = cluster.ResultDigest();
    r.recovery = cluster.recovery_stats();
    r.mem = cluster.memory_stats();
    rep_ok = r.recovery.restarts == 0 && r.recovery.checksum_failures == 0 &&
             r.recovery.shards_lost == 0;
    for (uint32_t id = 0; id < in.groups.size(); ++id) {
      const mpn::SimMetrics& metrics = cluster.session_metrics(id);
      AddSession(metrics, &r);
      r.stalls += cluster.session_stall_count(id);
      r.final_po.push_back(cluster.session_po(id));
      finished.push_back(cluster.session_has_result(id) &&
                         metrics.timestamps == Horizon(in.groups[id]));
    }

    // The cluster API exposes no per-session install time, so the notify
    // latencies of this workload come from an in-process engine with the
    // same groups and the same total thread count. Its digest must equal
    // the cluster's.
    mpn::Engine engine(&in.pois, in.index.view(),
                       MakeEngineOptions(spec, spec.workers * spec.threads,
                                         spill_dir));
    mpn::Timer inproc;
    for (const auto& group : in.groups) engine.AdmitSession(group, tuning);
    engine.Run();
    r.inproc_run_s = inproc.ElapsedSeconds();
    rep_ok = rep_ok && engine.ResultDigest() == r.digest;
    for (uint32_t id = 0; id < in.groups.size(); ++id) {
      engine.WithSessionResult(id, [&](const mpn::SessionFinalResult& fr) {
        r.notify_s.push_back(fr.advance_seconds[1]);
      });
    }
  } else {
    mpn::Engine engine(&in.pois, in.index.view(),
                       MakeEngineOptions(spec, EngineThreads(spec), spill_dir));
    r.setup_s = setup.ElapsedSeconds();
    const double cpu0 = CpuSeconds(RUSAGE_SELF);
    mpn::Timer run;
    if (spec.open_loop) {
      // Admissions run on this thread against a schedule fixed in advance;
      // the hold keeps the drain open until the last one is in.
      mpn::Engine::Hold hold = engine.AcquireHold();
      using Clock = std::chrono::steady_clock;
      const Clock::time_point t0 = Clock::now();
      engine.Start();  // the engine clock starts here, within ~1 us of t0
      for (size_t i = 0; i < in.groups.size(); ++i) {
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(in.due_s[i]));
        std::this_thread::sleep_until(due);
        r.gen_lag_s.push_back(
            std::chrono::duration<double>(Clock::now() - due).count());
        engine.AdmitSession(in.groups[i], tuning);
      }
      hold.Reset();
      engine.Shutdown();
    } else {
      for (const auto& group : in.groups) engine.AdmitSession(group, tuning);
      engine.Run();
    }
    r.run_s = run.ElapsedSeconds();
    r.cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
    r.digest = engine.ResultDigest();
    CollectEngine(engine, in, &r, &finished);
    r.backlog_growing = spec.open_loop && BacklogGrowing(r.notify_s);
  }

  rep_ok = rep_ok && (reference == nullptr || r.digest == reference->digest);
  for (const bool ok :
       CheckSessions(in, spec.objective, r.final_po, finished, reference)) {
    r.sessions.Record(rep_ok && ok);
  }
  return r;
}

}  // namespace perfbench
