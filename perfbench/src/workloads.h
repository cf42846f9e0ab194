// The four benchmark workloads: their shapes, seeded input generation, and
// one repetition of each through the public Engine / ClusterEngine API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "engine/engine.h"
#include "index/spatial_index.h"
#include "sim/simulator.h"
#include "stats.h"
#include "traj/trajectory.h"

namespace perfbench {

enum class Movement { kWalk, kRoads };

/// A workload's fixed shape. Only the seed varies between runs. A run covers
/// `sets` independent input sets (each with its own POIs, trajectories and
/// schedule) so that its figures average over many groups and POI layouts.
struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  Movement movement = Movement::kWalk;
  mpn::Method method = mpn::Method::kTileD;
  mpn::Objective objective = mpn::Objective::kMax;
  size_t sets = 1;          ///< input sets per run
  size_t m = 3;             ///< users per group
  size_t groups = 0;        ///< closed workloads: groups per input set
  size_t timestamps = 0;    ///< horizon of every group
  size_t threads = 4;       ///< engine threads (per worker on the cluster)
  size_t workers = 0;       ///< cluster worker processes; 0 = in-process
  size_t budget_bytes = 0;  ///< EngineOptions::budget cap; 0 = none
  double rate = 0.0;        ///< open loop: offered load, groups/s
  double window_s = 0.0;    ///< open loop: admission window per repetition
};

/// Looks up a workload by name; returns false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// Engine threads the spec asks for on this machine (arrivals runs at
/// nproc - 1 so the admitting thread keeps a core of its own).
size_t EngineThreads(const WorkloadSpec& spec);

/// One input set, generated from the seed and the set's index. The program
/// under test sees only these inputs.
struct Inputs {
  std::vector<mpn::Point> pois;
  mpn::PoiIndex index;
  std::vector<mpn::Trajectory> trajectories;
  std::vector<std::vector<const mpn::Trajectory*>> groups;
  std::vector<double> due_s;  ///< open loop: admission due time per group
  double generate_s = 0.0;    ///< POI, trajectory and schedule generation
  double index_s = 0.0;       ///< PoiIndex::Build(kPackedStr)
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t set);

mpn::SimOptions MakeSimOptions(const WorkloadSpec& spec);

/// Session tuning of every admission: a zero-capacity mailbox, so a
/// session's advance 1 cannot complete before its first install and
/// advance_seconds[1] marks that install.
mpn::SessionTuning MakeTuning();

/// Result of one repetition (set-up + run) of one input set.
struct RepResult {
  size_t set = 0;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double index_s = 0.0;
  double run_s = 0.0;          ///< admissions through the final drain
  double cpu_s = 0.0;          ///< process + reaped worker CPU in the run
  uint64_t digest = 0;
  size_t session_timestamps = 0;
  size_t updates = 0;
  size_t packets = 0;
  double server_seconds = 0.0;
  size_t stalls = 0;
  std::vector<double> notify_s;   ///< per group, in due order
  std::vector<double> gen_lag_s;  ///< open loop: admit call minus due time
  bool backlog_growing = false;
  mpn::MemoryStats mem;
  mpn::ClusterEngine::RecoveryStats recovery;
  double inproc_run_s = 0.0;  ///< cluster workload: in-process engine run
  std::vector<uint32_t> final_po;  ///< per session
  FailureCount sessions;           ///< per-session correctness
};

/// One repetition of input set `set`. Without a `reference`, every
/// session's final meeting point is checked by brute force. With one (the
/// first repetition of the same set, already checked), a session passes
/// when its meeting point equals the reference's, and the whole repetition
/// fails when the digest differs. `spill_dir` holds the budgeted engine's
/// spill file.
RepResult RunRepetition(const WorkloadSpec& spec, uint64_t seed, size_t set,
                        const RepResult* reference,
                        const std::string& spill_dir);

/// Timestamps a group runs: its shortest trajectory.
size_t Horizon(const std::vector<const mpn::Trajectory*>& group);

/// Per-session verdicts. Session i passes when finished[i] (it has a result
/// and ran its whole horizon) and its final meeting point po[i] is optimal
/// for its final locations: checked by brute force (AggDist over every POI,
/// with GroupSession::CheckInvariantAt's tolerance) when `reference` is
/// null, else by equality with the reference's points.
std::vector<bool> CheckSessions(const Inputs& in, mpn::Objective objective,
                                const std::vector<uint32_t>& po,
                                const std::vector<bool>& finished,
                                const RepResult* reference);

}  // namespace perfbench
