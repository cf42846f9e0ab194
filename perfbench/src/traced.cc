#include "traced.h"

#include <chrono>
#include <cstdio>
#include <string>

#include "engine/group_session.h"
#include "engine/session_codec.h"
#include "index/gnn.h"
#include "mpn/circle_msr.h"
#include "mpn/compress.h"
#include "mpn/tile_msr.h"
#include "net/message.h"
#include "trace.h"

namespace perfbench {

namespace {

/// The deterministic work counters of MsrStats, flattened so passes can be
/// summed and compared field by field.
enum Counter {
  kTilesTried,
  kTilesAdded,
  kVerifyCalls,
  kVerifyAccepted,
  kFocalEvals,
  kMemoHits,
  kRetrievals,
  kCandidates,
  kNodeAccesses,
  kDivideCalls,
  kTileGroups,
  kRejectedByBuffer,
  kCounterCount
};
using Counters = std::vector<uint64_t>;

void AddCounters(const mpn::MsrStats& s, Counters* into) {
  const uint64_t values[kCounterCount] = {
      s.tiles_tried,          s.tiles_added,
      s.verify.calls,         s.verify.accepted,
      s.verify.focal_evals,   s.verify.memo_hits,
      s.candidates.retrievals, s.candidates.candidates_total,
      s.rtree_node_accesses,  s.divide_calls,
      s.verify.tile_groups,   s.candidates.rejected_by_buffer};
  for (size_t i = 0; i < kCounterCount; ++i) (*into)[i] += values[i];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct PassResult {
  int64_t wall_ns = 0;
  std::vector<Span> spans;
  size_t timestamps = 0;
  size_t updates = 0;  ///< = recomputes: every violation recomputes once
  size_t messages = 0;
  size_t packets = 0;
  Counters work = Counters(kCounterCount, 0);  ///< the sessions' servers
  std::vector<uint32_t> final_po;
  std::vector<bool> finished;  ///< has a result and ran its whole horizon
  /// Span id of each session's first recompute (0 when untraced).
  std::vector<uint32_t> first_recompute;
  // Replay pass only.
  Counters replay_work = Counters(kCounterCount, 0);
  bool replay_consistent = true;
  size_t regions = 0;
  size_t region_values = 0;
  size_t tile_regions = 0;
  size_t snapshot_bytes = 0;
  /// Index nodes the replayed MSR calls touched (the calling thread's
  /// counter; also covers Circle-MSR, whose MsrStats carry none).
  uint64_t msr_node_accesses = 0;
};

/// Calls the index, mpn and codec entry points on one recompute's captured
/// snapshot, each as a replay span caused by the recompute span.
void ReplayRecompute(const WorkloadSpec& spec, const Inputs& in,
                     const mpn::GroupSession::Snapshot& snap,
                     uint32_t expected_po, uint32_t parent, uint32_t session,
                     Tracer* tracer, mpn::MsrScratch* scratch,
                     PassResult* pass) {
  const mpn::SimOptions sim = MakeSimOptions(spec);
  const bool buffered = spec.method == mpn::Method::kTileDBuffered;
  // Circle-MSR and unbuffered Tile-MSR start from the top-2 GNNs; the
  // buffered variant fetches the best b+1.
  const size_t k = buffered ? static_cast<size_t>(sim.server.buffer_b) + 1 : 2;
  uint32_t span = tracer->Open(SpanName::kGnn, parent, session);
  const auto gnn =
      mpn::FindGnn(in.index.view(), snap.locations, spec.objective, k);
  tracer->Close(span);

  uint32_t po = 0;
  std::vector<mpn::SafeRegion> regions;
  const uint64_t accesses_before = in.index.view().node_accesses();
  if (spec.method == mpn::Method::kCircle) {
    span = tracer->Open(SpanName::kMsr, parent, session);
    mpn::CircleMsrResult c =
        mpn::ComputeCircleMsr(in.index.view(), snap.locations, spec.objective);
    tracer->Close(span);
    po = c.po_id;
    regions = std::move(c.regions);
  } else {
    mpn::TileMsrConfig tc;
    tc.alpha = sim.server.alpha;
    tc.split_level = sim.server.split_level;
    tc.buffer_b = sim.server.buffer_b;
    tc.directed = spec.method != mpn::Method::kTile;
    tc.buffered = buffered;
    tc.kernel = sim.server.kernel;
    tc.scratch = scratch;
    span = tracer->Open(SpanName::kMsr, parent, session);
    mpn::MsrResult r = mpn::ComputeTileMsr(in.index.view(), snap.locations,
                                           spec.objective, tc, snap.hints);
    tracer->Close(span);
    po = r.po_id;
    regions = std::move(r.regions);
    AddCounters(r.stats, &pass->replay_work);
  }
  pass->msr_node_accesses += in.index.view().node_accesses() - accesses_before;
  if (po != expected_po || gnn.empty() || gnn.front().id != po) {
    pass->replay_consistent = false;
  }
  for (const mpn::SafeRegion& region : regions) {
    ++pass->regions;
    pass->region_values += mpn::RegionValueCount(region, true);
    if (region.is_circle()) continue;
    span = tracer->Open(SpanName::kRegionCodec, parent, session);
    const mpn::TileRegion back =
        mpn::DecodeTileRegion(mpn::EncodeTileRegion(region.tiles()));
    tracer->Close(span);
    ++pass->tile_regions;
    if (back.size() != region.tiles().size()) pass->replay_consistent = false;
  }
}

/// Snapshots a finished session through the spill codec and back.
void ReplayState(const mpn::GroupSession& s, uint32_t parent,
                 uint32_t session, Tracer* tracer, PassResult* pass) {
  uint32_t span = tracer->Open(SpanName::kStateEncode, parent, session);
  mpn::WireBuffer buf;
  mpn::EncodeLiveSession(s.ExportState(), &buf);
  tracer->Close(span);
  span = tracer->Open(SpanName::kStateDecode, parent, session);
  mpn::WireReader reader(buf.data());
  const bool live =
      mpn::ReadSnapshotHeader(&reader) == mpn::SnapshotKind::kLive;
  const mpn::GroupSession::State back = mpn::DecodeLiveSession(&reader);
  tracer->Close(span);
  mpn::WireBuffer again;
  mpn::EncodeLiveSession(back, &again);
  pass->snapshot_bytes += buf.size();
  if (!live || again.data() != buf.data()) pass->replay_consistent = false;
}

/// Runs every session to completion on this thread, phase by phase.
PassResult DrivePass(const WorkloadSpec& spec, const Inputs& in, bool trace,
                     bool replay) {
  PassResult pass;
  Tracer tracer(trace);
  const mpn::SimOptions sim = MakeSimOptions(spec);
  const mpn::SessionTuning tuning = MakeTuning();
  mpn::MsrScratch scratch;
  const size_t n = in.groups.size();
  pass.final_po.resize(n);
  pass.finished.resize(n);
  pass.first_recompute.assign(n, 0);
  const auto wall_start = std::chrono::steady_clock::now();
  for (uint32_t id = 0; id < n; ++id) {
    const uint32_t session = tracer.Open(SpanName::kSession, 0, id);
    uint32_t span = tracer.Open(SpanName::kOpen, session, id);
    mpn::GroupSession s(id, &in.pois, in.index.view(), in.groups[id], sim,
                        tuning);
    tracer.Close(span);
    mpn::GroupSession::Snapshot snap;
    while (!s.AdvancesExhausted()) {
      // One tick span per run of clean ticks, ended by the violation.
      span = tracer.Open(SpanName::kTick, session, id);
      uint32_t ticks = 0;
      bool violated = false;
      while (!violated && !s.AdvancesExhausted()) {
        violated = s.AdvanceAndCheck(&snap);
        ++ticks;
      }
      tracer.Close(span, ticks);
      if (!violated) break;
      span = tracer.Open(SpanName::kRecompute, session, id);
      mpn::GroupSession::RecomputeOutcome outcome = s.Recompute(snap);
      tracer.Close(span);
      if (pass.first_recompute[id] == 0) pass.first_recompute[id] = span;
      if (replay) {
        ReplayRecompute(spec, in, snap, outcome.result.po_id, span, id,
                        &tracer, &scratch, &pass);
      }
      span = tracer.Open(SpanName::kInstall, session, id);
      s.InstallResult(std::move(outcome));
      tracer.Close(span);
    }
    span = tracer.Open(SpanName::kFinish, session, id);
    s.Finish();
    tracer.Close(span);
    if (replay) ReplayState(s, session, id, &tracer, &pass);
    tracer.Close(session);
    const mpn::SimMetrics& metrics = s.metrics();
    pass.timestamps += metrics.timestamps;
    pass.updates += metrics.updates;
    pass.messages += metrics.comm.TotalMessages();
    pass.packets += metrics.comm.TotalPackets();
    AddCounters(metrics.msr, &pass.work);
    pass.final_po[id] = s.current_po();
    pass.finished[id] =
        s.has_result() && metrics.timestamps == Horizon(in.groups[id]);
  }
  pass.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
  pass.spans = tracer.spans();
  return pass;
}

/// Durations (in `scale` units per ns) of the spans named `name`, optionally
/// only those whose parent is flagged in `parents`.
std::vector<double> Durations(const std::vector<Span>& spans, SpanName name,
                              double scale,
                              const std::vector<bool>* parents = nullptr) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    if (parents != nullptr && !(*parents)[s.parent]) continue;
    out.push_back(static_cast<double>(s.duration_ns()) * scale);
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum;
}

double Mean(const std::vector<double>& v) {
  return Ratio(Sum(v), static_cast<double>(v.size()));
}

template <typename F>
double MedianOverReps(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(f(r));
  return Median(v);
}

}  // namespace

TracedResult RunTraced(const WorkloadSpec& spec, uint64_t seed,
                       const std::vector<RepResult>& reps,
                       const std::string& trace_path) {
  TracedResult out;
  // The phase loop replays input set 0; engine figures compared with
  // it come from that set's repetitions.
  const Inputs in = MakeInputs(spec, seed, 0);
  std::vector<RepResult> set0;
  for (const RepResult& r : reps) {
    if (r.set == 0) set0.push_back(r);
  }
  // The replay pass runs first and warms the caches; the untraced and
  // traced passes then alternate twice and the faster of each is kept.
  const PassResult replay = DrivePass(spec, in, true, true);
  std::vector<PassResult> offs, ons;
  for (int i = 0; i < 2; ++i) {
    offs.push_back(DrivePass(spec, in, false, false));
    ons.push_back(DrivePass(spec, in, true, false));
  }
  const auto faster = [](const std::vector<PassResult>& p) -> const auto& {
    return p[0].wall_ns <= p[1].wall_ns ? p[0] : p[1];
  };
  const PassResult& off = faster(offs);
  const PassResult& on = faster(ons);
  const RepResult& engine = set0.front();
  const double groups = static_cast<double>(in.groups.size());
  const double recomputes = static_cast<double>(on.updates);

  // Deterministic counts repeat exactly: across the passes, between the
  // phase loop and the multi-threaded engine, and between the sessions'
  // servers and the replayed MSR calls.
  bool ok = replay.replay_consistent;
  for (const PassResult* p : {&offs[0], &offs[1], &ons[0], &ons[1]}) {
    ok = ok && p->timestamps == replay.timestamps &&
         p->updates == replay.updates && p->packets == replay.packets &&
         p->work == replay.work && p->final_po == replay.final_po;
  }
  ok = ok && on.timestamps == engine.session_timestamps &&
       on.updates == engine.updates && on.packets == engine.packets &&
       replay.replay_work == on.work;
  for (const RepResult& r : set0) {
    ok = ok && r.updates == engine.updates && r.packets == engine.packets &&
         r.digest == engine.digest;
  }

  for (const bool session_ok : CheckSessions(in, spec.objective, on.final_po,
                                             on.finished, &engine)) {
    out.sessions.Record(session_ok);
  }

  const int64_t phase_ns = PhaseSumNs(on.spans);
  const double coverage = Ratio(static_cast<double>(phase_ns),
                                static_cast<double>(on.wall_ns));
  const bool covered = WithinShare(phase_ns, on.wall_ns, 0.05);
  const double overhead =
      Ratio(static_cast<double>(on.wall_ns - off.wall_ns),
            static_cast<double>(off.wall_ns));
  out.ok = ok && covered;
  if (!ok) std::fprintf(stderr, "traced run: deterministic check failed\n");
  if (!covered) {
    std::fprintf(stderr, "traced run: phase spans cover %.4f of wall time\n",
                 coverage);
  }

  // Per-session wait before the first install that is not its own first
  // recompute: queueing, scheduling and admission.
  std::vector<double> notify_wait_ms;
  for (const RepResult& r : set0) {
    for (size_t id = 0; id < r.notify_s.size(); ++id) {
      const uint32_t first = on.first_recompute[id];
      const double own_s =
          first == 0 ? 0.0
                     : static_cast<double>(on.spans[first - 1].duration_ns()) *
                           1e-9;
      notify_wait_ms.push_back((r.notify_s[id] - own_s) * 1e3);
    }
  }
  std::vector<double> gen_lag_s;
  for (const RepResult& r : reps) {
    gen_lag_s.insert(gen_lag_s.end(), r.gen_lag_s.begin(), r.gen_lag_s.end());
  }

  std::vector<bool> is_first(replay.spans.size() + 1, false);
  for (const uint32_t id : replay.first_recompute) is_first[id] = id != 0;
  const std::vector<double> msr_us =
      Durations(replay.spans, SpanName::kMsr, 1e-3);
  const std::vector<double> ticks_ns =
      Durations(on.spans, SpanName::kTick, 1.0);
  uint64_t tick_count = 0;
  for (const Span& s : on.spans) {
    if (s.name == SpanName::kTick) tick_count += s.count;
  }
  const Counters& w = on.work;
  const double verify_calls = static_cast<double>(w[kVerifyCalls]);
  const double engine_cpu_s = MedianOverReps(set0, [](const RepResult& r) {
    return r.cpu_s;
  });
  const double work_s = static_cast<double>(phase_ns) * 1e-9;

  auto add = [&out](const char* name, const char* unit, double value) {
    out.per_layer.push_back({name, unit, value});
  };
  add("traj.generate_s", "s",
      MedianOverReps(reps, [](const RepResult& r) { return r.generate_s; }));
  add("index.build_s", "s",
      MedianOverReps(reps, [](const RepResult& r) { return r.index_s; }));
  add("index.gnn_us_p50", "us",
      Median(Durations(replay.spans, SpanName::kGnn, 1e-3)));
  add("index.node_accesses_per_recompute", "count",
      Ratio(static_cast<double>(replay.msr_node_accesses), recomputes));
  add("mpn.msr_us_p50", "us", Median(msr_us));
  add("mpn.msr_us_p99", "us", Quantile(msr_us, 0.99));
  add("mpn.msr_first_us_p50", "us",
      Median(Durations(replay.spans, SpanName::kMsr, 1e-3, &is_first)));
  add("mpn.verify_calls_per_recompute", "count",
      Ratio(verify_calls, recomputes));
  add("mpn.ns_per_verify_call", "ns", Ratio(Sum(msr_us) * 1e3, verify_calls));
  add("mpn.candidates_per_retrieval", "count",
      Ratio(static_cast<double>(w[kCandidates]),
            static_cast<double>(w[kRetrievals])));
  add("mpn.focal_evals_per_recompute", "count",
      Ratio(static_cast<double>(w[kFocalEvals]), recomputes));
  // Each SUM verify call looks up the memo once per other group member.
  add("mpn.memo_hit_ratio", "ratio",
      Ratio(static_cast<double>(w[kMemoHits]),
            verify_calls * static_cast<double>(spec.m - 1)));
  add("mpn.tile_accept_ratio", "ratio",
      Ratio(static_cast<double>(w[kTilesAdded]),
            static_cast<double>(w[kTilesTried])));
  add("mpn.verify_accept_ratio", "ratio",
      Ratio(static_cast<double>(w[kVerifyAccepted]), verify_calls));
  add("mpn.values_per_region", "values",
      Ratio(static_cast<double>(replay.region_values),
            static_cast<double>(replay.regions)));
  add("mpn.codec_us_per_region", "us",
      Ratio(Sum(Durations(replay.spans, SpanName::kRegionCodec, 1e-3)),
            static_cast<double>(replay.tile_regions)));
  add("net.messages_per_update", "messages",
      Ratio(static_cast<double>(on.messages), recomputes));
  add("net.packets_per_update", "packets",
      Ratio(static_cast<double>(on.packets), recomputes));
  add("sim.tick_ns", "ns",
      Ratio(Sum(ticks_ns), static_cast<double>(tick_count)));
  add("sim.install_us", "us",
      Mean(Durations(on.spans, SpanName::kInstall, 1e-3)));
  add("sim.recompute_us_p50", "us",
      Median(Durations(on.spans, SpanName::kRecompute, 1e-3)));
  add("engine.cpu_s", "s", engine_cpu_s);
  add("engine.work_s", "s", work_s);
  add("engine.overhead_ratio", "ratio", Ratio(engine_cpu_s, work_s));
  add("engine.spills_per_session", "count",
      MedianOverReps(reps, [groups](const RepResult& r) {
        return static_cast<double>(r.mem.spilled_sessions) / groups;
      }));
  add("engine.rehydrates_per_session", "count",
      MedianOverReps(reps, [groups](const RepResult& r) {
        return static_cast<double>(r.mem.rehydrated_sessions) / groups;
      }));
  add("engine.snapshot_bytes", "bytes",
      static_cast<double>(replay.snapshot_bytes) / groups);
  add("engine.codec_encode_us", "us",
      Mean(Durations(replay.spans, SpanName::kStateEncode, 1e-3)));
  add("engine.codec_decode_us", "us",
      Mean(Durations(replay.spans, SpanName::kStateDecode, 1e-3)));
  add("engine.peak_resident_kb", "KB",
      MedianOverReps(reps, [](const RepResult& r) {
        return static_cast<double>(r.mem.peak_resident_bytes) / 1024.0;
      }));
  add("engine.notify_wait_ms_p50", "ms", Median(notify_wait_ms));
  add("engine.mailbox_stalls_per_session", "count",
      MedianOverReps(reps, [groups](const RepResult& r) {
        return static_cast<double>(r.stalls) / groups;
      }));
  add("engine.cluster.overhead_ratio", "ratio",
      spec.workers == 0
          ? 0.0
          : Ratio(MedianOverReps(reps,
                                 [](const RepResult& r) { return r.run_s; }),
                  MedianOverReps(reps, [](const RepResult& r) {
                    return r.inproc_run_s;
                  })));
  add("engine.cluster.retries", "count",
      MedianOverReps(reps, [](const RepResult& r) {
        return static_cast<double>(r.recovery.retries);
      }));
  add("bench.gen_lag_p99_ms", "ms", Quantile(gen_lag_s, 0.99) * 1e3);
  add("bench.trace_overhead_ratio", "ratio", overhead);
  add("bench.phase_coverage", "ratio", coverage);

  // Self time per span name, for the trace file and the log.
  const std::vector<int64_t> self = SelfTimes(replay.spans);
  double self_ns[static_cast<size_t>(SpanName::kCount)] = {};
  for (size_t i = 0; i < replay.spans.size(); ++i) {
    self_ns[static_cast<size_t>(replay.spans[i].name)] +=
        static_cast<double>(self[i]);
  }
  std::string meta = "\"workload\":\"" + spec.name +
                     "\",\"seed\":" + std::to_string(seed) +
                     ",\"wall_ns_spans_off\":" + std::to_string(off.wall_ns) +
                     ",\"wall_ns_spans_on\":" + std::to_string(on.wall_ns) +
                     ",\"phase_ns\":" + std::to_string(phase_ns) +
                     ",\"spans\":" + std::to_string(replay.spans.size()) +
                     ",\"self_ns\":{";
  std::fprintf(stderr, "traced run: wall %.3f s spans off, %.3f s on "
                       "(overhead %.4f), phase coverage %.4f\n",
               static_cast<double>(off.wall_ns) * 1e-9,
               static_cast<double>(on.wall_ns) * 1e-9, overhead, coverage);
  for (size_t k = 0; k < static_cast<size_t>(SpanName::kCount); ++k) {
    const char* name = SpanNameString(static_cast<SpanName>(k));
    meta += std::string(k == 0 ? "" : ",") + "\"" + name +
            "\":" + std::to_string(static_cast<int64_t>(self_ns[k]));
    std::fprintf(stderr, "  self %-14s %12.3f ms\n", name, self_ns[k] * 1e-6);
  }
  meta += "}";
  constexpr size_t kMaxTraceEvents = 100000;
  if (!WriteChromeTrace(trace_path, replay.spans, kMaxTraceEvents, meta)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    out.ok = false;
  }
  return out;
}

}  // namespace perfbench
