#pragma once
// GroupMux: thousands of multiplexed group deployments in one process.
//
// Production group-membership services in the ISIS lineage this paper fed
// into run huge fleets of *small* groups, not one giant group.  One
// harness::Cluster still owns one deployment and one sim::SimWorld; the mux
// packs thousands of them into a single process by treating each group as a
// cheap cohort over a shared global timeline:
//
//   * Slot pool.  A deployment returns its Cluster to the pool as soon as
//     its run concludes and the next create reset()s it (capacity-preserving),
//     so steady-state churn allocates almost nothing.  Peak pool size is peak
//     *running* groups: at most peak residency, never the total group count.
//   * Cohort activation heap.  A binary heap of (global due tick, seq, gid)
//     turns orders runnable groups by virtual time; each turn advances one
//     group's StagedRun by a bounded event slice and re-queues it at
//     create_at + its local clock.  Groups whose run has concluded go
//     dormant: no slot, no heap entries, no event traffic, until their
//     scheduled retirement ends their residency.  Idle spans *inside* a
//     group are elided by the skip engine, so 10k+ mostly-idle groups cost
//     only their reconfig bursts.
//   * Group directory.  gid -> slot through the tiled array layout
//     (common/tiled.hpp) — the same tiling that replaced the n > 512
//     per-pair channel hashing — not per-id hashing.
//   * Cross-group sessions.  Each group carries a seeded registry/work-queue
//     workload (soak::SoakHost, the exact single-group soak stack) whose
//     client ids are remapped onto a small set of global session ids, so one
//     logical client drives traffic against many groups at once.  Runs are
//     judged end to end: GMP-1..5 via the executor verdict plus APP-R1..R4 /
//     APP-Q1..Q2 on each group's merged app trace.
//
// Groups never exchange messages, so per-group results are independent of
// the interleaving; a mux run is a pure function of (seed, options).  The
// sweep treats one mux run as one grid item, which keeps `--jobs`
// byte-identity for the `groupmux` profile for free.
//
// Oracle-detector groups run through run_to_quiescence (never try_skip), so
// the oracle axis stays skip-free under the mux — CI asserts it.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "soak/workload.hpp"

namespace gmpx::mux {

/// One deployment's place in the churn plan, in global virtual time.
struct GroupSpec {
  uint32_t gid = 0;      ///< dense group id (never reused within a run)
  uint64_t seed = 0;     ///< per-group schedule + workload seed
  Tick create_at = 0;    ///< global tick the deployment spawns
  Tick retire_at = 0;    ///< global tick the deployment is torn down
  scenario::Profile profile = scenario::Profile::kMixed;  ///< fault shape
};

struct MuxPlan {
  std::vector<GroupSpec> groups;  ///< indexed by gid
  Tick horizon = 0;               ///< latest retire_at
};

/// Per-group outcome, surfaced through MuxOptions::on_group (tests, A/B
/// harnesses).  References are valid only during the callback.
struct GroupOutcome {
  uint32_t gid = 0;
  uint64_t seed = 0;
  scenario::Profile profile = scenario::Profile::kMixed;
  const scenario::Schedule& schedule;
  const soak::Workload& workload;
  const scenario::ExecResult& exec;
  bool app_ok = true;        ///< APP-* clauses (true when sessions are off)
  double availability = 0.0; ///< 0 when sessions are off
};

struct MuxOptions {
  /// Deployments created over the run (gids 0..groups-1).
  size_t groups = 12;
  /// Global logical client sessions the per-group workloads are remapped
  /// onto — one session id issues ops against many groups.
  size_t sessions = 8;
  /// Event budget per scheduling turn.  Small enough that thousands of
  /// groups interleave fairly; the run loops are resumable, so slicing
  /// never changes a group's behaviour (pinned by mux_test).
  uint64_t slice_events = 32'768;
  /// Churn shape: creates land uniformly in [0, spawn_span]; lifetimes are
  /// drawn uniformly from [min_lifetime, max_lifetime].
  Tick spawn_span = 240'000;
  Tick min_lifetime = 90'000;
  Tick max_lifetime = 300'000;
  /// Per-group fault-schedule shape.  The profile field is overridden per
  /// group (drawn from the five single-group adversary profiles); the
  /// horizon stretches to the session horizon and restart churn mixes in,
  /// exactly as the single-group soak sweep does; heartbeat/phi storm
  /// tuning applies per detector.
  scenario::GeneratorOptions gen;
  /// Per-group session workload shape (mux default: a short horizon and a
  /// small op count per group — aggregate traffic comes from group count).
  soak::SoakOptions sopts = [] {
    soak::SoakOptions s;
    s.horizon = 60'000;
    s.ops = 24;
    return s;
  }();
  /// Executor policy, including the failure detector driving every group.
  scenario::ExecOptions exec;
  /// Attach registry/work-queue session traffic to each group (on by
  /// default; off leaves pure protocol runs).
  bool with_sessions = true;
  /// Hook invoked once per group at harvest (conclusion) time, in
  /// deterministic conclusion order.
  std::function<void(const GroupOutcome&)> on_group;
};

struct MuxResult {
  uint64_t groups = 0;          ///< deployments created (== plan size)
  uint64_t retired = 0;         ///< groups whose scheduled lifetime ended
  uint64_t failures = 0;        ///< groups whose verdict was not clean
  uint64_t quiesced = 0;        ///< groups that quiesced within budget
  Tick horizon = 0;             ///< global plan horizon (latest retire)
  uint64_t sim_ticks = 0;       ///< sum of per-group end ticks
  uint64_t messages = 0;        ///< protocol sends across all groups
  uint64_t fd_messages = 0;     ///< detector sends across all groups
  uint64_t skipped_ticks = 0;   ///< virtual time fast-forwarded (0 on oracle)
  uint64_t skipped_events = 0;  ///< background events elided
  uint64_t aborted_joins = 0;
  uint64_t turns = 0;           ///< cohort-heap scheduling turns taken
  size_t peak_resident = 0;     ///< max concurrently-resident groups (create -> retire)
  size_t peak_slots = 0;        ///< slot-pool high-water mark (max running groups)
  /// Mean fraction of peak residency occupied over the plan horizon
  /// (deterministic, but reported via --stats alongside the wall-clock
  /// figures because it describes engine load, not run behaviour).
  double occupancy = 0.0;
  uint64_t ops_attempted = 0;   ///< session ops fired across all groups
  uint64_t ops_rejected = 0;    ///< ops that found no usable endpoint
  uint64_t sync_passes = 0;
  double availability_sum = 0.0;
  uint64_t availability_runs = 0;
  /// splitmix fold of per-group trace hashes in gid order.
  uint64_t trace_hash = 0;
  /// First failing group's rendered report (empty when all clean).
  std::string first_failure;

  bool ok() const { return failures == 0; }
  double mean_availability() const {
    return availability_runs ? availability_sum / static_cast<double>(availability_runs) : 0.0;
  }
};

/// Deterministic churn plan for (seed, opts): create/retire ticks, per-group
/// seeds and fault profiles.  Exposed for tests and the bench A/B loop.
MuxPlan generate_mux_plan(uint64_t seed, const MuxOptions& opts);

/// Run the full plan to completion on one thread.  Pure function of
/// (seed, opts): the result — including the trace-hash fold — is identical
/// for any slice_events that preserves per-group budgets, and independent
/// of everything outside this call.
MuxResult run_mux(uint64_t seed, const MuxOptions& opts);

}  // namespace gmpx::mux
