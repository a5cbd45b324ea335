// Sharded fuzz sweep: the engine behind `gmpx_fuzz --seeds LO:HI`.
//
// A sweep is a grid of independent (profile, detector, seed) runs.  Each
// run builds its own SimWorld, so runs shard perfectly across worker
// threads: with `jobs > 1` the grid is consumed by a pool, and the per-run
// reports are merged back in canonical grid order.  Output, counts,
// artifacts and the derived exit status are byte-identical for every jobs
// value — parallelism buys wall-clock time only, never a different answer.
//
// The detector axis doubles the fuzzed behaviour space: oracle runs replay
// the scripted-detection semantics (clean message counts, executor timeout
// emulation), heartbeat runs exercise real timeout detection — including
// storm-provoked *false* suspicions (the generator's storm knobs are
// calibrated against the heartbeat timeout for those runs).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mux/group_mux.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "soak/workload.hpp"

namespace gmpx::scenario {

/// Outcome of one (profile, detector, seed) run.  For the `groupmux`
/// profile one "run" is a whole mux plan — many pooled deployments churned
/// through one process — and the per-group figures are aggregated here.
struct SweepRun {
  Profile profile = Profile::kMixed;
  fd::DetectorKind detector = fd::DetectorKind::kOracle;
  uint64_t seed = 0;
  bool ok = true;
  Tick end_tick = 0;
  uint64_t messages = 0;         ///< protocol sends (never heartbeat noise)
  uint64_t fd_messages = 0;      ///< detector sends (0 for oracle runs)
  uint64_t trace_hash = 0;       ///< ExecResult::trace_hash of the run
  uint64_t skipped_ticks = 0;    ///< virtual-time ticks fast-forwarded over
  uint64_t skipped_events = 0;   ///< background events elided by skips
  size_t aborted_joins = 0;      ///< orphaned joiners that gave up
  // Budgeting telemetry (gmpx_fuzz --stats).  NOT deterministic across
  // --jobs values (allocations depend on how warm the worker's pooled
  // cluster is; timing is wall clock), so it never enters `report`.
  uint64_t allocs = 0;           ///< heap allocations during execute()
  uint64_t exec_ns = 0;          ///< wall-clock execute() duration
  // Soak mode only (SweepOptions::soak) — workload-level telemetry:
  double availability = 0.0;     ///< majority-view uptime fraction
  uint64_t ops_attempted = 0;    ///< client ops fired
  uint64_t ops_rejected = 0;     ///< ops that found no usable endpoint
  size_t sync_passes = 0;        ///< post-quiescence anti-entropy rounds
  // Groupmux profile only — mux-plan aggregates:
  uint64_t groups = 0;           ///< deployments the plan created
  uint64_t groups_failed = 0;    ///< groups with a dirty verdict
  size_t peak_resident = 0;      ///< max concurrently-live deployments
  size_t peak_slots = 0;         ///< slot-pool high-water mark (running groups)
  /// Mean residency over the plan horizon, as a fraction of peak_resident.
  /// Deterministic, but reported through --stats with the wall-clock
  /// figures (engine load).
  double occupancy = 0.0;
  std::string report;            ///< rendered lines ("" for a quiet pass)
  // Failure artifacts (empty on success):
  std::string tag;               ///< "<profile>-<detector>-<seed>"
  std::string schedule_text;     ///< encoded failing schedule
  std::string minimized_text;    ///< encoded minimal reproducer
  std::string workload_text;     ///< soak: encoded failing workload
  std::string minimized_workload_text;  ///< soak: jointly minimized workload
};

struct SweepOptions {
  uint64_t seed_lo = 0;
  uint64_t seed_hi = 100;   ///< exclusive
  std::vector<Profile> profiles = {Profile::kMixed, Profile::kChurnHeavy,
                                   Profile::kPartitionHeavy, Profile::kBurstCrash,
                                   Profile::kLossy};
  /// Detector axis of the grid (inner to profiles, outer to seeds).
  std::vector<fd::DetectorKind> detectors = {fd::DetectorKind::kOracle};
  GeneratorOptions gen;
  ExecOptions exec;
  /// Soak mode (gmpx_fuzz --soak): layer a per-seed generated client
  /// workload over every schedule, judge with the application oracles
  /// (APP-R1..R4, APP-Q1..Q2) alongside GMP-1..5, and report availability
  /// per run.  The schedule generator inherits soak.horizon and
  /// soak.restart_weight so fault churn spreads across the long horizon.
  bool soak = false;
  soak::SoakOptions soak_opts;
  /// Groupmux profile shape (gmpx_fuzz --mux): plan size, churn window,
  /// session fan-in, slice budget.  The per-run gen/exec/detector come from
  /// the grid item like every other profile — the gen/exec/sopts members
  /// inside this struct are overwritten per run, so only the mux-specific
  /// knobs matter here.  The `groupmux` profile never rides in "all"
  /// (explicit opt-in only): one mux run is ~a dozen soak runs, and
  /// pre-existing sweep output must stay byte-identical.
  mux::MuxOptions mux;
  unsigned jobs = 1;        ///< worker threads; 0 = hardware concurrency
  bool verbose = false;     ///< emit one report line per run (not only failures)
  /// Per-run telemetry probe: sampled on the worker thread before and after
  /// each execute(); the difference lands in SweepRun::allocs.  gmpx_fuzz
  /// --stats installs its thread-local operator-new counter here.  Leave
  /// unset to skip the sampling entirely.
  std::function<uint64_t()> alloc_probe;
  /// Streaming sink: invoked for every run in canonical (profile, seed)
  /// order as soon as that run *and all runs before it* have completed, so
  /// a long sweep shows progress without ever reordering output.  With
  /// jobs > 1 every call happens on the main (run_sweep-calling) thread,
  /// which drains per-worker completion rings and flushes the canonical
  /// prefix; workers never block on a merge lock.  With jobs <= 1 the sink
  /// is called inline.  Runs are never delivered twice or out of order.
  std::function<void(const SweepRun&)> on_run;
};

struct SweepResult {
  uint64_t runs = 0;
  uint64_t failures = 0;
  std::vector<SweepRun> run_log;  ///< every run, in (profile, seed) order
  std::string output;             ///< concatenated reports, jobs-independent
};

/// Execute the sweep.  Deterministic: the result (including `output` and
/// `run_log` ordering) depends only on the options, never on `jobs`.
SweepResult run_sweep(const SweepOptions& opts);

/// A rendered failure: the report text plus the schedule artifacts.
struct FailureReport {
  std::string report;         ///< "FAIL <tag> ..." + schedule + minimization
  std::string schedule_text;  ///< encoded failing schedule
  std::string minimized_text; ///< encoded minimal reproducer
};

/// Render the find → report → minimize pipeline for one failing run.  The
/// single formatter behind both the sweep and the CLI `--replay` path, so
/// the same failure always prints the same report.
FailureReport render_failure(const Schedule& sched, const ExecResult& res,
                             const ExecOptions& exec, const std::string& tag);

}  // namespace gmpx::scenario
