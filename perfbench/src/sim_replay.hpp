// Single-threaded replay of simulated runs through the public layer calls —
// the traced half of the sim workloads (fuzz-sweep, soak-week, mux-fleet).
//
// One unit is one schedule run, built exactly as run_sweep or run_mux would
// build it: scenario::generate -> (soak::generate_workload) ->
// Cluster::reset -> StagedRun::install -> StagedRun::advance -> verdict, plus
// the soak host, availability and app oracles when the unit carries an app
// layer.  With a SpanLog every call gets a span; traced replays also re-run
// trace::check_gmp over the retained recorder to time the checker on its
// own.  Without a log the same code is the untraced single-thread baseline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/cluster.hpp"
#include "mux/group_mux.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "scenario/sweep.hpp"
#include "soak/workload.hpp"

namespace perfbench {

/// Inputs of one simulated run.
struct UnitSpec {
  uint64_t seed = 0;
  gmpx::scenario::GeneratorOptions gen;  ///< final options: profile set, storm-tuned
  gmpx::scenario::ExecOptions exec;      ///< detector and budgets; hooks unset
  const gmpx::soak::SoakOptions* soak = nullptr;  ///< app layer when set
  uint32_t sessions = 0;  ///< mux: fold workload clients onto this many sessions
  uint32_t gid = 0;       ///< mux: the group id the fold offsets by
};

struct UnitOutcome {
  bool ok = true;
  bool recheck_agrees = true;  ///< traced: the safety re-check matches the verdict
  std::vector<std::string> clauses;  ///< violated clause tags (GMP and APP)
  uint64_t trace_hash = 0;
  uint64_t messages = 0;
  uint64_t fd_messages = 0;
  uint64_t end_tick = 0;
  uint64_t skipped_ticks = 0;
  uint64_t bursts = 0;
  uint64_t burst_events = 0;
  uint64_t trace_events = 0;  ///< traced only
  double availability = 0.0;
  uint64_t ops_attempted = 0;
  uint64_t ops_rejected = 0;
  uint64_t sync_passes = 0;
};

/// Replay one unit on the pooled `cluster`; spans go to `log` under id
/// `unit` when `log` is set.
UnitOutcome replay_unit(const UnitSpec& spec, gmpx::harness::Cluster& cluster, SpanLog* log,
                        uint32_t unit);

/// The single-group units of a sweep, in run_sweep's canonical
/// (profile, detector, seed) order with its per-detector storm tuning and
/// soak stretching.  `opts.soak_opts` must outlive the returned specs.
std::vector<UnitSpec> sweep_units(const gmpx::scenario::SweepOptions& opts);

/// sweep_units() of every cell, concatenated in cell order.
std::vector<UnitSpec> grid_units(const std::vector<gmpx::scenario::SweepOptions>& cells);

/// The per-group units of one mux plan, in gid order, built with run_mux's
/// per-group recipe.  `opts.sopts` must outlive the returned specs.
std::vector<UnitSpec> mux_units(uint64_t plan_seed, const gmpx::mux::MuxOptions& opts);

/// The set-up work of a sim workload, which setup_s times: every unit's
/// inputs made ready (its schedule from scenario::generate and, with an app
/// layer, its client workload) and a pooled cluster constructed and reset
/// for the first unit.  Returns the number of schedule events and client
/// ops generated.
uint64_t prepare_inputs(const std::vector<UnitSpec>& units);

/// Replay every unit on one pooled cluster, in order.  Returns the
/// outcomes; the wall time of the whole pass lands in `wall_s`.
std::vector<UnitOutcome> replay_all(const std::vector<UnitSpec>& units, SpanLog* log,
                                    double& wall_s);

/// The traced replay of `units` into `log`, bracketed by two untraced
/// replays of the same units: `untraced_wall_s` is their mean, so host drift
/// over the three passes cancels to first order.  An untraced warm-up
/// replay goes first and is discarded (first-touch memory, cold caches).
std::vector<UnitOutcome> traced_replay(const std::vector<UnitSpec>& units, SpanLog& log,
                                       double& untraced_wall_s, double& traced_wall_s);

/// Per-detector sim-layer metrics (scenario, harness, executor, sim, fd,
/// trace) and, when units carry an app layer, the soak-layer metrics, from a
/// traced replay.
void report_sim_layers(const SpanLog& log, const std::vector<UnitSpec>& units,
                       const std::vector<UnitOutcome>& outcomes, Report& rep);

/// Tracing overhead of a traced replay against the untraced single-thread
/// pass over the same inputs.  The checker re-check is extra measured work,
/// not tracing cost, so its spans are taken out of the traced side.
double tracing_overhead(const SpanLog& log, double untraced_wall_s);

}  // namespace perfbench
