// Schedule executor: replays a Schedule against a harness::Cluster and
// validates the recorded run with trace::check_gmp.
//
// The executor is the single code path behind the fuzzer sweep, the
// `--replay` CLI mode, the minimizer's probe runs, and the scenario test
// suite — one Schedule always means one behaviour.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fd/detector.hpp"
#include "harness/cluster.hpp"
#include "scenario/schedule.hpp"
#include "trace/checker.hpp"

namespace gmpx::scenario {

struct ExecOptions {
  /// Assert GMP-5 convergence when the run quiesces and the schedule is
  /// liveness_eligible().  Safety (GMP-0..4) is always checked.
  bool check_liveness = true;
  /// S7 final algorithm (majority commits) vs S3 basic algorithm.
  bool require_majority = true;
  /// Event budget for the run (run_to_quiescence / protocol quiescence).
  /// Exhausting it yields quiesced = false plus ExecResult::diagnostic
  /// naming the node/timer that was still live — never a silent failure.
  uint64_t max_sim_events = 5'000'000;
  /// Joiner solicit / leave re-denunciation retry cap; 0 = the default
  /// give-up policy (gmp::kDefaultJoinMaxAttempts).  Pin to the legacy 200
  /// to reproduce pre-PR-5 runs byte-for-byte (gmpx_fuzz --join-attempts).
  size_t join_max_attempts = 0;
  /// Which failure detector drives the run.  Oracle runs quiesce by queue
  /// drain and need the executor's timeout emulation for one-sided false
  /// suspicions; timeout detectors (heartbeat, phi) detect protocol
  /// quiescence (ping timers re-arm forever) and resolve every standoff
  /// natively by mutual timeout — the executor injects nothing.
  fd::DetectorKind fd = fd::DetectorKind::kOracle;
  /// Heartbeat tuning (fd == kHeartbeat only).
  fd::HeartbeatOptions heartbeat{};
  /// φ-accrual tuning (fd == kPhi only).
  fd::PhiOptions phi{};
  /// Fault injection: suppress faulty_p(q) trace records so every removal
  /// trips GMP-1 (exercises the minimizer on a guaranteed "bug").
  bool inject_bug_unrecorded_suspicion = false;
  /// Application layering hook (soak mode): called after the fault schedule
  /// has been scripted onto the cluster — every node, joiners included,
  /// already exists — and before cluster.start().  The soak runner uses it
  /// to attach per-node application instances and schedule client ops.
  /// Unset for plain protocol runs (the default), which stay byte-identical.
  std::function<void(harness::Cluster&)> on_pre_start;
  /// Application work hook (soak mode): called each time the run reaches
  /// quiescence.  Return true to say "I injected more work (app sync/
  /// dispatch rounds) — run to quiescence again"; false ends the run.  By
  /// this point every bounded fault span has expired, so app-level repair
  /// traffic runs on a clean network.  Capped at 32 rounds.
  std::function<bool(harness::Cluster&, int pass)> on_quiesced;
};

struct ExecResult {
  bool quiesced = false;          ///< protocol work drained within budget
  bool liveness_checked = false;  ///< GMP-5 was asserted on this run
  trace::CheckResult check;       ///< violations (safety + maybe liveness)
  Tick end_tick = 0;              ///< simulated time at quiescence
  uint64_t messages = 0;          ///< protocol sends metered by the run
  uint64_t fd_messages = 0;       ///< detector sends (heartbeats/acks), metered apart
  size_t final_view_size = 0;     ///< |view| of the most senior survivor (0 if none)
  /// Joiners that exhausted their solicit retry cap and gave up (an
  /// explicit JoinAborted outcome — the group was dead or durably below
  /// majority, so admission was never going to happen).
  size_t aborted_joins = 0;
  /// Virtual-time fast-forward telemetry: simulated ticks jumped over and
  /// background events elided by the skip engine (0 on oracle runs, whose
  /// traces the engine must leave byte-identical).
  uint64_t skipped_ticks = 0;
  uint64_t skipped_events = 0;
  /// Always 0: the simulator has one per-event dispatch loop and no batch
  /// telemetry.  Kept only because perfbench still reads them.
  uint64_t bursts = 0;
  uint64_t burst_events = 0;
  /// Filled when the run exhausted its event budget: which events/timers
  /// were still pending, and which node's retry loop (if any) owned them.
  std::string diagnostic;
  /// FNV-1a fingerprint of the full recorded trace (every event, field by
  /// field).  Two runs of the same schedule are bit-reproducible iff their
  /// hashes match — the determinism regression test asserts exactly this.
  uint64_t trace_hash = 0;

  /// A run passes when it quiesced and no checked clause was violated.
  bool ok() const { return quiesced && check.ok(); }
  /// Failure report for logs: violations or the non-quiescence note.
  std::string message() const;
};

/// The cluster configuration execute() derives from (s, opts) — exposed so
/// pooled callers (the GroupMux slot pool) can reset() a slot for a
/// StagedRun themselves.
harness::ClusterOptions cluster_options_for(const Schedule& s, const ExecOptions& opts);

/// Incremental form of execute(): the same scripting, quiescence endgame
/// and verdict, split into explicit phases so a multiplexer can advance
/// many runs concurrently in bounded event slices.  execute() is exactly
/// `install(); advance(opts.max_sim_events);` — one schedule still means
/// one behaviour, whatever the slicing (the run loops are resumable, so
/// the event sequence is independent of where the pauses fall).
class StagedRun {
 public:
  /// `cluster`, `s` and `opts` must outlive this object: scripted events
  /// capture them by reference (the mux keeps all three in the group slot).
  /// The cluster must already be configured for (s, opts) — fresh-built or
  /// reset() with cluster_options_for().
  StagedRun(harness::Cluster& cluster, const Schedule& s, const ExecOptions& opts);
  ~StagedRun();
  StagedRun(StagedRun&&) noexcept;
  StagedRun& operator=(StagedRun&&) noexcept;

  /// Script the schedule onto the cluster, run on_pre_start, start the
  /// deployment.  Called implicitly by the first advance() if omitted.
  void install();

  /// Run one bounded slice (at most `max_events` sim events).  Returns true
  /// once the run has concluded — the slice reached quiescence (endgame and
  /// verdict run inside that call), or the accumulated slice budget reached
  /// opts.max_sim_events without quiescing (concluded as budget-exhausted,
  /// same as execute()).  With max_events >= opts.max_sim_events the first
  /// call always concludes.
  bool advance(uint64_t max_events);

  bool done() const;
  /// The verdicted result; valid once done().
  const ExecResult& result() const;
  ExecResult take_result();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Replay `s` on a fresh cluster and check the trace.
ExecResult execute(const Schedule& s, const ExecOptions& opts = {});

/// Pooled variant: reset `cluster` for this schedule and replay on it.
/// Behaviourally identical to the fresh-cluster overload (pinned by
/// determinism_test); the sweep keeps one cluster per worker thread so the
/// steady-state fuzz loop never rebuilds a deployment.
ExecResult execute(const Schedule& s, const ExecOptions& opts, harness::Cluster& cluster);

}  // namespace gmpx::scenario
