// Soak runner: one (fault schedule, client workload) pair replayed as a
// full application-level run and judged end to end.
//
// The runner layers the soak applications (app::Registry, app::WorkQueue,
// one pair per member) over the schedule executor via its two hooks:
// on_pre_start attaches application instances to every node — scripted
// joiners and restart incarnations included — and schedules the client
// ops as environment scripts; on_quiesced drives post-quiescence
// anti-entropy rounds (sync + dispatch) until the surviving replicas
// converge, then lets the run conclude.  By quiescence every bounded fault
// span in the schedule has expired, so repair traffic runs on a calm
// network and convergence is deterministic.
//
// The verdict combines three layers: the membership check (GMP-1..5, from
// the executor), the application oracles (APP-R1..R4, APP-Q1..Q2), and
// the steady-state availability metric.
#pragma once

#include <functional>
#include <string>

#include "scenario/executor.hpp"
#include "soak/app_oracle.hpp"
#include "soak/workload.hpp"

namespace gmpx::harness {
class Cluster;
}

namespace gmpx::soak {

class SoakHost;

struct SoakResult {
  scenario::ExecResult exec;     ///< membership-level verdict (GMP-1..5)
  trace::CheckResult app_check;  ///< application-level verdict (APP-*)
  /// Fraction of virtual time a majority view could serve client ops.
  double availability = 0.0;
  uint64_t ops_attempted = 0;
  /// Ops that found no usable endpoint (no live primary for writes or
  /// submits, no live replica for reads) — the workload-level face of an
  /// availability gap, not a violation.
  uint64_t ops_rejected = 0;
  size_t sync_passes = 0;  ///< anti-entropy rounds the run needed
  bool converged = false;  ///< survivors reached identical app state

  /// A soak run passes when the protocol run passed and every checked
  /// application clause held.
  bool ok() const { return exec.ok() && app_check.ok(); }
  std::string message() const;
};

/// Replay schedule + workload on a fresh cluster and host.
SoakResult run_soak(const scenario::Schedule& s, const Workload& w,
                    const scenario::ExecOptions& exec_opts, const SoakOptions& sopts);

/// Pooled variant: the sweep keeps one cluster and one host per worker
/// thread, and every run resets both in place.  Byte-identical to the
/// one-shot form (pinned by soak_test).
SoakResult run_soak(const scenario::Schedule& s, const Workload& w,
                    const scenario::ExecOptions& exec_opts, const SoakOptions& sopts,
                    harness::Cluster& cluster, SoakHost& host);

/// True when the (candidate schedule, candidate workload) pair still
/// reproduces a failure (minimizer plumbing).
using SoakFailPredicate = std::function<bool(const scenario::Schedule&, const Workload&)>;

struct SoakMinimizeStats {
  size_t probes = 0;
  size_t events_before = 0, events_after = 0;
  size_t ops_before = 0, ops_after = 0;
};

/// Shrink a failing soak reproducer: alternates the schedule minimizer
/// (event dropping + value shrinking) with greedy workload-op dropping
/// until neither side can shrink further.  Precondition: fails(s, w).
void minimize_soak(scenario::Schedule& s, Workload& w, const SoakFailPredicate& fails,
                   size_t max_probes = 2000, SoakMinimizeStats* stats = nullptr);

}  // namespace gmpx::soak
