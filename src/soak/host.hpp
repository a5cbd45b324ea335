#pragma once
// Application host: owns one (ProcessGroup, Registry, WorkQueue) triple per
// member plus the shared app trace, routes client ops, and drives the
// post-quiescence anti-entropy rounds.
//
// Extracted from the soak runner so the GroupMux can attach the same
// registry/work-queue session traffic to every multiplexed group, wired
// into the executor through the same on_pre_start / on_quiesced hooks the
// single-group soak path uses.  Behaviour is owned here; run_soak() and the
// mux differ only in who drives the executor.
//
// Lifetime: a host serves many runs, the way harness::Cluster does.  Each
// sweep worker keeps one beside its pooled cluster and each mux slot keeps
// one beside its cluster; a one-shot run_soak() builds a local one.  A run
// is reset(workload, options) -> attach(cluster) -> the executor's hooks
// -> judge().  reset() zeroes the counters and empties the app trace;
// attach() re-binds, per member of the run, the member's recycled apps to
// the run's GmpNode and resets them (replica table, task table, cursors,
// held payloads).  Every table and buffer keeps its capacity, so a warm
// host allocates only when a run outgrows every earlier one.  Apps left
// over for ids the run does not have stay unbound and are never reached:
// every walk goes through this run's member list.

#include <cstdint>
#include <memory>
#include <vector>

#include "app/app_trace.hpp"
#include "app/registry.hpp"
#include "app/work_queue.hpp"
#include "group/process_group.hpp"
#include "harness/cluster.hpp"
#include "scenario/executor.hpp"
#include "soak/app_oracle.hpp"
#include "soak/workload.hpp"

namespace gmpx::soak {

/// The application-level verdict on one concluded run.
struct AppVerdict {
  /// Fraction of virtual time a majority view could serve client ops.
  double availability = 0.0;
  trace::CheckResult check;  ///< APP-R1..R4, APP-Q1..Q2
};

class SoakHost {
 public:
  /// An unbound host; reset() it before each run.
  SoakHost() = default;
  /// A host bound to its first run (same as reset(w, opts)).
  SoakHost(const Workload& w, const SoakOptions& opts) { reset(w, opts); }
  /// Apps, scripted ops and the executor hooks capture the host's address.
  SoakHost(const SoakHost&) = delete;
  SoakHost& operator=(const SoakHost&) = delete;

  /// Start a run: `w` and `opts` are captured by reference and must outlive
  /// it (the workload's ops are fired from scripted world events).  Clears
  /// the counters and the app trace; the apps are reset by attach().
  void reset(const Workload& w, const SoakOptions& opts);

  /// Bind and reset the apps of every member the cluster has, and script
  /// the client ops; the executor calls this via ExecOptions::on_pre_start.
  void attach(harness::Cluster& c);

  /// Post-quiescence driver (ExecOptions::on_quiesced): dead-member
  /// suspicion injection, then anti-entropy sync rounds until converged.
  bool on_quiesced(harness::Cluster& c, int pass);

  /// The oracle's survivor set, ascending: live admitted members holding
  /// the frontier (most advanced) view.  View-synchronous convergence is
  /// only promised within the final view — a falsely-excluded member that
  /// never learned of its exclusion is still running, but it is outside
  /// the group and owed nothing (it fail-stops on first contact).
  std::vector<ProcessId> survivors() const;

  std::vector<ReplicaState> final_states() const;

  /// Judge the run this host is attached to, once the executor concluded
  /// it with `r`: steady-state availability over the membership trace, and
  /// the app oracles.  run_soak and the GroupMux both judge through here.
  AppVerdict judge(const scenario::Schedule& s, const scenario::ExecResult& r,
                   bool require_majority) const;

  const app::AppTrace& trace() const { return trace_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t rejected() const { return rejected_; }
  size_t sync_passes() const { return sync_passes_; }
  /// Payloads this run's members still hold for views they never installed.
  size_t held_payloads() const;
  bool converged_flag() const { return converged_; }

 private:
  /// One member's apps.  Heap-held, so the group's address (borrowed by
  /// the apps and by its own handlers) is stable; recycled for the same id
  /// across runs.
  struct PerNode {
    PerNode(gmp::GmpNode* node, app::AppTrace* trace, const app::Registry::ContextProvider& ctx)
        : group(node), registry(&group, trace, ctx), queue(&group, trace, ctx) {}
    group::ProcessGroup group;
    app::Registry registry;
    app::WorkQueue queue;
  };

  /// Give member `id` apps bound to its node in this run: recycled and
  /// reset when the id had apps in an earlier run, built otherwise.
  void bind_node(ProcessId id);

  /// survivors() and final_states() into `out`, reusing its capacity.
  void survivors_into(std::vector<ProcessId>& out) const;
  void final_states_into(const std::vector<ProcessId>& survivors,
                         std::vector<ReplicaState>& out) const;

  /// A member that can currently serve client traffic.
  bool serving(ProcessId id) const;

  void run_op(const WorkloadOp& op);

  /// Survivors hold identical registry and queue state with no open work.
  bool converged() const;

  const Workload* w_ = nullptr;
  const SoakOptions* opts_ = nullptr;
  harness::Cluster* cluster_ = nullptr;
  app::AppTrace trace_;
  /// Apps per id (ids are small; joiners extend the tail), kept across
  /// runs.  Never iterated: ids_ fixes every walk's order, and an entry
  /// outside ids_ is a previous run's, unbound.
  std::vector<std::unique_ptr<PerNode>> nodes_;
  /// The members attach() bound apps for, ascending.  Client routing, sync
  /// rounds and survivors() walk members in this order; a process the
  /// cluster gains later has no apps, so it never serves and is left out.
  std::vector<ProcessId> ids_;
  std::vector<ProcessId> live_;  ///< run_op scratch: replicas serving a read
  /// on_quiesced()/converged()/judge() scratch: the survivor set and its
  /// final states, plus states parked by a run with fewer survivors.
  mutable std::vector<ProcessId> survivors_;
  mutable std::vector<ReplicaState> finals_;
  mutable std::vector<ReplicaState> spare_finals_;
  uint64_t attempted_ = 0;
  uint64_t rejected_ = 0;
  size_t sync_passes_ = 0;
  bool converged_ = false;
};

}  // namespace gmpx::soak
