#pragma once
// Per-run application host: owns one (ProcessGroup, Registry, WorkQueue)
// triple per member plus the shared app trace, routes client ops, and
// drives the post-quiescence anti-entropy rounds.
//
// Extracted from the soak runner so the GroupMux can attach the same
// registry/work-queue session traffic to every multiplexed group: one host
// per group slot, wired into the executor through the same on_pre_start /
// on_quiesced hooks the single-group soak path uses.  Behaviour is owned
// here; run_soak() and the mux differ only in who drives the executor.

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
  /// `w` and `opts` are captured by reference and must outlive the host
  /// (the workload's ops are fired from scripted world events).
  SoakHost(const Workload& w, const SoakOptions& opts) : w_(&w), opts_(&opts) {}

  /// Build per-node app instances and script the client ops; the executor
  /// calls this via ExecOptions::on_pre_start.
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
  bool converged_flag() const { return converged_; }

 private:
  /// One member's apps.  Heap-held, so the group's address (borrowed by
  /// the apps and by its own handlers) is stable.
  struct PerNode {
    PerNode(gmp::GmpNode* node, app::AppTrace* trace, const app::Registry::ContextProvider& ctx)
        : group(node), registry(&group, trace, ctx), queue(&group, trace, ctx) {}
    group::ProcessGroup group;
    app::Registry registry;
    app::WorkQueue queue;
  };

  void make_node(ProcessId id);

  /// A member that can currently serve client traffic.
  bool serving(ProcessId id) const;

  void run_op(const WorkloadOp& op);

  /// Survivors hold identical registry and queue state with no open work.
  bool converged() const;

  const Workload* w_;
  const SoakOptions* opts_;
  harness::Cluster* cluster_ = nullptr;
  app::AppTrace trace_;
  /// Apps per member, indexed by id (ids are small; joiners extend the
  /// tail).  Never iterated: ids_ fixes every walk's order.
  std::vector<std::unique_ptr<PerNode>> nodes_;
  /// The members attach() built apps for, ascending.  Client routing, sync
  /// rounds and survivors() walk members in this order; a process the
  /// cluster gains later has no apps, so it never serves and is left out.
  std::vector<ProcessId> ids_;
  std::vector<ProcessId> live_;  ///< run_op scratch: replicas serving a read
  uint64_t attempted_ = 0;
  uint64_t rejected_ = 0;
  size_t sync_passes_ = 0;
  bool converged_ = false;
};

}  // namespace gmpx::soak
