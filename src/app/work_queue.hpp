// Replicated work queue on the membership service.
//
// The paper's "subdivide a computation" group pattern: clients submit
// work items to the group coordinator, the coordinator assigns each item
// to a member, the member executes it and reports completion.  The task
// table is replicated at every member so a coordinator failover (the new
// Mgr of the next view) can pick up dispatching without losing items —
// the soak oracles assert exactly that (no lost item, APP-Q1) and that
// assignment stays single-claimed within a view (APP-Q2).
//
// Replication is merge-monotone like the registry: a task's lifecycle
// state only moves forward (submitted < assigned < done) and competing
// assignments are ordered by an assignment stamp ((view << 32) | per-view
// seq), so duplicated/reordered traffic is harmless and lost traffic is
// repaired by idempotent full-table syncs.  Execution is at-least-once by
// design: a reassigned item may run on two workers across *different*
// views (that is the crash-failover contract); what is forbidden is two
// workers claimed in the *same* view.
//
// Wire protocol (string payloads over group::ProcessGroup):
//   "s <tid>"                          submitted item, replicated at accept
//   "a <tid> <worker> <astamp>"        assignment
//   "d <tid>"                          completion
//   "Q <tid>:<state>:<worker>:<astamp> ..."  full-table sync
// Outgoing payloads are built in one reused buffer and incoming ones are
// parsed in place from the handler's view (app/text_fields.hpp); the text
// format is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "app/app_trace.hpp"
#include "common/flat_set.hpp"
#include "common/runtime.hpp"
#include "group/process_group.hpp"

namespace gmpx::app {

/// One replicated task record.  `state` is the monotone lifecycle value;
/// merge never moves it backwards.
struct TaskRecord {
  uint8_t state = 0;  ///< 1 = submitted, 2 = assigned, 3 = done
  ProcessId worker = kNilId;
  uint64_t astamp = 0;  ///< assignment stamp; higher wins on merge
  bool executed_here = false;   ///< this member ran the item (at-least-once)
  bool done_recorded = false;   ///< kTaskDone traced here (once per member)
};

class WorkQueue {
 public:
  using ContextProvider = std::function<Context*()>;

  WorkQueue(group::ProcessGroup* group, AppTrace* trace, ContextProvider ctx)
      : group_(group), trace_(trace), ctx_(std::move(ctx)) {}

  /// Client submit routed to this member.  Accepted only at the
  /// coordinator; assigns the fresh item immediately.  Returns false
  /// elsewhere (counted as unavailable by the soak driver).
  bool client_submit();

  /// Feed one delivered group payload (read during the call only); true
  /// when consumed.
  bool handle(ProcessId from, std::string_view payload);

  /// View-change hook: the (possibly new) coordinator reclaims items held
  /// by departed workers and re-dispatches.  Wire to the shared
  /// ProcessGroup's on_view_change.
  void on_view();

  /// Coordinator pass: assign submitted items, reclaim+reassign items
  /// whose worker left the view.  No-op elsewhere.
  void dispatch();

  /// Anti-entropy: broadcast the full task table, then dispatch/execute
  /// anything the merge unblocked locally.
  void sync_round();

  /// True when every known task reached done.
  bool all_done() const;

  /// The replicated task table, ascending by tid.
  const FlatMap<uint64_t, TaskRecord>& tasks() const { return tasks_; }

 private:
  /// Merge one remote observation into the local table (monotone).
  void merge(Context& ctx, uint64_t tid, uint8_t state, ProcessId worker, uint64_t astamp);
  /// Run items assigned to this member that it has not executed yet.
  void maybe_execute(Context& ctx);
  uint64_t next_stamp(ViewVersion v, uint32_t& seq, ViewVersion& seq_view);

  group::ProcessGroup* group_;
  AppTrace* trace_;
  ContextProvider ctx_;
  FlatMap<uint64_t, TaskRecord> tasks_;
  std::string out_;  ///< outgoing payload, rebuilt per send (capacity reused)
  uint32_t tseq_ = 0;  ///< per-view submit sequence (coordinator only)
  ViewVersion tseq_view_ = 0;
  uint32_t aseq_ = 0;  ///< per-view assignment sequence (coordinator only)
  ViewVersion aseq_view_ = 0;
  size_t rr_ = 0;  ///< round-robin cursor over assignment candidates
  std::vector<ProcessId> cand_;  ///< dispatch scratch: assignment candidates
};

}  // namespace gmpx::app
