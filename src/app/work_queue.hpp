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
//
// Per-message work scales with the items a message touches, not with the
// table: two ascending tid sets index the replicated table.  `open_` holds
// every item not yet done (what dispatch() visits; all_done() is its
// emptiness) and `mine_` every item assigned to this member and not yet
// executed here (what maybe_execute() visits).  They mirror `tasks_`
// exactly: every write to a record re-files its tid (refile()), so a walk
// of either set visits, in tid order, the records a full-table walk with
// the same filter would.  A 'Q' table merges in one forward pass against
// the sorted local table (sync_round() sends tids ascending).
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

  /// Forget the previous run's table and cursors (pooled hosts): back to
  /// the constructed state, with every table and buffer keeping capacity.
  void reset();

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
  bool all_done() const { return open_.empty(); }

  /// The replicated task table, ascending by tid.
  const FlatMap<uint64_t, TaskRecord>& tasks() const { return tasks_; }

 private:
  using Table = FlatMap<uint64_t, TaskRecord>;

  static bool is_open(const TaskRecord& t) { return t.state != 3; }
  static bool is_mine(const TaskRecord& t, ProcessId self) {
    return t.state == 2 && t.worker == self && !t.executed_here;
  }
  /// Re-file `tid` in open_/mine_ after its record changed; `was_open` and
  /// `was_mine` are its memberships before the change.
  void refile(uint64_t tid, const TaskRecord& t, bool was_open, bool was_mine, ProcessId self);
  /// Merge one remote observation into the local table (monotone); `it` is
  /// the item's entry, `inserted` whether try_emplace just created it.
  void merge(Context& ctx, Table::iterator it, bool inserted, uint8_t state, ProcessId worker,
             uint64_t astamp);
  /// Run items assigned to this member that it has not executed yet.
  void maybe_execute(Context& ctx);
  uint64_t next_stamp(ViewVersion v, uint32_t& seq, ViewVersion& seq_view);

  group::ProcessGroup* group_;
  AppTrace* trace_;
  ContextProvider ctx_;
  Table tasks_;
  FlatSet<uint64_t> open_;  ///< tids whose state is not done, ascending
  FlatSet<uint64_t> mine_;  ///< tids assigned here, not yet executed, ascending
  std::string out_;  ///< outgoing payload, rebuilt per send (capacity reused)
  uint32_t tseq_ = 0;  ///< per-view submit sequence (coordinator only)
  ViewVersion tseq_view_ = 0;
  uint32_t aseq_ = 0;  ///< per-view assignment sequence (coordinator only)
  ViewVersion aseq_view_ = 0;
  size_t rr_ = 0;  ///< round-robin cursor over assignment candidates
  std::vector<ProcessId> cand_;  ///< dispatch scratch: assignment candidates
};

}  // namespace gmpx::app
