// Replicated key/value registry on the membership service.
//
// A primary-backup register store in the style the paper motivates for
// process groups: the group coordinator (the Mgr — GMP-2 guarantees there
// is exactly one per view) is the single write primary; every member keeps
// a full replica and serves reads locally.
//
// Write ids embed the committing view ((view << 32) | per-view seq, see
// app_trace.hpp), which makes the value space totally ordered across
// coordinator failovers.  Replication is merge-monotone last-writer-wins:
// a replica applies a write only when its id exceeds the one it holds, so
// duplicated or reordered replication traffic is a no-op and lost traffic
// is repairable later by an idempotent full-state sync — exactly what the
// soak harness's post-quiescence anti-entropy rounds do.  Under those
// rules the lossy fault profiles can delay convergence but never corrupt
// it, and the application oracles (soak/app_oracle.hpp) hold.
//
// Wire protocol (string payloads over group::ProcessGroup):
//   "w <key> <wid>"              one write, replicated at commit time
//   "W <key>:<wid> <key>:<wid>"  full-state sync (anti-entropy round)
// Outgoing payloads are built in one reused buffer and incoming ones are
// parsed in place from the handler's view (app/text_fields.hpp); the text
// format is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "app/app_trace.hpp"
#include "common/flat_set.hpp"
#include "common/runtime.hpp"
#include "group/process_group.hpp"

namespace gmpx::app {

class Registry {
 public:
  /// The node's execution context, or nullptr once it crashed/quit.  The
  /// sim harness backs this with SimWorld::context_of; ProcessGroup
  /// callbacks and client entry points all route sends through it.
  using ContextProvider = std::function<Context*()>;

  Registry(group::ProcessGroup* group, AppTrace* trace, ContextProvider ctx)
      : group_(group), trace_(trace), ctx_(std::move(ctx)) {}

  /// Forget the previous run's replica (pooled hosts): back to the
  /// constructed state, with the table and payload buffer keeping capacity.
  void reset();

  /// Client write request routed to this member.  Accepted only at the
  /// coordinator (the write primary); returns false anywhere else — the
  /// soak driver counts that as the service being unavailable for writes.
  bool client_write(uint32_t key);

  /// Client read served from the local replica.  Returns the observed
  /// write id (0 = key never written here).  Always served (reads don't
  /// need the primary); records the observation for the staleness oracle.
  uint64_t client_read(ProcessId client, uint32_t key);

  /// Feed one delivered group payload (read during the call only).
  /// Returns true when consumed (a registry message), false to let the
  /// caller offer it to other apps sharing the ProcessGroup.
  bool handle(ProcessId from, std::string_view payload);

  /// Anti-entropy: broadcast the full replica state.  Idempotent by the
  /// merge rule; the soak runner fires these after quiescence until every
  /// survivor's replica converges.
  void sync_round();

  /// Replica state (key -> highest applied write id, ascending keys), for
  /// convergence checks and final-state agreement.
  const FlatMap<uint32_t, uint64_t>& data() const { return data_; }

 private:
  void apply(Context& ctx, uint32_t key, uint64_t wid);

  group::ProcessGroup* group_;
  AppTrace* trace_;
  ContextProvider ctx_;
  FlatMap<uint32_t, uint64_t> data_;
  std::string out_;  ///< outgoing payload, rebuilt per send (capacity reused)
  /// Per-view write sequence (resets when the primary's view advances, so
  /// wid = (view << 32) | seq never collides across views).
  uint32_t wseq_ = 0;
  ViewVersion wseq_view_ = 0;
};

}  // namespace gmpx::app
