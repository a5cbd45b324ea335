// Application-level oracles for soak runs, checked alongside GMP-1..5.
//
// The membership checkers (trace/checker.hpp) judge the *service*; these
// judge what applications built on it actually experienced.  Clause tags
// follow the GMP convention so CheckResult::has_clause works unchanged:
//
//   APP-R1  single writer per view: every registry write id is committed
//           exactly once, by a committer whose view matches the id's view
//           word, and no two processes commit writes in the same view
//           (the registry's primary-per-view contract, implied by GMP-2);
//   APP-R2  no phantom state: every applied or read write id was really
//           committed (for that key), and per-replica per-key applies are
//           strictly monotone (the LWW merge never regresses);
//   APP-R3  convergence: after the run quiesced and the anti-entropy
//           rounds ran, every surviving member holds the same registry
//           contents and the same work-queue table (terminal check);
//   APP-R4  bounded staleness: a read served by a replica that shares the
//           writer's view, over a calm network, at least `staleness_bound`
//           ticks after both the commit and the replica's view install,
//           must observe that write (or a newer one);
//   APP-Q1  no lost work item: a submitted item known to at least one
//           survivor eventually completes (terminal check) — items wholly
//           confined to crashed processes are the client's resubmit
//           responsibility, exactly the at-least-once contract;
//   APP-Q2  no double claim: two workers never hold the same item within
//           one view (cross-view reassignment after a crash is legal —
//           that is the at-least-once part).
//
// Terminal checks (APP-R3, APP-Q1) are liveness-flavoured and only
// asserted when the harness says the run quiesced with GMP-5 preconditions
// (mirrors how check_gmp gates GMP-5).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "app/app_trace.hpp"
#include "scenario/schedule.hpp"
#include "trace/checker.hpp"
#include "trace/recorder.hpp"

namespace gmpx::soak {

/// One surviving member's final application state, captured after the
/// post-quiescence sync rounds (runner fills these; negative tests
/// fabricate them).
struct ReplicaState {
  ProcessId id = kNilId;
  std::vector<std::pair<uint32_t, uint64_t>> registry;  ///< key -> wid, sorted
  std::vector<std::pair<uint64_t, uint8_t>> queue;      ///< tid -> state, sorted
};

struct AppCheckOptions {
  /// Assert the terminal clauses (APP-R3 convergence, APP-Q1 completion).
  /// The runner sets this iff the run quiesced and GMP-5 was asserted.
  bool check_terminal = true;
  /// APP-R4 visibility bound (ticks), over calm network spans only.
  Tick staleness_bound = 64;
};

/// Judge one soak run.  `schedule` supplies the fault spans APP-R4 must
/// treat as non-calm; `survivors` are the live admitted members of the
/// frontier view, in ascending id order; `finals` their captured
/// application states.
trace::CheckResult check_app(const app::AppTrace& app_trace, const trace::Recorder& rec,
                             const scenario::Schedule& schedule,
                             const std::vector<ProcessId>& survivors,
                             const std::vector<ReplicaState>& finals,
                             const AppCheckOptions& opts = {});

}  // namespace gmpx::soak
