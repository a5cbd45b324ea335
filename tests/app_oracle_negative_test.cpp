// Negative coverage for soak::check_app: each application oracle clause
// (APP-R1..R4, APP-Q1/Q2) gets a hand-crafted violating trace, and the
// test asserts the checker flags exactly that clause.  The positive
// direction — clean soak runs produce no violations — is exercised by
// soak_test and the soak_smoke sweep; these tests prove the oracles can
// actually *fire* (a checker that never fires validates nothing).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "app/app_trace.hpp"
#include "scenario/schedule.hpp"
#include "soak/app_oracle.hpp"
#include "trace/recorder.hpp"

using namespace gmpx;
using app::AppEventKind;
using app::AppTrace;
using app::make_app_id;
using soak::AppCheckOptions;
using soak::ReplicaState;
using trace::CheckResult;
using trace::Recorder;

namespace {

/// Asserts `r` violates `clause` and nothing else.
void expect_only(const CheckResult& r, const std::string& clause) {
  ASSERT_FALSE(r.ok()) << "expected a " << clause << " violation";
  EXPECT_EQ(r.clauses(), std::vector<std::string>{clause}) << r.message();
}

/// Fixture: membership {0,1,2} commonly known from tick 0 (so view 0
/// installs need no recorded event), an empty (calm) schedule, and all
/// three members surviving.  Tests append app events and judge.
struct Base {
  Base() { rec.set_initial_membership({0, 1, 2}); }

  CheckResult judge(const AppCheckOptions& opts = {}) {
    return soak::check_app(app, rec, sched, survivors, finals, opts);
  }

  AppTrace app;
  Recorder rec;
  scenario::Schedule sched;
  std::vector<ProcessId> survivors{0, 1, 2};
  std::vector<ReplicaState> finals;
};

AppEventKind constexpr kCommit = AppEventKind::kWriteCommit;

}  // namespace

// ---------------------------------------------------------------------------
// Positive control: a tiny lawful run is clean under every clause.
// ---------------------------------------------------------------------------

TEST(AppOracleNegative, CleanRunPasses) {
  Base b;
  const uint64_t wid = make_app_id(0, 1);
  auto& c = b.app.record(10, kCommit, 0);
  c.id = wid;
  c.key = 7;
  c.view = 0;
  for (ProcessId p : {0u, 1u, 2u}) {
    auto& a = b.app.record(12, AppEventKind::kApply, p);
    a.id = wid;
    a.key = 7;
    a.view = 0;
  }
  auto& rd = b.app.record(200, AppEventKind::kRead, 1);
  rd.id = wid;
  rd.key = 7;
  rd.view = 0;
  for (ProcessId p : {0u, 1u, 2u}) {
    ReplicaState st;
    st.id = p;
    st.registry = {{7, wid}};
    b.finals.push_back(st);
  }
  const CheckResult r = b.judge();
  EXPECT_TRUE(r.ok()) << r.message();
}

// ---------------------------------------------------------------------------
// APP-R1: single writer per view
// ---------------------------------------------------------------------------

TEST(AppOracleNegative, R1WriteIdCommittedTwice) {
  Base b;
  const uint64_t wid = make_app_id(0, 1);
  for (ProcessId p : {0u, 1u}) {
    auto& c = b.app.record(10, kCommit, p);
    c.id = wid;
    c.key = 3;
    c.view = 0;
  }
  expect_only(b.judge(), "APP-R1");
}

TEST(AppOracleNegative, R1TwoWritersInOneView) {
  Base b;
  for (uint32_t seq : {1u, 2u}) {
    auto& c = b.app.record(10, kCommit, seq - 1);  // p0 then p1, both view 0
    c.id = make_app_id(0, seq);
    c.key = 3;
    c.view = 0;
  }
  expect_only(b.judge(), "APP-R1");
}

TEST(AppOracleNegative, R1CommitViewMismatchesIdView) {
  Base b;
  auto& c = b.app.record(10, kCommit, 0);
  c.id = make_app_id(2, 1);  // id claims view 2
  c.key = 3;
  c.view = 0;  // but the committer sat in view 0
  expect_only(b.judge(), "APP-R1");
}

// ---------------------------------------------------------------------------
// APP-R2: no phantom state, monotone applies
// ---------------------------------------------------------------------------

TEST(AppOracleNegative, R2PhantomApply) {
  Base b;
  auto& a = b.app.record(10, AppEventKind::kApply, 1);
  a.id = make_app_id(0, 9);  // never committed
  a.key = 4;
  expect_only(b.judge(), "APP-R2");
}

TEST(AppOracleNegative, R2NonMonotoneApply) {
  Base b;
  for (uint32_t seq : {1u, 2u}) {
    auto& c = b.app.record(10, kCommit, 0);
    c.id = make_app_id(0, seq);
    c.key = 4;
    c.view = 0;
  }
  // p1 applies the newer write, then regresses to the older one.
  for (uint32_t seq : {2u, 1u}) {
    auto& a = b.app.record(12, AppEventKind::kApply, 1);
    a.id = make_app_id(0, seq);
    a.key = 4;
  }
  expect_only(b.judge(), "APP-R2");
}

TEST(AppOracleNegative, R2PhantomRead) {
  Base b;
  auto& rd = b.app.record(10, AppEventKind::kRead, 2);
  rd.id = make_app_id(0, 5);  // observed a write nobody committed
  rd.key = 4;
  rd.view = 0;
  expect_only(b.judge(), "APP-R2");
}

// ---------------------------------------------------------------------------
// APP-R3: survivor convergence (terminal)
// ---------------------------------------------------------------------------

TEST(AppOracleNegative, R3RegistryDivergence) {
  Base b;
  const uint64_t wid = make_app_id(0, 1);
  auto& c = b.app.record(10, kCommit, 0);
  c.id = wid;
  c.key = 1;
  c.view = 0;
  ReplicaState s0;
  s0.id = 0;
  s0.registry = {{1, wid}};
  ReplicaState s1;
  s1.id = 1;  // never applied the write
  b.finals = {s0, s1};
  expect_only(b.judge(), "APP-R3");
}

TEST(AppOracleNegative, R3GatedOffWhenNotTerminal) {
  Base b;
  ReplicaState s0;
  s0.id = 0;
  s0.registry = {{1, make_app_id(0, 1)}};
  ReplicaState s1;
  s1.id = 1;
  b.finals = {s0, s1};
  auto& c = b.app.record(10, kCommit, 0);
  c.id = make_app_id(0, 1);
  c.key = 1;
  c.view = 0;
  AppCheckOptions opts;
  opts.check_terminal = false;  // stalled run: safety clauses only
  const CheckResult r = b.judge(opts);
  EXPECT_TRUE(r.ok()) << r.message();
}

// ---------------------------------------------------------------------------
// APP-R4: bounded staleness
// ---------------------------------------------------------------------------

TEST(AppOracleNegative, R4StaleReadBeyondBound) {
  Base b;
  const uint64_t wid = make_app_id(0, 1);
  auto& c = b.app.record(10, kCommit, 0);
  c.id = wid;
  c.key = 6;
  c.view = 0;
  // Same-view replica, calm network, 100 ticks after the commit (bound 64)
  // — yet the read observes "never written".
  auto& rd = b.app.record(110, AppEventKind::kRead, 1);
  rd.id = 0;
  rd.key = 6;
  rd.view = 0;
  expect_only(b.judge(), "APP-R4");
}

TEST(AppOracleNegative, R4ReadInsideBoundIsLegal) {
  Base b;
  auto& c = b.app.record(10, kCommit, 0);
  c.id = make_app_id(0, 1);
  c.key = 6;
  c.view = 0;
  auto& rd = b.app.record(40, AppEventKind::kRead, 1);  // 30 < 64: still racing
  rd.id = 0;
  rd.key = 6;
  rd.view = 0;
  const CheckResult r = b.judge();
  EXPECT_TRUE(r.ok()) << r.message();
}

TEST(AppOracleNegative, R4ExcusedDuringScheduledDisturbance) {
  Base b;
  auto& c = b.app.record(10, kCommit, 0);
  c.id = make_app_id(0, 1);
  c.key = 6;
  c.view = 0;
  auto& rd = b.app.record(110, AppEventKind::kRead, 1);
  rd.id = 0;
  rd.key = 6;
  rd.view = 0;
  // A delay storm spanning the commit..read window voids the bound.
  scenario::ScheduleEvent storm;
  storm.type = scenario::EventType::kDelayStorm;
  storm.at = 5;
  storm.duration = 200;
  b.sched.events.push_back(storm);
  const CheckResult r = b.judge();
  EXPECT_TRUE(r.ok()) << r.message();
}

// ---------------------------------------------------------------------------
// APP-Q1: no lost work item (terminal)
// ---------------------------------------------------------------------------

TEST(AppOracleNegative, Q1LostItemKnownToSurvivor) {
  Base b;
  const uint64_t tid = make_app_id(0, 1);
  auto& s = b.app.record(10, AppEventKind::kSubmit, 0);
  s.id = tid;
  s.view = 0;
  auto& m = b.app.record(12, AppEventKind::kMirror, 1);  // survivor p1 knows it
  m.id = tid;
  // ... and it is never executed or completed.
  expect_only(b.judge(), "APP-Q1");
}

TEST(AppOracleNegative, Q1StuckItemInFinalState) {
  Base b;
  const uint64_t tid = make_app_id(0, 1);
  auto& s = b.app.record(10, AppEventKind::kSubmit, 0);
  s.id = tid;
  s.view = 0;
  auto& d = b.app.record(20, AppEventKind::kTaskDone, 0);
  d.id = tid;
  ReplicaState st;
  st.id = 0;
  st.queue = {{tid, 2}};  // trace says done, final table says assigned
  b.finals = {st};
  expect_only(b.judge(), "APP-Q1");
}

TEST(AppOracleNegative, Q1ItemConfinedToCrashedHoldersIsExcused) {
  Base b;
  b.survivors = {1, 2};  // p0 (the only process that ever saw it) died
  const uint64_t tid = make_app_id(0, 1);
  auto& s = b.app.record(10, AppEventKind::kSubmit, 0);
  s.id = tid;
  s.view = 0;
  const CheckResult r = b.judge();
  EXPECT_TRUE(r.ok()) << r.message();  // at-least-once: client resubmits
}

// ---------------------------------------------------------------------------
// APP-Q2: no double claim
// ---------------------------------------------------------------------------

TEST(AppOracleNegative, Q2DoubleClaimSameView) {
  Base b;
  const uint64_t tid = make_app_id(0, 1);
  auto& s = b.app.record(10, AppEventKind::kSubmit, 0);
  s.id = tid;
  s.view = 0;
  for (ProcessId w : {1u, 2u}) {
    auto& a = b.app.record(12, AppEventKind::kAssign, 0);
    a.id = tid;
    a.peer = w;
    a.view = 0;
  }
  auto& d = b.app.record(20, AppEventKind::kTaskDone, 0);
  d.id = tid;
  auto& d1 = b.app.record(20, AppEventKind::kTaskDone, 1);
  d1.id = tid;
  auto& d2 = b.app.record(20, AppEventKind::kTaskDone, 2);
  d2.id = tid;
  expect_only(b.judge(), "APP-Q2");
}

TEST(AppOracleNegative, Q2CrossViewReassignmentIsLegal) {
  Base b;
  const uint64_t tid = make_app_id(0, 1);
  auto& s = b.app.record(10, AppEventKind::kSubmit, 0);
  s.id = tid;
  s.view = 0;
  auto& a1 = b.app.record(12, AppEventKind::kAssign, 0);
  a1.id = tid;
  a1.peer = 2;
  a1.view = 0;
  // Worker 2 departs; the view advances; the coordinator reclaims and
  // reassigns — the at-least-once path, not a violation.
  auto& rc = b.app.record(30, AppEventKind::kReclaim, 0);
  rc.id = tid;
  rc.peer = 2;
  auto& a2 = b.app.record(32, AppEventKind::kAssign, 0);
  a2.id = tid;
  a2.peer = 1;
  a2.view = 1;
  auto& d = b.app.record(40, AppEventKind::kTaskDone, 0);
  d.id = tid;
  auto& d1 = b.app.record(40, AppEventKind::kTaskDone, 1);
  d1.id = tid;
  b.survivors = {0, 1};
  const CheckResult r = b.judge();
  EXPECT_TRUE(r.ok()) << r.message();
}

TEST(AppOracleNegative, Q2DuplicateSubmitId) {
  Base b;
  const uint64_t tid = make_app_id(0, 1);
  for (ProcessId p : {0u, 1u}) {
    auto& s = b.app.record(10, AppEventKind::kSubmit, p);
    s.id = tid;
    s.view = 0;
  }
  auto& d = b.app.record(20, AppEventKind::kTaskDone, 0);
  d.id = tid;
  for (ProcessId p : {1u, 2u}) {
    auto& dd = b.app.record(20, AppEventKind::kTaskDone, p);
    dd.id = tid;
  }
  expect_only(b.judge(), "APP-Q2");
}

// ---------------------------------------------------------------------------
// Diagnostics pin: one trace trips APP-R1, R2, R4, Q1 and Q2 at least twice
// each, and the whole violation list is asserted verbatim — wording, the
// order of clauses, and the order within each clause (event order, except
// APP-Q1's "never done" lines, which come out in tid order although the
// submits below are logged in reverse tid order).
// ---------------------------------------------------------------------------

TEST(AppOracleNegative, MixedTraceDiagnosticsArePinned) {
  Base b;
  auto commit = [&](Tick t, ProcessId p, ViewVersion id_view, uint32_t seq, uint32_t key,
                    ViewVersion view) {
    auto& c = b.app.record(t, kCommit, p);
    c.id = make_app_id(id_view, seq);
    c.key = key;
    c.view = view;
  };
  auto apply = [&](Tick t, ProcessId p, uint32_t seq, uint32_t key) {
    auto& a = b.app.record(t, AppEventKind::kApply, p);
    a.id = make_app_id(0, seq);
    a.key = key;
  };
  auto read = [&](Tick t, ProcessId p, uint64_t id, uint32_t key) {
    auto& rd = b.app.record(t, AppEventKind::kRead, p);
    rd.id = id;
    rd.key = key;
    rd.view = 0;
  };
  auto queue = [&](Tick t, AppEventKind k, ProcessId p, uint32_t seq, ProcessId peer) {
    auto& q = b.app.record(t, k, p);
    q.id = make_app_id(0, seq);
    q.peer = peer;
    q.view = 0;
  };

  // APP-R1: a double commit, a view-word mismatch, two writers in view 0.
  commit(10, 0, 0, 1, 1, 0);
  commit(11, 1, 0, 1, 1, 0);
  commit(12, 0, 2, 1, 3, 0);
  commit(13, 1, 0, 2, 1, 0);
  commit(14, 2, 0, 3, 2, 0);
  // APP-R2: phantom applies, a regressing apply, a phantom read.
  apply(20, 1, 9, 4);
  apply(21, 2, 2, 1);
  apply(22, 2, 1, 1);
  apply(23, 0, 3, 1);  // committed for key 2, applied as key 1
  read(24, 2, make_app_id(0, 7), 5);
  // APP-R4: stale reads well past the bound, calm network, view 0.
  read(200, 1, 0, 1);
  read(300, 2, make_app_id(0, 1), 1);
  read(310, 0, 0, 2);
  // APP-Q2: duplicate submits and double claims within view 0.
  queue(400, AppEventKind::kSubmit, 0, 1, kNilId);
  queue(401, AppEventKind::kSubmit, 1, 1, kNilId);
  queue(402, AppEventKind::kSubmit, 0, 2, kNilId);
  queue(403, AppEventKind::kAssign, 0, 2, 1);
  queue(404, AppEventKind::kAssign, 0, 2, 2);
  queue(405, AppEventKind::kSubmit, 0, 2, kNilId);
  queue(406, AppEventKind::kAssign, 0, 1, 2);
  queue(407, AppEventKind::kAssign, 0, 1, 1);
  for (uint32_t seq : {1u, 2u}) queue(410, AppEventKind::kTaskDone, 0, seq, kNilId);
  // APP-Q1: items known to survivors but never done, logged out of tid
  // order, plus items stuck in the survivors' final tables.
  queue(500, AppEventKind::kSubmit, 0, 6, kNilId);
  queue(501, AppEventKind::kMirror, 2, 6, kNilId);
  queue(502, AppEventKind::kSubmit, 1, 4, kNilId);
  queue(503, AppEventKind::kSubmit, 0, 5, kNilId);
  for (ProcessId p : {0u, 1u}) {
    ReplicaState st;
    st.id = p;
    st.queue = {{make_app_id(0, 4), 1}, {make_app_id(0, 5), 2}};
    b.finals.push_back(st);
  }

  const std::vector<std::string> expected = {
      "APP-R1: write id 0.1 committed twice (p0 then p1)",
      "APP-R1: p0 committed 2.1 while in view 0",
      "APP-R1: two writers in view 0 (p0 and p1)",
      "APP-R1: two writers in view 0 (p0 and p2)",
      "APP-R2: p1 applied phantom write 0.9 for key 4",
      "APP-R2: p2 applied non-monotone write 0.1 after 0.2 for key 1",
      "APP-R2: p0 applied phantom write 0.3 for key 1",
      "APP-R2: p2 read phantom write 0.7 for key 5",
      "APP-R4: p1 served key 1 = 0.0 at t=200 but 0.2 committed in the same view at t=13 (bound 64)",
      "APP-R4: p2 served key 1 = 0.1 at t=300 but 0.2 committed in the same view at t=13 (bound 64)",
      "APP-R4: p0 served key 2 = 0.0 at t=310 but 0.3 committed in the same view at t=14 (bound 64)",
      "APP-Q2: work item 0.1 submitted twice",
      "APP-Q2: work item 0.2 submitted twice",
      "APP-Q2: work item 0.2 claimed by p1 and p2 in view 0",
      "APP-Q2: work item 0.1 claimed by p2 and p1 in view 0",
      "APP-Q1: work item 0.4 (submitted by p1) known to a survivor but never done",
      "APP-Q1: work item 0.5 (submitted by p0) known to a survivor but never done",
      "APP-Q1: work item 0.6 (submitted by p0) known to a survivor but never done",
      "APP-Q1: work item 0.4 stuck in state 1 at survivor p0",
      "APP-Q1: work item 0.5 stuck in state 2 at survivor p0",
      "APP-Q1: work item 0.4 stuck in state 1 at survivor p1",
      "APP-Q1: work item 0.5 stuck in state 2 at survivor p1",
  };
  EXPECT_EQ(b.judge().violations, expected);
}
