// Tests for the realistic timeout failure detectors (F1 "observation"):
// detection after real crashes, no false suspicion under benign delay,
// S1 isolation of ping traffic, end-to-end exclusion without the oracle,
// and native (injection-free) resolution of false-suspicion standoffs.
// The detector-agnostic cases run under both models of the shared
// fd::TimeoutDetector driver, fixed heartbeat and adaptive φ.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fd/phi.hpp"
#include "harness/cluster.hpp"
#include "scenario/executor.hpp"
#include "sim/world.hpp"

using namespace gmpx;
using harness::Cluster;
using harness::ClusterOptions;

namespace {

ClusterOptions hb_opts(size_t n, uint64_t seed,
                       fd::DetectorKind kind = fd::DetectorKind::kHeartbeat) {
  ClusterOptions o;
  o.n = n;
  o.seed = seed;
  o.detector = kind;  // timeouts are the only detector
  o.heartbeat.interval = 100;
  o.heartbeat.timeout = 500;
  o.phi.interval = 100;
  return o;
}

class TimeoutFd : public ::testing::TestWithParam<fd::DetectorKind> {
 protected:
  ClusterOptions opts(size_t n, uint64_t seed) const { return hb_opts(n, seed, GetParam()); }
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(Detectors, TimeoutFd,
                         ::testing::Values(fd::DetectorKind::kHeartbeat, fd::DetectorKind::kPhi),
                         [](const ::testing::TestParamInfo<fd::DetectorKind>& info) {
                           return std::string(fd::to_string(info.param));
                         });

TEST_P(TimeoutFd, CrashIsDetectedAndExcluded) {
  Cluster c(opts(4, 2001));
  c.start();
  c.crash_at(2000, 3);
  c.run_until(10'000);
  for (ProcessId p : {0u, 1u, 2u}) {
    EXPECT_FALSE(c.node(p).has_quit()) << "p" << p;
    EXPECT_EQ(c.node(p).view().sorted_members(), (std::vector<ProcessId>{0, 1, 2}));
  }
  auto res = c.check();
  EXPECT_TRUE(res.ok()) << res.message() << c.recorder().dump();
}

TEST_P(TimeoutFd, NoFalseSuspicionsUnderBenignDelay) {
  // Max network delay 16 << timeout 500: a quiet but healthy group must
  // never suspect anyone.
  Cluster c(opts(6, 2003));
  c.start();
  c.run_until(20'000);
  for (ProcessId p = 0; p < 6; ++p) {
    EXPECT_FALSE(c.node(p).has_quit());
    EXPECT_EQ(c.node(p).view().version(), 0u);
    EXPECT_TRUE(c.node(p).suspected().empty());
  }
}

TEST_P(TimeoutFd, MgrCrashTriggersReconfiguration) {
  Cluster c(opts(5, 2005));
  c.start();
  c.crash_at(2000, 0);
  c.run_until(15'000);
  EXPECT_TRUE(c.node(1).is_mgr());
  for (ProcessId p : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(c.node(p).view().sorted_members(), (std::vector<ProcessId>{1, 2, 3, 4}));
  }
  auto res = c.check();
  EXPECT_TRUE(res.ok()) << res.message() << c.recorder().dump();
}

// The false-suspicion cases stay heartbeat-only: φ adapts to slow links by
// design, so the same silences need not make it suspect anyone.

TEST(Heartbeat, SlowLinkCausesFalseSuspicionButStaysSafe) {
  // A partition longer than the timeout makes both sides suspect each
  // other; with a 1/5 split the majority side excludes the minority member
  // and the minority member (isolated, below majority) cannot diverge.
  Cluster c(hb_opts(6, 2007));
  c.start();
  c.world().at(2000, [&c] { c.world().partition({5}, {0, 1, 2, 3, 4}); });
  c.run_until(8'000);
  c.world().heal_partition();
  c.run_until(20'000);
  trace::CheckOptions o;
  o.check_liveness = false;  // p5's fate depends on healing timing
  auto res = c.check(o);
  EXPECT_TRUE(res.ok()) << res.message() << c.recorder().dump();
  // The majority side agrees p5 is out.
  for (ProcessId p : {0u, 1u, 2u, 3u, 4u}) {
    if (c.world().crashed(p)) continue;
    EXPECT_FALSE(c.node(p).view().contains(5)) << "p" << p;
  }
}

TEST(Heartbeat, FalseSuspicionStandoffResolvesNatively) {
  // A one-sided false suspicion of the Mgr is the classic wedge: the Mgr
  // awaits "OK(p2) or faulty(p2)" while p2 (having isolated the Mgr) will
  // never answer.  Under the oracle the executor must inject the
  // counter-suspicion; under the heartbeat FD the Mgr stops hearing from
  // p2 (S1: p2 neither pings nor acks an accused peer) and times it out —
  // the standoff resolves with zero executor involvement.
  scenario::Schedule s;
  s.n = 5;
  s.seed = 4242;
  scenario::ScheduleEvent e{scenario::EventType::kSuspect, 1000, /*target=*/0};
  e.observer = 2;
  s.events.push_back(e);

  scenario::ExecOptions exec;
  exec.fd = fd::DetectorKind::kHeartbeat;
  scenario::ExecResult r = scenario::execute(s, exec);
  EXPECT_TRUE(r.quiesced);
  EXPECT_TRUE(r.ok()) << r.message();
  EXPECT_GT(r.fd_messages, 0u);
  // The bilateral rule ran its course: the group moved past the standoff,
  // so the final view lost at least one of the two parties.
  EXPECT_LT(r.final_view_size, 5u);
}

TEST(Heartbeat, ScriptedSuspectOfNonMgrResolvesNatively) {
  // Same, with roles flipped: a member falsely suspects a non-coordinator
  // peer.  The accused keeps answering the Mgr, the accuser stops pinging
  // it, and mutual timeout lets the group exclude one side without any
  // injected counter-suspicion.
  scenario::Schedule s;
  s.n = 5;
  s.seed = 99;
  scenario::ScheduleEvent e{scenario::EventType::kSuspect, 1500, /*target=*/3};
  e.observer = 1;
  s.events.push_back(e);

  scenario::ExecOptions exec;
  exec.fd = fd::DetectorKind::kHeartbeat;
  scenario::ExecResult r = scenario::execute(s, exec);
  EXPECT_TRUE(r.quiesced);
  EXPECT_TRUE(r.ok()) << r.message();
  EXPECT_LT(r.final_view_size, 5u);
}

TEST_P(TimeoutFd, PingTimersSelfCancelSoDeadGroupsDrain) {
  // Once every process has quit, no heartbeat timer may keep re-arming:
  // the event queue must drain completely (run_until_idle, not just
  // protocol-idle).  Three real crashes leave p0 below majority; its own
  // timeouts make it quit, its monitor cancels the ping timer, and the
  // world goes fully quiet.
  Cluster c(opts(4, 2011));
  c.start();
  c.crash_at(1000, 1);
  c.crash_at(1100, 2);
  c.crash_at(1200, 3);
  ASSERT_TRUE(c.run_to_quiescence(5'000'000)) << "heartbeat timers leaked";
  EXPECT_TRUE(c.node(0).has_quit());  // lost majority after timing the rest out
}

TEST_P(TimeoutFd, StaggeredCrashesConverge) {
  Cluster c(opts(7, 2009));
  c.start();
  c.crash_at(2000, 6);
  c.crash_at(6000, 0);
  c.crash_at(10'000, 3);
  c.run_until(25'000);
  for (ProcessId p : {1u, 2u, 4u, 5u}) {
    EXPECT_FALSE(c.node(p).has_quit()) << "p" << p << "\n" << c.recorder().dump();
    EXPECT_EQ(c.node(p).view().sorted_members(), (std::vector<ProcessId>{1, 2, 4, 5}));
  }
  auto res = c.check();
  EXPECT_TRUE(res.ok()) << res.message() << c.recorder().dump();
}

TEST(Phi, SelfArmedMonitorExcludesCrashAndDrainsDeadGroup) {
  // PhiFd stand-alone over SimWorld, without Cluster's batched wave: each
  // monitor arms its own ping timer, as examples/quickstart.cpp does with
  // HeartbeatFd.  A crash must be excluded; once the group is dead every
  // self-armed timer must stop re-arming so the queue drains.
  constexpr size_t kN = 5;
  sim::SimWorld world(/*seed=*/2013);
  std::vector<ProcessId> everyone;
  for (ProcessId p = 0; p < kN; ++p) everyone.push_back(p);
  fd::PhiOptions po;
  po.interval = 100;
  std::vector<std::unique_ptr<gmp::GmpNode>> nodes;
  std::vector<std::unique_ptr<fd::PhiFd>> monitors;
  for (ProcessId p = 0; p < kN; ++p) {
    gmp::Config cfg;
    cfg.initial_members = everyone;
    nodes.push_back(std::make_unique<gmp::GmpNode>(p, cfg));
    monitors.push_back(std::make_unique<fd::PhiFd>(nodes.back().get(), po));
    world.add_actor(p, monitors.back().get());
  }
  world.start();
  world.crash_at(2000, 3);
  world.run_until(15'000);
  for (ProcessId p : {0u, 1u, 2u, 4u}) {
    EXPECT_FALSE(nodes[p]->has_quit()) << "p" << p;
    EXPECT_EQ(nodes[p]->view().sorted_members(), (std::vector<ProcessId>{0, 1, 2, 4}));
  }
  // p0 is left alone below majority: it times the rest out, quits, and its
  // monitor stops pinging — nothing may keep re-arming.
  world.crash_at(16'000, 1);
  world.crash_at(16'100, 2);
  world.crash_at(16'200, 4);
  ASSERT_TRUE(world.run_until_idle(5'000'000)) << "self-armed phi timers leaked";
  EXPECT_TRUE(nodes[0]->has_quit());
}
