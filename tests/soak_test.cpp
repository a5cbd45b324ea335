// Soak harness unit coverage: restart scheduling (codec + sim admission),
// workload generation/codec determinism, the availability metric, clean
// short-horizon soak runs across all three detectors, and the joint
// schedule+workload minimizer.  The long-horizon sweep lives in the
// soak_smoke ctest entry; these tests pin the pieces in isolation.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "app/app_trace.hpp"
#include "app/registry.hpp"
#include "app/work_queue.hpp"
#include "group/process_group.hpp"
#include "harness/cluster.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "scenario/schedule.hpp"
#include "soak/availability.hpp"
#include "soak/host.hpp"
#include "soak/runner.hpp"
#include "soak/workload.hpp"
#include "trace/recorder.hpp"

using namespace gmpx;
using scenario::EventType;
using scenario::Schedule;
using scenario::ScheduleEvent;
using soak::SoakOptions;
using soak::SoakResult;
using soak::Workload;

namespace {

/// Crash p2 at 500, reborn at `restart_at` as fresh incarnation p100
/// soliciting through {0, 1} — the canonical reboot-churn shape.
Schedule crash_restart_schedule(Tick restart_at = 2000) {
  Schedule s;
  s.n = 5;
  s.seed = 7;
  ScheduleEvent crash;
  crash.type = EventType::kCrash;
  crash.at = 500;
  crash.target = 2;
  s.events.push_back(crash);
  ScheduleEvent restart;
  restart.type = EventType::kRestart;
  restart.at = restart_at;
  restart.target = 2;     // the dead incarnation
  restart.observer = 100; // the fresh one (paper S1: ids never reused)
  restart.group = {0, 1};
  s.events.push_back(restart);
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Restart: codec and sim admission
// ---------------------------------------------------------------------------

TEST(Soak, RestartScheduleCodecRoundtrip) {
  const Schedule s = crash_restart_schedule();
  const Schedule back = scenario::decode_schedule(scenario::encode_schedule(s));
  EXPECT_EQ(back, s);
}

TEST(Soak, RestartAdmissionOracle) {
  scenario::ExecOptions opts;
  const scenario::ExecResult r = scenario::execute(crash_restart_schedule(), opts);
  EXPECT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.aborted_joins, 0u);
  // {0, 1, 3, 4} plus the reborn incarnation 100.
  EXPECT_EQ(r.final_view_size, 5u);
}

TEST(Soak, RestartAdmissionHeartbeat) {
  scenario::ExecOptions opts;
  opts.fd = fd::DetectorKind::kHeartbeat;
  const scenario::ExecResult r = scenario::execute(crash_restart_schedule(4000), opts);
  EXPECT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.aborted_joins, 0u);
  EXPECT_EQ(r.final_view_size, 5u);
}

TEST(Soak, GeneratorEmitsRestartPairs) {
  scenario::GeneratorOptions gen;
  gen.restart_weight = 50;  // drown the other draws
  gen.max_events = 12;
  bool saw_restart = false;
  for (uint64_t seed = 0; seed < 20 && !saw_restart; ++seed) {
    for (const ScheduleEvent& e : scenario::generate(seed, gen).events) {
      if (e.type != EventType::kRestart) continue;
      saw_restart = true;
      EXPECT_GE(e.observer, 100u) << "restart incarnations must use fresh join ids";
      EXPECT_NE(e.observer, e.target);
    }
  }
  EXPECT_TRUE(saw_restart);
}

TEST(Soak, RestartWeightZeroKeepsHistoricalDraws) {
  // restart_weight defaults to 0 precisely so every historical (profile,
  // seed) schedule is byte-identical to what pre-soak builds generated.
  scenario::GeneratorOptions gen;
  const std::string base = scenario::encode_schedule(scenario::generate(42, gen));
  scenario::GeneratorOptions again;
  again.restart_weight = 0;
  EXPECT_EQ(scenario::encode_schedule(scenario::generate(42, again)), base);
}

// ---------------------------------------------------------------------------
// Workload generation and codec
// ---------------------------------------------------------------------------

TEST(Soak, WorkloadGenerationIsDeterministic) {
  SoakOptions opts;
  opts.ops = 128;
  const std::string a = soak::encode(soak::generate_workload(5, opts));
  const std::string b = soak::encode(soak::generate_workload(5, opts));
  EXPECT_EQ(a, b);
  const std::string c = soak::encode(soak::generate_workload(6, opts));
  EXPECT_NE(a, c);
}

TEST(Soak, WorkloadRespectsOptions) {
  SoakOptions opts;
  opts.ops = 64;
  opts.clients = 3;
  opts.key_space = 8;
  opts.horizon = 50'000;
  const Workload w = soak::generate_workload(1, opts);
  ASSERT_EQ(w.ops.size(), 64u);
  Tick prev = 0;
  for (const soak::WorkloadOp& op : w.ops) {
    EXPECT_GE(op.at, prev) << "ops must be sorted by tick";
    prev = op.at;
    EXPECT_LT(op.client, 3u);
    EXPECT_LT(op.key, 8u);
    EXPECT_LE(op.at, opts.horizon);
  }
}

TEST(Soak, WorkloadCodecRoundtrip) {
  SoakOptions opts;
  opts.ops = 48;
  const Workload w = soak::generate_workload(9, opts);
  const std::string text = soak::encode(w);
  Workload back;
  ASSERT_TRUE(soak::decode(text, back));
  EXPECT_EQ(soak::encode(back), text);
  EXPECT_EQ(back.ops.size(), w.ops.size());
}

TEST(Soak, WorkloadDecodeRejectsGarbage) {
  Workload out;
  EXPECT_FALSE(soak::decode("not a workload", out));
}

// ---------------------------------------------------------------------------
// Availability metric
// ---------------------------------------------------------------------------

TEST(Soak, AvailabilityOfHandBuiltFailover) {
  // Mgr p0 reigns [0, 500), crashes, p1 takes over at 600: the metric must
  // report exactly (500 + 400) / 1000.
  trace::Recorder rec;
  rec.set_initial_membership({0, 1, 2});
  rec.became_mgr(0, 0);
  rec.crash(0, 500);
  rec.became_mgr(1, 600);
  EXPECT_DOUBLE_EQ(soak::availability_from_trace(rec, 1000), 0.9);
}

TEST(Soak, AvailabilityCoordinatorlessFallback) {
  // No kBecameMgr anywhere (baseline-shaped trace): the structural rule
  // applies — available while the most senior live member holds a
  // majority-live view.
  trace::Recorder rec;
  rec.set_initial_membership({0, 1, 2});
  EXPECT_DOUBLE_EQ(soak::availability_from_trace(rec, 1000), 1.0);
  rec.crash(0, 250);  // p1 is senior in its view only after installing one
  rec.crash(1, 250);  // ... and now the majority is gone regardless
  EXPECT_DOUBLE_EQ(soak::availability_from_trace(rec, 1000), 0.25);
}

TEST(Soak, SoakRunFullyAvailableWithoutFaults) {
  Schedule s;
  s.n = 5;
  s.seed = 3;
  SoakOptions sopts;
  sopts.horizon = 40'000;
  sopts.ops = 64;
  scenario::ExecOptions exec;
  const SoakResult r = soak::run_soak(s, soak::generate_workload(3, sopts), exec, sopts);
  EXPECT_TRUE(r.ok()) << r.message();
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  EXPECT_EQ(r.ops_rejected, 0u);
  EXPECT_EQ(r.ops_attempted, 64u);
}

TEST(Soak, MgrCrashOpensAvailabilityGap) {
  Schedule s;
  s.n = 5;
  s.seed = 3;
  ScheduleEvent crash;
  crash.type = EventType::kCrash;
  crash.at = 10'000;
  crash.target = 0;  // the reigning Mgr (most senior member)
  s.events.push_back(crash);
  SoakOptions sopts;
  sopts.horizon = 40'000;
  sopts.ops = 64;
  scenario::ExecOptions exec;
  const SoakResult r = soak::run_soak(s, soak::generate_workload(3, sopts), exec, sopts);
  EXPECT_TRUE(r.ok()) << r.message();
  EXPECT_LT(r.availability, 1.0);
  EXPECT_GT(r.availability, 0.5);  // failover is quick, not half the run
}

// ---------------------------------------------------------------------------
// Clean soak runs across the detector axes
// ---------------------------------------------------------------------------

TEST(Soak, CleanRunsAcrossDetectors) {
  SoakOptions sopts;
  sopts.horizon = 60'000;
  sopts.ops = 64;
  for (fd::DetectorKind kind :
       {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat, fd::DetectorKind::kPhi}) {
    scenario::ExecOptions exec;
    exec.fd = kind;
    const scenario::GeneratorOptions gen =
        scenario::unit_generator({}, scenario::Profile::kMixed, exec, &sopts);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const Schedule s = scenario::generate(seed, gen);
      const Workload w = soak::generate_workload(seed, sopts);
      const SoakResult r = soak::run_soak(s, w, exec, sopts);
      EXPECT_TRUE(r.ok()) << "fd=" << static_cast<int>(kind) << " seed=" << seed << "\n"
                          << r.message();
    }
  }
}

TEST(Soak, SoakRunsAreReproducible) {
  SoakOptions sopts;
  sopts.horizon = 60'000;
  sopts.ops = 64;
  scenario::GeneratorOptions gen;
  gen.horizon = sopts.horizon;
  gen.restart_weight = sopts.restart_weight;
  const Schedule s = scenario::generate(11, gen);
  const Workload w = soak::generate_workload(11, sopts);
  scenario::ExecOptions exec;
  const SoakResult a = soak::run_soak(s, w, exec, sopts);
  const SoakResult b = soak::run_soak(s, w, exec, sopts);
  EXPECT_EQ(a.exec.trace_hash, b.exec.trace_hash);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.ops_rejected, b.ops_rejected);
  EXPECT_EQ(a.sync_passes, b.sync_passes);
}

namespace {

/// Everything a soak run exposes: the verdict, the app trace, the final
/// replica states and the membership trace hash.
struct SoakSnapshot {
  std::string verdict;
  bool ok = false;
  bool quiesced = false;
  double availability = 0.0;
  uint64_t attempted = 0, rejected = 0;
  size_t sync_passes = 0;
  uint64_t trace_hash = 0;
  std::vector<std::tuple<uint64_t, Tick, int, ProcessId, ProcessId, uint64_t, uint32_t,
                         ViewVersion>>
      events;
  std::vector<std::tuple<ProcessId, std::vector<std::pair<uint32_t, uint64_t>>,
                         std::vector<std::pair<uint64_t, uint8_t>>>>
      finals;
};

SoakSnapshot snapshot(const SoakResult& r, const soak::SoakHost& host) {
  SoakSnapshot s;
  s.verdict = r.message();
  s.ok = r.ok();
  s.quiesced = r.exec.quiesced;
  s.availability = r.availability;
  s.attempted = r.ops_attempted;
  s.rejected = r.ops_rejected;
  s.sync_passes = r.sync_passes;
  s.trace_hash = r.exec.trace_hash;
  for (const app::AppEvent& e : host.trace().events()) {
    s.events.emplace_back(e.seq, e.tick, static_cast<int>(e.kind), e.actor, e.peer, e.id, e.key,
                          e.view);
  }
  for (const soak::ReplicaState& f : host.final_states()) {
    s.finals.emplace_back(f.id, f.registry, f.queue);
  }
  return s;
}

struct SoakCase {
  size_t n;
  scenario::Profile profile;
  fd::DetectorKind fd;
  uint64_t seed;
  uint64_t max_sim_events = 5'000'000;  ///< small = a stalled run
  bool inject_bug = false;              ///< GMP-1 violations = a failing run
};

}  // namespace

TEST(Soak, PooledHostMatchesFreshHost) {
  // One SoakHost serves every run below, reset in place, in an order that
  // moves from n = 9 to n = 5 and back, takes runs with joiners, runs that
  // end with future-view payloads still held, a stalled run and a failing
  // run.  Each must match a fresh host.  Both sides run the same sequence
  // on their own pooled cluster, so only the host differs (a stalled run's
  // diagnostic lists armed timers in the world's slot order, which depends
  // on the cluster's history).
  SoakOptions sopts;
  sopts.horizon = 60'000;
  sopts.ops = 64;
  using scenario::Profile;
  using fd::DetectorKind;
  const std::vector<SoakCase> cases = {
      {9, Profile::kPartitionHeavy, DetectorKind::kOracle, 4},  // held 3, 2 joiners
      {5, Profile::kMixed, DetectorKind::kHeartbeat, 3},
      {5, Profile::kMixed, DetectorKind::kOracle, 26},  // held 1, 1 joiner
      {5, Profile::kChurnHeavy, DetectorKind::kPhi, 5},
      {9, Profile::kBurstCrash, DetectorKind::kOracle, 19},  // held 2, 4 joiners
      {5, Profile::kPartitionHeavy, DetectorKind::kHeartbeat, 7, 300},
      {5, Profile::kLossy, DetectorKind::kOracle, 11},
      {5, Profile::kMixed, DetectorKind::kOracle, 1, 5'000'000, true},
      {9, Profile::kLossy, DetectorKind::kPhi, 2},
      {5, Profile::kChurnHeavy, DetectorKind::kOracle, 8},
  };
  std::vector<Schedule> schedules;
  std::vector<Workload> workloads;
  std::vector<scenario::ExecOptions> execs;
  for (const SoakCase& c : cases) {
    scenario::ExecOptions exec;
    exec.fd = c.fd;
    exec.max_sim_events = c.max_sim_events;
    exec.inject_bug_unrecorded_suspicion = c.inject_bug;
    scenario::GeneratorOptions base;
    base.n = c.n;
    schedules.push_back(
        scenario::generate(c.seed, scenario::unit_generator(base, c.profile, exec, &sopts)));
    workloads.push_back(soak::generate_workload(c.seed, sopts));
    execs.push_back(exec);
  }

  harness::Cluster fresh_cluster{harness::ClusterOptions{}};
  harness::Cluster pooled_cluster{harness::ClusterOptions{}};
  soak::SoakHost pooled_host;
  size_t held_runs = 0, joiner_runs = 0, stalled = 0, failed = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    soak::SoakHost fresh_host;
    const SoakSnapshot fresh = snapshot(
        soak::run_soak(schedules[i], workloads[i], execs[i], sopts, fresh_cluster, fresh_host),
        fresh_host);
    const SoakSnapshot pooled = snapshot(soak::run_soak(schedules[i], workloads[i], execs[i],
                                                        sopts, pooled_cluster, pooled_host),
                                         pooled_host);
    EXPECT_EQ(pooled.verdict, fresh.verdict) << "case " << i;
    EXPECT_EQ(pooled.ok, fresh.ok) << "case " << i;
    EXPECT_EQ(pooled.availability, fresh.availability) << "case " << i;
    EXPECT_EQ(pooled.attempted, fresh.attempted) << "case " << i;
    EXPECT_EQ(pooled.rejected, fresh.rejected) << "case " << i;
    EXPECT_EQ(pooled.sync_passes, fresh.sync_passes) << "case " << i;
    EXPECT_EQ(pooled.trace_hash, fresh.trace_hash) << "case " << i;
    EXPECT_EQ(pooled.events, fresh.events) << "case " << i;
    EXPECT_EQ(pooled.finals, fresh.finals) << "case " << i;
    held_runs += pooled_host.held_payloads() > 0;
    joiner_runs += pooled_cluster.ids().size() > cases[i].n;
    stalled += !fresh.quiesced;
    failed += !fresh.ok;
  }
  // The grid really covers what it claims to.
  EXPECT_GE(held_runs, 3u);
  EXPECT_GE(joiner_runs, 3u);
  EXPECT_GE(stalled, 1u);
  EXPECT_GE(failed, 2u);
}

// ---------------------------------------------------------------------------
// Joint schedule + workload minimization
// ---------------------------------------------------------------------------

TEST(Soak, MinimizeSoakShrinksBothSides) {
  // Synthetic failure predicate (no simulator in the loop): the "bug"
  // reproduces iff the schedule still has a crash AND the workload still
  // has an op on key 7.  The minimizer must strip everything else.
  scenario::GeneratorOptions gen;
  gen.max_events = 8;
  Schedule s = scenario::generate(4, gen);
  ScheduleEvent crash;
  crash.type = EventType::kCrash;
  crash.at = 100;
  crash.target = 1;
  s.events.push_back(crash);
  SoakOptions sopts;
  sopts.ops = 32;
  sopts.key_space = 16;
  Workload w = soak::generate_workload(4, sopts);
  w.ops[10].key = 7;
  const auto fails = [](const Schedule& cs, const Workload& cw) {
    bool has_crash = false;
    for (const ScheduleEvent& e : cs.events) {
      if (e.type == EventType::kCrash) has_crash = true;
    }
    bool has_key7 = false;
    for (const soak::WorkloadOp& op : cw.ops) {
      if (op.key == 7) has_key7 = true;
    }
    return has_crash && has_key7;
  };
  ASSERT_TRUE(fails(s, w));
  soak::SoakMinimizeStats stats;
  soak::minimize_soak(s, w, fails, 2000, &stats);
  EXPECT_TRUE(fails(s, w));
  EXPECT_EQ(stats.ops_after, 1u) << "workload should shrink to the single key-7 op";
  EXPECT_LE(stats.events_after, 2u);
  EXPECT_GT(stats.probes, 0u);
}

// ---------------------------------------------------------------------------
// App text protocol: sync round trips and truncated payloads
// ---------------------------------------------------------------------------

namespace {

/// Four members with a ProcessGroup each; p3 crashes at tick 100, so the
/// apps run in view 1 and their ids carry a nonzero view word.  p1 runs no
/// app: it records every payload delivered to it, verbatim.
struct AppWire {
  AppWire()
      : cluster([] {
          harness::ClusterOptions o;
          o.n = 4;
          o.seed = 17;
          return o;
        }()) {
    for (ProcessId p = 0; p < 4; ++p) {
      groups.push_back(std::make_unique<group::ProcessGroup>(&cluster.node(p)));
    }
    groups[1]->on_message([this](ProcessId, std::string_view m) { at_p1.emplace_back(m); });
    cluster.crash_at(100, 3);
  }

  std::function<Context*()> ctx(ProcessId p) {
    return [this, p] { return cluster.world().context_of(p); };
  }

  harness::Cluster cluster;
  std::vector<std::unique_ptr<group::ProcessGroup>> groups;
  std::vector<std::string> at_p1;
};

template <typename Table>
std::vector<std::pair<uint32_t, uint64_t>> registry_rows(const Table& t) {
  return {t.begin(), t.end()};
}

using TaskRow = std::tuple<uint64_t, int, ProcessId, uint64_t>;

template <typename Table>
std::vector<TaskRow> task_rows(const Table& t) {
  std::vector<TaskRow> rows;
  for (const auto& [tid, r] : t) rows.emplace_back(tid, r.state, r.worker, r.astamp);
  return rows;
}

}  // namespace

TEST(Soak, RegistrySyncRebuildsTableOnFreshReplica) {
  AppWire f;
  app::AppTrace trace;
  app::Registry src(f.groups[0].get(), &trace, f.ctx(0));
  f.cluster.start();
  f.cluster.world().at(3000, [&] {
    for (uint32_t key : {7u, 3u, 7u, 12u}) ASSERT_TRUE(src.client_write(key));
    src.sync_round();
  });
  ASSERT_TRUE(f.cluster.run_to_quiescence());
  const std::vector<std::string> wire = {
      "w 7 4294967297", "w 3 4294967298", "w 7 4294967299", "w 12 4294967300",
      "W 3:4294967298 7:4294967299 12:4294967300",
  };
  ASSERT_EQ(f.at_p1, wire);

  app::AppTrace fresh_trace;
  app::Registry fresh(f.groups[1].get(), &fresh_trace, f.ctx(1));
  EXPECT_TRUE(fresh.handle(0, f.at_p1.back()));
  EXPECT_EQ(registry_rows(fresh.data()), registry_rows(src.data()));
}

TEST(Soak, RegistryTruncatedPayloadsApplyWhatParses) {
  AppWire f;
  app::AppTrace trace;
  app::Registry r(f.groups[1].get(), &trace, f.ctx(1));
  f.cluster.start();
  for (const char* m : {"", "x 1 2"}) EXPECT_FALSE(r.handle(0, m)) << m;
  for (const char* m : {"w", "w 5", "w 6 9", "w  8 2", "W 1:5 2", "W 2:7 ", "W 3:4,4:6", "W",
                        "W 9:", "w 99999999999999999999 1", "w 10 -3", "w 11 +4", "w12 3",
                        "w 13 4x", "W 14:1:15:2", "w -99999999999999999999 7", "w\t16 5",
                        "w 17\t6", "w 18 --1", "w 19 +-1", "W 20:1\n21:2"}) {
    EXPECT_TRUE(r.handle(0, m)) << m;
  }
  const std::vector<std::pair<uint32_t, uint64_t>> expected = {
      {1, 5},  {2, 7},  {3, 4},  {4, 6},  {6, 9},  {8, 2},  {10, 18446744073709551613u},
      {11, 4}, {12, 3}, {13, 4}, {14, 1}, {15, 2}, {16, 5},  {17, 6},
      {20, 1}, {21, 2}, {4294967295u, 7},
  };
  EXPECT_EQ(registry_rows(r.data()), expected);
}

TEST(Soak, WorkQueueSyncRebuildsTableOnFreshReplica) {
  AppWire f;
  app::AppTrace trace;
  app::WorkQueue src(f.groups[0].get(), &trace, f.ctx(0));
  app::WorkQueue worker(f.groups[2].get(), &trace, f.ctx(2));
  f.groups[0]->on_message([&](ProcessId from, std::string_view m) { src.handle(from, m); });
  f.groups[2]->on_message([&](ProcessId from, std::string_view m) { worker.handle(from, m); });
  f.cluster.start();
  f.cluster.world().at(3000, [&] {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(src.client_submit());
  });
  f.cluster.world().at(6000, [&] { src.sync_round(); });
  ASSERT_TRUE(f.cluster.run_to_quiescence());
  const std::vector<std::string> wire = {
      "s 4294967297", "a 4294967297 1 4294967297",
      "s 4294967298", "a 4294967298 2 4294967298",
      "s 4294967299", "a 4294967299 1 4294967299",
      "d 4294967298",
      "Q 4294967297:2:1:4294967297 4294967298:3:2:4294967298 4294967299:2:1:4294967299",
  };
  ASSERT_EQ(f.at_p1, wire);

  // p0 is the coordinator and never a worker, so the fresh table neither
  // executes nor re-dispatches anything it merges.
  app::AppTrace fresh_trace;
  app::WorkQueue fresh(f.groups[0].get(), &fresh_trace, f.ctx(0));
  EXPECT_TRUE(fresh.handle(1, f.at_p1.back()));
  EXPECT_EQ(task_rows(fresh.tasks()), task_rows(src.tasks()));
}

TEST(Soak, WorkQueueTruncatedPayloadsApplyWhatParses) {
  AppWire f;
  app::AppTrace trace;
  app::WorkQueue q(f.groups[1].get(), &trace, f.ctx(1));  // not the coordinator
  f.cluster.start();
  for (const char* m : {"", "z 1"}) EXPECT_FALSE(q.handle(0, m)) << m;
  for (const char* m : {"s", "s 7", "a 5 2", "a 5 2 9", "d 7", "Q 1:2:3", "Q 1:2:3:4 ",
                        "Q 2:1:4294967295:0,3:3:2:8:", "Q 4:2:2:5 9", "s  8", "a 6 2 3 4",
                        "d", "Q"}) {
    EXPECT_TRUE(q.handle(0, m)) << m;
  }
  const std::vector<TaskRow> expected = {
      {1, 2, 3, 4}, {2, 1, kNilId, 0}, {3, 3, 2, 8}, {4, 2, 2, 5},
      {5, 2, 2, 9}, {6, 2, 2, 3},      {7, 3, kNilId, 0}, {8, 1, kNilId, 0},
  };
  EXPECT_EQ(task_rows(q.tasks()), expected);
}

TEST(Soak, WorkQueueDispatchPayloadsArePinned) {
  // The coordinator's queue meets two out-of-order 'Q' tables, items held
  // by a departed worker, items assigned to itself, and a view change that
  // strands the items it assigned to the crashed p2.  Every payload it
  // broadcasts reaches p1 verbatim, in send order; the app events pin the
  // reclaim/assign/exec order behind them.
  AppWire f;
  app::AppTrace trace;
  app::WorkQueue q(f.groups[0].get(), &trace, f.ctx(0));
  f.groups[0]->on_message([&](ProcessId from, std::string_view m) { q.handle(from, m); });
  f.groups[0]->on_view_change([&](const gmp::View&) { q.on_view(); });
  f.cluster.crash_at(5000, 2);
  f.cluster.start();
  f.cluster.world().at(3000, [&] {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.client_submit());
    // Out of order: a done item, one held by p1 (kept), one by departed p9
    // (reclaimed), one merely submitted (assigned), one assigned to p0
    // itself (executed here), and a stale stamp that loses to the local one.
    EXPECT_TRUE(q.handle(1, "Q 50:2:0:7 20:1:4294967295:0 40:2:9:3 30:3:2:1 10:2:1:2 "
                            "4294967297:2:0:1"));
  });
  f.cluster.world().at(8000, [&] {
    // After p2's exclusion, which reclaimed what p2 held: a second unsorted
    // table completes one item, strands one at p2, and reassigns one to p0
    // with a newer stamp (executed here).
    EXPECT_TRUE(q.handle(1, "Q 70:1:4294967295:0 10:3:1:2 45:2:2:9 20:2:0:8589934600"));
    q.sync_round();
  });
  ASSERT_TRUE(f.cluster.run_to_quiescence());
  const std::vector<std::string> wire = {
      "s 4294967297", "a 4294967297 1 4294967297",
      "s 4294967298", "a 4294967298 2 4294967298",
      "s 4294967299", "a 4294967299 1 4294967299",
      "d 50",
      "a 20 2 4294967300",
      "a 40 1 4294967301",
      "a 20 1 8589934593",
      "a 4294967298 1 8589934594",
      "d 20",
      "a 45 1 8589934595",
      "a 70 1 8589934596",
      "Q 10:3:1:2 20:3:0:8589934600 30:3:2:1 40:2:1:4294967301 45:2:1:8589934595 50:3:0:7 "
      "70:2:1:8589934596 4294967297:2:1:4294967297 4294967298:2:1:8589934594 "
      "4294967299:2:1:4294967299",
  };
  EXPECT_EQ(f.at_p1, wire);
  std::vector<std::string> events;
  for (const app::AppEvent& e : trace.events()) {
    std::string line = std::string(app::to_string(e.kind)) + " " + std::to_string(e.id);
    if (e.peer != kNilId) line += " p" + std::to_string(e.peer);
    line += " v" + std::to_string(e.view);
    events.push_back(line);
  }
  const std::vector<std::string> expected_events = {
      "submit 4294967297 v1", "assign 4294967297 p1 v1",
      "submit 4294967298 v1", "assign 4294967298 p2 v1",
      "submit 4294967299 v1", "assign 4294967299 p1 v1",
      "mirror 50 v1",         "mirror 20 v1",
      "mirror 40 v1",         "mirror 30 v1",
      "task-done 30 v1",      "mirror 10 v1",
      "exec 50 v1",           "task-done 50 v1",
      "assign 20 p2 v1",      "reclaim 40 p9 v1",
      "assign 40 p1 v1",      "reclaim 20 p2 v2",
      "assign 20 p1 v2",      "reclaim 4294967298 p2 v2",
      "assign 4294967298 p1 v2", "mirror 70 v2",
      "task-done 10 v2",      "mirror 45 v2",
      "exec 20 v2",           "task-done 20 v2",
      "reclaim 45 p2 v2",     "assign 45 p1 v2",
      "assign 70 p1 v2",
  };
  EXPECT_EQ(events, expected_events);
  EXPECT_FALSE(q.all_done());
}
