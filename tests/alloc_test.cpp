// Allocation-count regression test: the steady-state fuzz loop must stay
// (near-)allocation-free, per detector, and a pooled soak run must stay
// under its own per-run ceiling.
//
// The loop under test is exactly the sweep's warm path — one pooled
// harness::Cluster reset per schedule (scenario/sweep.cpp) — measured by
// overriding global operator new with a thread-local counter.  Warm-up runs
// let every pool reach its high-water capacity (packet/timer/event slabs,
// pooled nodes, recorder slots, codec buffers, checker arena); after that,
// per-schedule allocations must stay under a pinned ceiling, or the
// zero-alloc property of this PR silently rots.
//
// Calibration (mixed/n=5, 60-schedule warm-up, measured over 20 seeds):
// oracle averages ~25 allocations per execute() (was ~370 before pooling),
// heartbeat ~30.  The remaining handful is cold-slot capacity ramp (a trace
// slot hosting its first install, a node scratch growing past its previous
// high water) plus a few >SBO script closures, all of which decay further
// over longer sweeps.  Ceilings are set with modest slack; if this test
// fails after a change, run tools/alloc_trace.cpp-style backtracing to find
// the new allocation site instead of raising the ceiling.
#include <gtest/gtest.h>

#include "common/alloc_counter.hpp"  // defines counting operator new/delete
#include "harness/cluster.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "soak/runner.hpp"
#include "soak/workload.hpp"

using namespace gmpx;
using namespace gmpx::scenario;

namespace {

struct AllocStats {
  uint64_t mean = 0;
  uint64_t max = 0;
};

/// Warm a pooled cluster, then measure allocations across `measure` warm
/// fuzzed schedules (execute() only — generation is excluded, matching the
/// "per fuzzed schedule" figure the sweep's --stats reports).
AllocStats measure_warm_loop(fd::DetectorKind detector) {
  GeneratorOptions gen;
  gen.profile = Profile::kMixed;
  gen.n = 5;
  ExecOptions exec;
  exec.fd = detector;
  if (detector == fd::DetectorKind::kHeartbeat) {
    gen = tuned_for_heartbeat(gen, exec.heartbeat);
  } else if (detector == fd::DetectorKind::kPhi) {
    gen = tuned_for_phi(gen, exec.phi);
  }
  harness::Cluster cluster{harness::ClusterOptions{}};
  for (uint64_t seed = 100; seed < 160; ++seed) {
    ExecResult r = execute(generate(seed, gen), exec, cluster);
    EXPECT_TRUE(r.ok()) << "warm-up seed " << seed << ": " << r.message();
  }
  AllocStats stats;
  uint64_t total = 0;
  constexpr uint64_t kSeeds = 20;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    Schedule s = generate(seed, gen);
    const uint64_t before = thread_alloc_count();
    ExecResult r = execute(s, exec, cluster);
    const uint64_t n = thread_alloc_count() - before;
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.message();
    total += n;
    if (n > stats.max) stats.max = n;
  }
  stats.mean = total / kSeeds;
  return stats;
}

/// The soak analogue: pooled soak runs (run_soak on one reused cluster,
/// schedule and workload generated outside the count) across all three
/// detectors, mixed profile, n=5, default soak options.
AllocStats measure_soak_warm_loop() {
  const soak::SoakOptions sopts;
  harness::Cluster cluster{harness::ClusterOptions{}};
  AllocStats stats;
  uint64_t total = 0;
  uint64_t runs = 0;
  for (fd::DetectorKind detector :
       {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat, fd::DetectorKind::kPhi}) {
    GeneratorOptions gen;
    gen.profile = Profile::kMixed;
    gen.n = 5;
    ExecOptions exec;
    exec.fd = detector;
    if (detector == fd::DetectorKind::kHeartbeat) {
      gen = tuned_for_heartbeat(gen, exec.heartbeat);
    } else if (detector == fd::DetectorKind::kPhi) {
      gen = tuned_for_phi(gen, exec.phi);
    }
    gen.horizon = std::max(gen.horizon, sopts.horizon);
    gen.restart_weight = sopts.restart_weight;
    for (uint64_t seed = 100; seed < 120; ++seed) {
      const soak::SoakResult r = soak::run_soak(
          generate(seed, gen), soak::generate_workload(seed, sopts), exec, sopts, cluster);
      EXPECT_TRUE(r.ok()) << "warm-up seed " << seed << ": " << r.message();
    }
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const Schedule s = generate(seed, gen);
      const soak::Workload w = soak::generate_workload(seed, sopts);
      const uint64_t before = thread_alloc_count();
      const soak::SoakResult r = soak::run_soak(s, w, exec, sopts, cluster);
      const uint64_t n = thread_alloc_count() - before;
      EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.message();
      total += n;
      ++runs;
      if (n > stats.max) stats.max = n;
    }
  }
  stats.mean = total / runs;
  return stats;
}

}  // namespace

TEST(AllocRegression, OracleWarmLoopStaysUnderCeiling) {
  AllocStats s = measure_warm_loop(fd::DetectorKind::kOracle);
  // The acceptance bar of the zero-alloc PR: ~370 -> <= 40 per schedule.
  EXPECT_LE(s.mean, 40u) << "oracle warm loop mean allocations regressed";
  // Single-schedule spikes (first-time capacity ramps on an unusually
  // join-heavy seed) get modest headroom, not a blank check.
  EXPECT_LE(s.max, 120u) << "oracle warm loop worst-case allocations regressed";
}

TEST(AllocRegression, HeartbeatWarmLoopStaysUnderCeiling) {
  AllocStats s = measure_warm_loop(fd::DetectorKind::kHeartbeat);
  // Heartbeat runs add ping traffic and storms; the batched wave fast path
  // keeps the background layer allocation-free, so the ceiling is only a
  // little above the oracle's.
  EXPECT_LE(s.mean, 60u) << "heartbeat warm loop mean allocations regressed";
  EXPECT_LE(s.max, 200u) << "heartbeat warm loop worst-case allocations regressed";
}

TEST(AllocRegression, PhiWarmLoopStaysUnderCeiling) {
  AllocStats s = measure_warm_loop(fd::DetectorKind::kPhi);
  // The phi-accrual detector keeps a fixed-size inter-arrival ring per
  // (monitor, peer) inside pooled monitor objects — the adaptive fit must
  // not buy history with steady-state heap traffic, so it rides the same
  // ceiling as the heartbeat axis.
  EXPECT_LE(s.mean, 60u) << "phi warm loop mean allocations regressed";
  EXPECT_LE(s.max, 200u) << "phi warm loop worst-case allocations regressed";
}

TEST(AllocRegression, SoakWarmLoopStaysUnderCeiling) {
  AllocStats s = measure_soak_warm_loop();
  // A soak run builds its apps afresh (one SoakHost per run, nothing pooled
  // across runs), so this ceiling counts the app layer's per-run setup and
  // growth: the ProcessGroup/Registry/WorkQueue triples, their sorted-vector
  // tables and reused payload buffers, the app trace and the oracle's
  // indexes.  Measured mean ~230, max ~570 per run (std::map tables,
  // per-message std::string payloads and tree-based oracle indexes cost
  // ~1950 per run on average).
  EXPECT_LE(s.mean, 300u) << "soak warm loop mean allocations regressed";
  EXPECT_LE(s.max, 750u) << "soak warm loop worst-case allocations regressed";
}
