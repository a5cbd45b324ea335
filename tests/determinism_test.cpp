// Determinism regression suite: a seed names a run, forever.
//
// The simulator's contract is bit-reproducibility — every experiment and
// every fuzz failure is referenced by (profile, seed, options) alone.  These
// tests pin that contract at the two layers that matter: a single schedule
// executed twice yields an identical ExecResult (including a full trace
// fingerprint), and a sharded sweep yields byte-identical results for any
// --jobs value.
#include <gtest/gtest.h>

#include <bit>

#include "harness/cluster.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "scenario/sweep.hpp"

using namespace gmpx;
using namespace gmpx::scenario;

namespace {

void expect_same_result(const ExecResult& a, const ExecResult& b) {
  EXPECT_EQ(a.quiesced, b.quiesced);
  EXPECT_EQ(a.liveness_checked, b.liveness_checked);
  EXPECT_EQ(a.end_tick, b.end_tick);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.final_view_size, b.final_view_size);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.check.violations, b.check.violations);
  // Virtual-time fast-forward telemetry is part of the deterministic
  // result: the same schedule must elide exactly the same spans.
  EXPECT_EQ(a.skipped_ticks, b.skipped_ticks);
  EXPECT_EQ(a.skipped_events, b.skipped_events);
  EXPECT_EQ(a.aborted_joins, b.aborted_joins);
}

}  // namespace

TEST(Determinism, SameSeedSameExecResult) {
  for (Profile p : {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                    Profile::kBurstCrash, Profile::kLossy}) {
    GeneratorOptions gen;
    gen.profile = p;
    for (uint64_t seed : {0ull, 7ull, 23ull}) {
      Schedule s = generate(seed, gen);
      ExecResult first = execute(s);
      ExecResult second = execute(s);
      SCOPED_TRACE(std::string(to_string(p)) + " seed=" + std::to_string(seed));
      expect_same_result(first, second);
      EXPECT_NE(first.trace_hash, 0u);  // the fingerprint actually hashed something
    }
  }
}

TEST(Determinism, SameSeedSameExecResultHeartbeatFd) {
  // The heartbeat detector adds ping traffic, storm-calibrated schedules
  // and protocol-quiescence detection to the run; none of it may cost
  // bit-reproducibility.
  for (Profile p : {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                    Profile::kBurstCrash, Profile::kLossy}) {
    ExecOptions exec;
    exec.fd = fd::DetectorKind::kHeartbeat;
    GeneratorOptions gen = tuned_for_heartbeat({}, exec.heartbeat);
    gen.profile = p;
    for (uint64_t seed : {0ull, 7ull, 23ull}) {
      Schedule s = generate(seed, gen);
      ExecResult first = execute(s, exec);
      ExecResult second = execute(s, exec);
      SCOPED_TRACE(std::string(to_string(p)) + "/heartbeat seed=" + std::to_string(seed));
      expect_same_result(first, second);
      EXPECT_EQ(first.fd_messages, second.fd_messages);
      // The detector really ran: either its upkeep was simulated for real,
      // or the fast-forward engine provably elided it (a run whose every
      // ping wave is skipped reports zero detector sends by design).
      EXPECT_GT(first.fd_messages + first.skipped_events, 0u);
      EXPECT_NE(first.trace_hash, 0u);
    }
  }
}

TEST(Determinism, SameSeedSameExecResultPhiFd) {
  // The adaptive detector folds observed inter-arrival history into its
  // thresholds, and the lossy profile folds per-frame fault draws into the
  // run RNG — every bit of both must replay.
  for (Profile p : {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                    Profile::kBurstCrash, Profile::kLossy}) {
    ExecOptions exec;
    exec.fd = fd::DetectorKind::kPhi;
    GeneratorOptions gen = tuned_for_phi({}, exec.phi);
    gen.profile = p;
    for (uint64_t seed : {0ull, 7ull, 23ull}) {
      Schedule s = generate(seed, gen);
      ExecResult first = execute(s, exec);
      ExecResult second = execute(s, exec);
      SCOPED_TRACE(std::string(to_string(p)) + "/phi seed=" + std::to_string(seed));
      expect_same_result(first, second);
      EXPECT_EQ(first.fd_messages, second.fd_messages);
      EXPECT_GT(first.fd_messages + first.skipped_events, 0u);
      EXPECT_NE(first.trace_hash, 0u);
    }
  }
}

TEST(Determinism, PooledClusterResetMatchesFreshCluster) {
  // The zero-alloc sweep reuses one cluster per worker via Cluster::reset();
  // that reuse must be *observationally identical* to building a fresh
  // deployment per run.  Execute every schedule both ways — fresh, and on a
  // long-lived pooled cluster whose state has been dirtied by all the
  // previous schedules — and require identical results (trace hash
  // included), for both detectors.
  for (fd::DetectorKind detector : {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat,
                                    fd::DetectorKind::kPhi}) {
    ExecOptions exec;
    exec.fd = detector;
    harness::Cluster pooled{harness::ClusterOptions{}};
    for (Profile p : {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
                      Profile::kBurstCrash, Profile::kLossy}) {
      GeneratorOptions gen;
      gen.profile = p;
      if (detector == fd::DetectorKind::kHeartbeat) gen = tuned_for_heartbeat(gen, exec.heartbeat);
      if (detector == fd::DetectorKind::kPhi) gen = tuned_for_phi(gen, exec.phi);
      for (uint64_t seed : {1ull, 11ull, 29ull}) {
        Schedule s = generate(seed, gen);
        ExecResult fresh = execute(s, exec);
        ExecResult reused = execute(s, exec, pooled);
        SCOPED_TRACE(std::string(to_string(p)) + "/" + fd::to_string(detector) +
                     " seed=" + std::to_string(seed));
        expect_same_result(fresh, reused);
      }
    }
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the fingerprint has discriminating power: across a
  // seed range at least one pair of traces must differ.
  GeneratorOptions gen;
  gen.profile = Profile::kMixed;
  uint64_t h0 = execute(generate(0, gen)).trace_hash;
  bool any_different = false;
  for (uint64_t seed = 1; seed < 8 && !any_different; ++seed) {
    any_different = execute(generate(seed, gen)).trace_hash != h0;
  }
  EXPECT_TRUE(any_different);
}

TEST(Determinism, SweepIdenticalAcrossJobCounts) {
  // Both detector axes ride the same sharded grid: the merged output must
  // not depend on the worker count for either.
  SweepOptions opts;
  opts.seed_lo = 0;
  opts.seed_hi = 40;
  opts.detectors = {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat,
                    fd::DetectorKind::kPhi};
  opts.verbose = true;  // force per-run report lines so output is non-trivial

  // Streaming sink: with jobs > 1 the per-worker SPSC rings feed the main
  // thread's prefix flush — on_run must still see every run exactly once,
  // in canonical grid order, for any worker count.
  std::vector<std::string> streamed_serial, streamed_sharded;
  auto streaming_sink = [](std::vector<std::string>& into) {
    return [&into](const SweepRun& run) {
      into.push_back(std::string(to_string(run.profile)) + "/" +
                     fd::to_string(run.detector) + "/" + std::to_string(run.seed));
    };
  };

  opts.jobs = 1;
  opts.on_run = streaming_sink(streamed_serial);
  SweepResult serial = run_sweep(opts);
  opts.jobs = 8;
  opts.on_run = streaming_sink(streamed_sharded);
  SweepResult sharded = run_sweep(opts);

  EXPECT_EQ(serial.runs, sharded.runs);
  EXPECT_EQ(serial.failures, sharded.failures);
  EXPECT_EQ(serial.output, sharded.output);  // byte-identical merged report
  EXPECT_EQ(streamed_serial.size(), serial.runs);
  EXPECT_EQ(streamed_serial, streamed_sharded);  // ring merge keeps canonical order
  ASSERT_EQ(serial.run_log.size(), sharded.run_log.size());
  bool heartbeat_ran = false;
  bool phi_ran = false;
  for (size_t i = 0; i < serial.run_log.size(); ++i) {
    const SweepRun& a = serial.run_log[i];
    const SweepRun& b = sharded.run_log[i];
    EXPECT_EQ(a.profile, b.profile);
    EXPECT_EQ(a.detector, b.detector);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.end_tick, b.end_tick);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.fd_messages, b.fd_messages);
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    if (a.detector == fd::DetectorKind::kHeartbeat && a.fd_messages > 0) heartbeat_ran = true;
    if (a.detector == fd::DetectorKind::kPhi && a.fd_messages > 0) phi_ran = true;
  }
  EXPECT_TRUE(heartbeat_ran);
  EXPECT_TRUE(phi_ran);
}

TEST(Determinism, SweepFailurePathIdenticalAcrossJobCounts) {
  // The failure path (report rendering + minimization) must also merge
  // deterministically: inject the GMP-1 bug so most runs fail.
  SweepOptions opts;
  opts.seed_lo = 0;
  opts.seed_hi = 6;
  opts.profiles = {Profile::kChurnHeavy};
  opts.gen.max_events = 8;
  opts.exec.inject_bug_unrecorded_suspicion = true;

  opts.jobs = 1;
  SweepResult serial = run_sweep(opts);
  opts.jobs = 3;
  SweepResult sharded = run_sweep(opts);

  EXPECT_GT(serial.failures, 0u);  // the injected bug actually fired
  EXPECT_EQ(serial.failures, sharded.failures);
  EXPECT_EQ(serial.output, sharded.output);
  ASSERT_EQ(serial.run_log.size(), sharded.run_log.size());
  for (size_t i = 0; i < serial.run_log.size(); ++i) {
    EXPECT_EQ(serial.run_log[i].schedule_text, sharded.run_log[i].schedule_text);
    EXPECT_EQ(serial.run_log[i].minimized_text, sharded.run_log[i].minimized_text);
    EXPECT_EQ(serial.run_log[i].tag, sharded.run_log[i].tag);
  }
}

namespace {

/// splitmix64's finalizer: every input bit reaches every output bit, so a
/// single changed field anywhere in the grid moves the whole fingerprint.
uint64_t mix(uint64_t h, uint64_t v) {
  uint64_t z = (h ^ v) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t fold_runs(uint64_t h, const SweepResult& r) {
  for (const SweepRun& run : r.run_log) {
    h = mix(h, run.trace_hash);
    h = mix(h, run.messages);
    h = mix(h, run.fd_messages);
    h = mix(h, run.skipped_ticks);
    h = mix(h, run.skipped_events);
    h = mix(h, run.aborted_joins);
    h = mix(h, run.ops_attempted);
    h = mix(h, std::bit_cast<uint64_t>(run.availability));
  }
  return mix(h, r.run_log.size());
}

}  // namespace

TEST(Determinism, GoldenBehaviourFingerprint) {
  // Cross-commit byte-identity pin.  The other tests here compare two
  // executions of the *same* build; this one folds the observable behaviour
  // of a fixed grid — single-group fuzz at n = 5 and n = 9, soak and mux,
  // every profile and detector — into one constant pinned in the source.
  // A change meant to be behaviour-preserving (a refactor, a faster horizon
  // walk) must leave it green; a change that deliberately moves behaviour
  // re-pins it and says why.  The simulation is integer arithmetic and
  // availability a plain IEEE quotient, so the constant is the same in
  // every build type and under the sanitizers.
  const std::vector<fd::DetectorKind> all_detectors = {
      fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat, fd::DetectorKind::kPhi};
  uint64_t h = 0;
  for (size_t n : {5u, 9u}) {
    SweepOptions fuzz;
    fuzz.seed_lo = 0;
    fuzz.seed_hi = 100;
    fuzz.detectors = all_detectors;
    fuzz.gen.n = n;
    fuzz.jobs = 2;
    h = fold_runs(h, run_sweep(fuzz));
  }
  SweepOptions soak;
  soak.seed_lo = 0;
  soak.seed_hi = 10;
  soak.detectors = all_detectors;
  soak.soak = true;
  soak.jobs = 2;
  h = fold_runs(h, run_sweep(soak));
  SweepOptions mux;
  mux.seed_lo = 0;
  mux.seed_hi = 3;
  mux.profiles = {Profile::kGroupMux};
  mux.detectors = all_detectors;
  mux.jobs = 2;
  h = fold_runs(h, run_sweep(mux));
  EXPECT_EQ(h, 0xaffef5d34f47e6c1ull) << std::hex << "fingerprint 0x" << h;
}
