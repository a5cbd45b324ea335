#include "scenario/sweep.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "harness/cluster.hpp"
#include "mux/group_mux.hpp"
#include "scenario/minimizer.hpp"
#include "soak/runner.hpp"

namespace gmpx::scenario {

namespace {

/// Single-producer single-consumer ring of completed work-list indices: one
/// per worker thread, drained by the main thread, which is the sweep's sole
/// merger.  Replaces the old shared merge mutex — a worker finishing a run
/// publishes its index with one release store and returns to fuzzing;
/// canonical-order delivery (the prefix flush) is entirely the consumer's
/// problem.  Capacity is a power of two so the head/tail counters can run
/// free and index with a mask; a full ring (merger briefly behind) makes
/// the producer yield, never drop.
struct alignas(64) SpscRing {
  static constexpr size_t kCap = 1024;
  std::array<size_t, kCap> slots;
  alignas(64) std::atomic<size_t> head{0};  ///< written by the producer only
  alignas(64) std::atomic<size_t> tail{0};  ///< written by the consumer only

  /// Producer side.  The release store on `head` publishes both the slot
  /// value and every preceding write to run_log[i] — the consumer's acquire
  /// load pairs with it, so the merger always reads a fully-rendered run.
  bool push(size_t v) {
    const size_t h = head.load(std::memory_order_relaxed);
    if (h - tail.load(std::memory_order_acquire) == kCap) return false;
    slots[h & (kCap - 1)] = v;
    head.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.
  bool pop(size_t& v) {
    const size_t t = tail.load(std::memory_order_relaxed);
    if (t == head.load(std::memory_order_acquire)) return false;
    v = slots[t & (kCap - 1)];
    tail.store(t + 1, std::memory_order_release);
    return true;
  }
};

/// Replay-and-still-fails predicate used for minimization.  A candidate
/// reproduces the failure when any checked clause is violated (the run not
/// quiescing does not count: that only says the budget was too small).
FailPredicate fails_with(const ExecOptions& exec) {
  return [exec](const Schedule& s) { return !execute(s, exec).check.ok(); };
}

/// Render one run's report in a fixed format so `--jobs N` output diffs
/// clean against `--jobs 1` (and against history).
void render(SweepRun& out, const Schedule& sched, const ExecResult& res,
            const SweepOptions& opts, const ExecOptions& exec) {
  if (opts.verbose) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s/%s seed=%lu: %s tick=%lu msgs=%lu view=%zu%s\n",
                  to_string(out.profile), fd::to_string(out.detector),
                  static_cast<unsigned long>(out.seed), res.ok() ? "ok" : "FAIL",
                  static_cast<unsigned long>(res.end_tick),
                  static_cast<unsigned long>(res.messages), res.final_view_size,
                  res.liveness_checked ? "" : " (liveness skipped)");
    out.report += buf;
  }
  if (res.ok()) return;

  out.tag = std::string(to_string(out.profile)) + "-" + fd::to_string(out.detector) + "-" +
            std::to_string(out.seed);
  FailureReport failure = render_failure(sched, res, exec, out.tag);
  out.report += failure.report;
  out.schedule_text = std::move(failure.schedule_text);
  out.minimized_text = std::move(failure.minimized_text);
}

/// Soak-run report: the protocol line plus workload-level figures; on a
/// failure, both artifacts (schedule + workload) and a *joint*
/// minimization that shrinks the fault schedule and the client workload
/// together while the violation persists.
void render_soak(SweepRun& out, const Schedule& sched, const soak::Workload& w,
                 const soak::SoakResult& res, const SweepOptions& opts,
                 const ExecOptions& exec) {
  if (opts.verbose) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s/%s seed=%lu: %s tick=%lu msgs=%lu view=%zu avail=%.3f ops=%lu "
                  "rej=%lu sync=%zu%s\n",
                  to_string(out.profile), fd::to_string(out.detector),
                  static_cast<unsigned long>(out.seed), res.ok() ? "ok" : "FAIL",
                  static_cast<unsigned long>(res.exec.end_tick),
                  static_cast<unsigned long>(res.exec.messages), res.exec.final_view_size,
                  res.availability, static_cast<unsigned long>(res.ops_attempted),
                  static_cast<unsigned long>(res.ops_rejected), res.sync_passes,
                  res.exec.liveness_checked ? "" : " (liveness skipped)");
    out.report += buf;
  }
  if (res.ok()) return;

  out.tag = std::string(to_string(out.profile)) + "-" + fd::to_string(out.detector) + "-" +
            std::to_string(out.seed);
  out.report += "FAIL " + out.tag + ": " + summarize(sched) + "\n" + res.message();
  out.schedule_text = encode_schedule(sched);
  out.workload_text = soak::encode(w);
  out.report += "--- schedule ---\n" + out.schedule_text + "--- workload ---\n" +
                out.workload_text + "----------------\n";

  Schedule min_sched = sched;
  soak::Workload min_w = w;
  soak::SoakMinimizeStats stats;
  const soak::SoakOptions& sopts = opts.soak_opts;
  soak::minimize_soak(
      min_sched, min_w,
      [&exec, &sopts](const Schedule& cs, const soak::Workload& cw) {
        soak::SoakResult r = soak::run_soak(cs, cw, exec, sopts);
        // Mirrors the protocol minimizer's policy: a candidate reproduces
        // the failure when a checked clause (GMP or APP) is violated; mere
        // non-quiescence only says the budget was too small.
        return !r.exec.check.ok() || !r.app_check.ok();
      },
      2000, &stats);
  out.minimized_text = encode_schedule(min_sched);
  out.minimized_workload_text = soak::encode(min_w);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "minimized %zu -> %zu events, %zu -> %zu ops (%zu probes):\n",
                stats.events_before, stats.events_after, stats.ops_before, stats.ops_after,
                stats.probes);
  out.report += buf;
  out.report += out.minimized_text;
  out.report += out.minimized_workload_text;
}

/// Groupmux-run report: mux-plan aggregates, every field deterministic
/// (occupancy and groups/s are --stats-only, with the other wall-clock
/// figures).  On failure the first failing group's full report — verdict,
/// encoded schedule, encoded workload — is appended; the repro path is the
/// single-group replay of that (profile, seed) pair, so no joint
/// minimization runs here.
void render_mux(SweepRun& out, const mux::MuxResult& res, const SweepOptions& opts) {
  if (opts.verbose) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s/%s seed=%lu: %s groups=%lu retired=%lu quiesced=%lu tick=%lu "
                  "msgs=%lu skip=%lu ops=%lu rej=%lu avail=%.3f\n",
                  to_string(out.profile), fd::to_string(out.detector),
                  static_cast<unsigned long>(out.seed), res.ok() ? "ok" : "FAIL",
                  static_cast<unsigned long>(res.groups),
                  static_cast<unsigned long>(res.retired),
                  static_cast<unsigned long>(res.quiesced),
                  static_cast<unsigned long>(res.sim_ticks),
                  static_cast<unsigned long>(res.messages),
                  static_cast<unsigned long>(res.skipped_ticks),
                  static_cast<unsigned long>(res.ops_attempted),
                  static_cast<unsigned long>(res.ops_rejected), res.mean_availability());
    out.report += buf;
  }
  if (res.ok()) return;
  out.tag = std::string(to_string(out.profile)) + "-" + fd::to_string(out.detector) + "-" +
            std::to_string(out.seed);
  out.report += "FAIL " + out.tag + ": " + std::to_string(res.failures) + "/" +
                std::to_string(res.groups) + " groups failed; first: " + res.first_failure;
  if (!out.report.empty() && out.report.back() != '\n') out.report += '\n';
}

}  // namespace

FailureReport render_failure(const Schedule& sched, const ExecResult& res,
                             const ExecOptions& exec, const std::string& tag) {
  FailureReport out;
  out.report = "FAIL " + tag + ": " + summarize(sched) + "\n" + res.message();
  out.schedule_text = encode_schedule(sched);
  out.report += "--- schedule ---\n" + out.schedule_text + "----------------\n";

  MinimizeStats stats;
  Schedule shrunk = minimize(sched, fails_with(exec), {}, &stats);
  out.minimized_text = encode_schedule(shrunk);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "minimized %zu -> %zu events (%zu probes):\n",
                stats.events_before, stats.events_after, stats.probes);
  out.report += buf;
  out.report += out.minimized_text;
  return out;
}

SweepResult run_sweep(const SweepOptions& opts) {
  // Work list in the canonical (profile, detector, seed) order; this order
  // — not the execution interleaving — defines every observable output.
  struct Item {
    Profile profile;
    fd::DetectorKind detector;
    uint64_t seed;
  };
  std::vector<Item> items;
  std::vector<fd::DetectorKind> detectors = opts.detectors;
  if (detectors.empty()) detectors.push_back(fd::DetectorKind::kOracle);
  for (Profile p : opts.profiles) {
    for (fd::DetectorKind d : detectors) {
      for (uint64_t seed = opts.seed_lo; seed < opts.seed_hi; ++seed) {
        items.push_back(Item{p, d, seed});
      }
    }
  }

  SweepResult result;
  result.runs = items.size();
  result.run_log.resize(items.size());

  unsigned jobs = opts.jobs == 0 ? std::thread::hardware_concurrency() : opts.jobs;
  if (jobs == 0) jobs = 1;
  if (jobs > items.size()) jobs = items.size() ? static_cast<unsigned>(items.size()) : 1;

  // Streaming bookkeeping: the sink sees the completed *prefix* of the work
  // list, so deliveries are in canonical order no matter which worker
  // finishes which run first.  Parallel sweeps publish completions through
  // per-worker SPSC rings; the main thread merges (see below).
  std::unique_ptr<SpscRing[]> rings;
  if (jobs > 1) rings = std::make_unique<SpscRing[]>(jobs);

  std::atomic<size_t> next{0};
  auto worker = [&](SpscRing* ring) {
    // One pooled cluster per worker thread, reset per run: the steady-state
    // sweep loop reuses every slab/node/monitor instead of rebuilding a
    // deployment per (profile, detector, seed).  Results are byte-identical
    // to fresh-cluster execution (pinned by determinism_test).
    std::optional<harness::Cluster> pooled;
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items.size()) return;
      const Item& item = items[i];
      if (item.profile == Profile::kGroupMux) {
        // One grid item is one whole mux plan, run to completion on this
        // worker: groups never interact, so the mux result is a pure
        // function of (seed, options) and the canonical merge gives --jobs
        // byte-identity exactly as for single-group runs.
        mux::MuxOptions m = opts.mux;
        m.gen = opts.gen;  // untuned: the mux storm-tunes per group/detector
        m.exec = opts.exec;
        m.exec.fd = item.detector;
        if (opts.soak) m.sopts = opts.soak_opts;
        const uint64_t allocs_before = opts.alloc_probe ? opts.alloc_probe() : 0;
        const auto t0 = std::chrono::steady_clock::now();
        const mux::MuxResult mres = mux::run_mux(item.seed, m);
        const auto t1 = std::chrono::steady_clock::now();
        SweepRun& run = result.run_log[i];
        run.allocs = opts.alloc_probe ? opts.alloc_probe() - allocs_before : 0;
        run.exec_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
        run.profile = item.profile;
        run.detector = item.detector;
        run.seed = item.seed;
        run.ok = mres.ok();
        // Summed per-group end ticks, not the plan horizon: this feeds the
        // --stats skip-ratio denominator, which compares fast-forwarded
        // ticks against total simulated time.
        run.end_tick = mres.sim_ticks;
        run.messages = mres.messages;
        run.fd_messages = mres.fd_messages;
        run.trace_hash = mres.trace_hash;
        run.skipped_ticks = mres.skipped_ticks;
        run.skipped_events = mres.skipped_events;
        run.aborted_joins = mres.aborted_joins;
        run.availability = mres.mean_availability();
        run.ops_attempted = mres.ops_attempted;
        run.ops_rejected = mres.ops_rejected;
        run.sync_passes = static_cast<size_t>(mres.sync_passes);
        run.groups = mres.groups;
        run.groups_failed = mres.failures;
        run.peak_resident = mres.peak_resident;
        run.peak_slots = mres.peak_slots;
        run.occupancy = mres.occupancy;
        render_mux(run, mres, opts);
        if (ring) {
          while (!ring->push(i)) std::this_thread::yield();
        } else if (opts.on_run) {
          opts.on_run(run);
        }
        continue;
      }
      GeneratorOptions gen = opts.gen;
      gen.profile = item.profile;
      ExecOptions exec = opts.exec;
      exec.fd = item.detector;
      // Timeout-detector runs draw from a storm distribution hot enough to
      // cross the suspicion threshold — otherwise the detector axis would
      // never exercise false detection, the behaviour it exists to fuzz.
      if (item.detector == fd::DetectorKind::kHeartbeat) {
        gen = tuned_for_heartbeat(gen, exec.heartbeat);
      } else if (item.detector == fd::DetectorKind::kPhi) {
        gen = tuned_for_phi(gen, exec.phi);
      }
      if (opts.soak) {
        // Soak runs stretch the fault schedule over the workload horizon and
        // mix restart churn into the generator (a crashed member reborn as a
        // fresh incarnation re-joining through normal admission).
        gen.horizon = std::max(gen.horizon, opts.soak_opts.horizon);
        gen.restart_weight = opts.soak_opts.restart_weight;
      }
      Schedule sched = generate(item.seed, gen);
      // First run on this worker: build the pooled cluster *before* the
      // telemetry sampling, so --stats never charges one-time construction
      // to a run's allocs=/exec= figures.
      if (!pooled) pooled.emplace(harness::ClusterOptions{});
      const uint64_t allocs_before = opts.alloc_probe ? opts.alloc_probe() : 0;
      const auto t0 = std::chrono::steady_clock::now();
      SweepRun& run = result.run_log[i];
      if (opts.soak) {
        soak::Workload w = soak::generate_workload(item.seed, opts.soak_opts);
        soak::SoakResult sres = soak::run_soak(sched, w, exec, opts.soak_opts, *pooled);
        const auto t1 = std::chrono::steady_clock::now();
        run.allocs = opts.alloc_probe ? opts.alloc_probe() - allocs_before : 0;
        run.exec_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
        run.profile = item.profile;
        run.detector = item.detector;
        run.seed = item.seed;
        run.ok = sres.ok();
        run.end_tick = sres.exec.end_tick;
        run.messages = sres.exec.messages;
        run.fd_messages = sres.exec.fd_messages;
        run.trace_hash = sres.exec.trace_hash;
        run.skipped_ticks = sres.exec.skipped_ticks;
        run.skipped_events = sres.exec.skipped_events;
        run.bursts = sres.exec.bursts;
        run.burst_events = sres.exec.burst_events;
        run.aborted_joins = sres.exec.aborted_joins;
        run.availability = sres.availability;
        run.ops_attempted = sres.ops_attempted;
        run.ops_rejected = sres.ops_rejected;
        run.sync_passes = sres.sync_passes;
        render_soak(run, sched, w, sres, opts, exec);
      } else {
        ExecResult res = execute(sched, exec, *pooled);
        const auto t1 = std::chrono::steady_clock::now();
        run.allocs = opts.alloc_probe ? opts.alloc_probe() - allocs_before : 0;
        run.exec_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
        run.profile = item.profile;
        run.detector = item.detector;
        run.seed = item.seed;
        run.ok = res.ok();
        run.end_tick = res.end_tick;
        run.messages = res.messages;
        run.fd_messages = res.fd_messages;
        run.trace_hash = res.trace_hash;
        run.skipped_ticks = res.skipped_ticks;
        run.skipped_events = res.skipped_events;
        run.bursts = res.bursts;
        run.burst_events = res.burst_events;
        run.aborted_joins = res.aborted_joins;
        render(run, sched, res, opts, exec);
      }
      if (ring) {
        // Publish the finished index; the main thread owns ordering.  A
        // full ring means the merger is momentarily behind — yield, don't
        // drop (every index must be delivered exactly once).
        while (!ring->push(i)) std::this_thread::yield();
      } else if (opts.on_run) {
        // Single-worker sweep: indices arrive in canonical order already.
        opts.on_run(run);
      }
    }
  };

  if (jobs <= 1) {
    worker(nullptr);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker, &rings[t]);
    // The main thread is the merger: drain every worker's ring into the
    // completed bitmap and flush the canonical prefix through the sink.
    // This runs even without a sink so producers can never wedge on a ring
    // nobody empties.
    std::vector<uint8_t> completed(items.size(), 0);
    size_t flushed = 0;
    size_t seen = 0;
    while (seen < items.size()) {
      bool drained_any = false;
      for (unsigned t = 0; t < jobs; ++t) {
        size_t i;
        while (rings[t].pop(i)) {
          completed[i] = 1;
          ++seen;
          drained_any = true;
        }
      }
      while (flushed < items.size() && completed[flushed]) {
        if (opts.on_run) opts.on_run(result.run_log[flushed]);
        ++flushed;
      }
      if (!drained_any) std::this_thread::yield();
    }
    for (std::thread& t : pool) t.join();
  }

  // Deterministic merge: reports concatenate in work-list order.
  for (const SweepRun& run : result.run_log) {
    if (!run.ok) ++result.failures;
    result.output += run.report;
  }
  return result;
}

}  // namespace gmpx::scenario
