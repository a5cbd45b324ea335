// fuzz-sweep and soak-week: the sharded run_sweep grid, closed batch.
//
//   fuzz-sweep  five single-group profiles x {oracle, heartbeat, phi} x a
//               seed range, at n=5 and n=9.  Short, fault-dense runs: per-run
//               fixed costs and the SPSC merge are a large share of the time.
//   soak-week   the same grid in soak mode (2M-tick horizon, seeded client
//               workloads, restart churn), n=5.  Long, mostly idle horizons:
//               the skip engine, the apps, anti-entropy sync and the APP
//               oracles carry the work.
//
// A round runs the whole grid once with jobs = nproc - 1.  Rounds repeat the
// same inputs until the run's time is up; every round must produce the same
// deterministic fields, and so must one extra round at jobs = 1.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "scenario/sweep.hpp"
#include "sim_replay.hpp"

namespace perfbench {

using namespace gmpx;

namespace {

struct Round {
  double wall_s = 0.0;
  std::vector<std::vector<double>> exec_us;  ///< SweepRun::exec_ns, one stratum per detector
  uint64_t exec_ns = 0;
  uint64_t runs = 0;
  uint64_t failures = 0;
  Digest digest;
  std::string first_failure;
  std::vector<uint64_t> hashes;  ///< per run, canonical order
};

Round run_round(std::vector<scenario::SweepOptions> cells, unsigned jobs) {
  Round r;
  r.exec_us.resize(3);
  std::vector<scenario::SweepResult> results;
  const uint64_t t0 = now_ns();
  for (scenario::SweepOptions& cell : cells) {
    cell.jobs = jobs;
    results.push_back(scenario::run_sweep(cell));
  }
  r.wall_s = seconds_since(t0);
  for (const scenario::SweepResult& res : results) {
    for (const scenario::SweepRun& run : res.run_log) {
      r.digest.add(run.trace_hash, run.messages, run.skipped_ticks, run.availability,
                   run.ops_attempted);
      r.exec_us[static_cast<size_t>(run.detector)].push_back(static_cast<double>(run.exec_ns) *
                                                            1e-3);
      r.exec_ns += run.exec_ns;
      r.hashes.push_back(run.trace_hash);
      ++r.runs;
      if (!run.ok) {
        ++r.failures;
        if (r.first_failure.empty()) r.first_failure = run.report;
      }
    }
  }
  return r;
}

std::string tail_detail(const Tail& t, size_t rounds) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "(p%g of %zu runs per detector per round, mean over detectors, median of %zu "
                "rounds)",
                t.pct, t.samples, rounds);
  return buf;
}

/// Traced run: an untraced jobs = N round for the sweep-merge metrics, then
/// the same inputs replayed on one thread through the layer calls, traced
/// and, as the tracing baseline, untraced.
void traced(const Args& args, Report& rep, const std::vector<scenario::SweepOptions>& cells,
            unsigned jobs) {
  const Round parallel = run_round(cells, jobs);
  rep.metric("sweep.busy_share",
             static_cast<double>(parallel.exec_ns) * 1e-9 / (parallel.wall_s * jobs), "ratio");
  rep.metric("sweep.overhead_us",
             (parallel.wall_s * jobs - static_cast<double>(parallel.exec_ns) * 1e-9) * 1e6 /
                 static_cast<double>(parallel.runs),
             "us");

  const std::vector<UnitSpec> units = grid_units(cells);
  double untraced_wall = 0.0, traced_wall = 0.0;
  SpanLog log;
  const std::vector<UnitOutcome> outcomes = traced_replay(units, log, untraced_wall, traced_wall);
  report_sim_layers(log, units, outcomes, rep);
  rep.metric("trace.overhead_ratio", tracing_overhead(log, untraced_wall), "ratio");

  uint64_t failed = 0;
  double availability = 0.0;
  bool diverged = false, disagreed = false;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) ++failed;
    availability += outcomes[i].availability;
    diverged = diverged || outcomes[i].trace_hash != parallel.hashes[i];
    disagreed = disagreed || !outcomes[i].recheck_agrees;
  }
  diverged = diverged || availability != parallel.digest.availability;
  if (diverged) rep.fail("traced replay diverged from run_sweep (trace hashes or availability)");
  if (disagreed) rep.fail("trace::check_gmp re-check disagrees with a run verdict");
  if (failed) rep.fail(std::to_string(failed) + " failing runs");
  rep.count(outcomes.size(), failed);
  if (!args.trace_out.empty() && !log.write(args.trace_out)) {
    rep.note("could not write spans to " + args.trace_out);
  }
  rep.note("traced " + std::to_string(units.size()) + " runs; untraced single-thread pass " +
           std::to_string(untraced_wall) + " s, traced " + std::to_string(traced_wall) + " s");
}

void run_grid(const Args& args, Report& rep, const std::vector<scenario::SweepOptions>& cells,
              bool soak) {
  const unsigned jobs = sweep_jobs();
  rep.note("sweep jobs=" + std::to_string(jobs) + " (nproc - 1), closed batch");
  if (args.trace) {
    traced(args, rep, cells, jobs);
    return;
  }

  SetupTimer setup([&] { return prepare_inputs(grid_units(cells)); });
  // Rounds are summarized as they finish, so the run's bookkeeping does not
  // grow with the number of rounds and show up in peak_rss_mb.
  Round first;
  size_t rounds = 0;
  std::vector<double> rate, p50, tail, ops_rate;
  Tail last;
  uint64_t runs = 0, failures = 0;
  const uint64_t start = now_ns();
  do {
    setup.time_pass();
    Round r = run_round(cells, jobs);
    rate.push_back(static_cast<double>(r.runs) / r.wall_s);
    const Summary sum = summarize(r.exec_us);
    p50.push_back(sum.p50);
    last = sum.tail;
    tail.push_back(last.value);
    ops_rate.push_back(static_cast<double>(r.digest.ops_attempted) / r.wall_s);
    runs += r.runs;
    failures += r.failures;
    // Determinism: every round, and the jobs = 1 round below, agree exactly.
    if (rounds == 0) {
      first = std::move(r);
    } else if (!(r.digest == first.digest)) {
      rep.fail("round " + std::to_string(rounds) + " digest differs: " + r.digest.str());
    }
    ++rounds;
  } while (seconds_since(start) < args.seconds);
  const double setup_s = setup.setup_s(rep);
  const Round single = run_round(cells, 1);

  rep.note("determinism " + first.digest.str());
  if (!(single.digest == first.digest)) {
    rep.fail("jobs=1 digest differs from jobs=" + std::to_string(jobs) + ": " +
             single.digest.str());
  }
  rep.note("determinism check: " + std::to_string(rounds) + " rounds at jobs=" +
           std::to_string(jobs) + " and one at jobs=1 compared");
  rep.note("per-round throughput_per_s " + spread(rate));
  rep.note("per-round unit_p50_us " + spread(p50));
  rep.count(runs, failures);
  if (failures) {
    rep.fail(std::to_string(first.failures) + " failing runs per round; first:\n" +
             first.first_failure);
  }

  const double rss = peak_rss_mb();
  rep.metric("setup_s", setup_s, "s");
  rep.metric("throughput_per_s", median(rate), "1/s");
  rep.metric("unit_p50_us", median(p50), "us");
  rep.metric("unit_tail_us", median(tail), "us");
  rep.metric("peak_rss_mb", rss, "MB");

  rep.figure("schedules_per_s", median(rate), "1/s");
  rep.figure("run_p50_us", median(p50), "us");
  rep.figure("run_tail_us", median(tail), "us", tail_detail(last, rounds));
  if (soak) {
    rep.figure("client_ops_per_s", median(ops_rate), "1/s");
    rep.figure("availability", first.digest.availability / static_cast<double>(first.runs),
               "ratio");
  }
  rep.figure("setup_s", setup_s, "s");
  rep.figure("peak_rss_mb", rss, "MB");
  rep.figure("fail_ratio", static_cast<double>(failures) / static_cast<double>(runs), "ratio",
             fail_detail(failures, runs, "runs"));
}

/// First seed of the workload's range: the benchmark seed picks a
/// well-separated slice of the generator's seed space.
uint64_t seed_base(uint64_t seed) { return mix64(seed) >> 24; }

}  // namespace

void run_fuzz_sweep(const Args& args, Report& rep) {
  const uint64_t seeds = args.quick ? 4 : 100;
  std::vector<scenario::SweepOptions> cells;
  for (size_t n : {5, 9}) {
    scenario::SweepOptions o;
    o.seed_lo = seed_base(args.seed);
    o.seed_hi = o.seed_lo + seeds;
    o.detectors = {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat,
                   fd::DetectorKind::kPhi};
    o.gen.n = n;
    cells.push_back(o);
  }
  rep.note("fuzz-sweep: 5 profiles x 3 detectors x " + std::to_string(seeds) +
           " seeds x n={5,9} from seed " + std::to_string(cells[0].seed_lo));
  run_grid(args, rep, cells, /*soak=*/false);
}

void run_soak_week(const Args& args, Report& rep) {
  const uint64_t seeds = args.quick ? 1 : 40;
  scenario::SweepOptions o;
  o.seed_lo = seed_base(args.seed);
  o.seed_hi = o.seed_lo + seeds;
  o.detectors = {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat, fd::DetectorKind::kPhi};
  o.gen.n = 5;
  o.soak = true;  // soak_opts defaults: 2M-tick horizon, 256 ops, restart churn
  rep.note("soak-week: 5 profiles x 3 detectors x " + std::to_string(seeds) +
           " seeds, n=5, horizon " + std::to_string(o.soak_opts.horizon) + " ticks, from seed " +
           std::to_string(o.seed_lo));
  run_grid(args, rep, {o}, /*soak=*/true);
}

}  // namespace perfbench
