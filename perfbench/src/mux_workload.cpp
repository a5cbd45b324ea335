// mux-fleet: run_mux on one thread, one plan per detector, client sessions
// on, thousands of mostly-idle groups so the peak resident slot pool is in
// the thousands.  Per-group create/reset/retire churn, the cohort heap and
// resident memory dominate; the sweep merge is bypassed entirely.
//
// A round runs the three plans once.  Rounds repeat the same plans until the
// run's time is up and must agree exactly on the deterministic fields.
//
// Known failure baseline: the registry's bounded-staleness oracle (APP-R4)
// fails a few groups in 10^5 (the first recorded case:
// `gmpx_fuzz --seeds 1:2 --mux --mux-groups 2000 --fd oracle`, group 1308,
// lossy).  Failing groups are counted into fail_ratio; the report stays
// correct while every failure is that clause and the ratio stays under
// kBaselineCeiling.  Anything else is a new failure and fails the check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mux/group_mux.hpp"
#include "sim_replay.hpp"

namespace perfbench {

using namespace gmpx;

namespace {

constexpr const char* kBaselineClause = "APP-R4";
constexpr double kBaselineCeiling = 1e-3;

constexpr fd::DetectorKind kDetectors[] = {fd::DetectorKind::kOracle,
                                           fd::DetectorKind::kHeartbeat, fd::DetectorKind::kPhi};

/// Mostly-idle fleet: a burst of reconfiguration near each group's start, a
/// trickle of session ops over a long horizon, overlapping lifetimes.
mux::MuxOptions fleet(bool quick, fd::DetectorKind detector) {
  mux::MuxOptions m;
  m.groups = quick ? 96 : 3000;
  m.sessions = 16;
  m.spawn_span = 400'000;
  m.min_lifetime = 120'000;
  m.max_lifetime = 360'000;
  m.gen.max_events = 6;
  m.sopts.horizon = 150'000;
  m.sopts.ops = 8;
  m.exec.fd = detector;
  return m;
}

uint64_t plan_seed(uint64_t seed, size_t detector_index) {
  return mix64(seed * 4 + detector_index);
}

/// Groups per latency sample: the mux interleaves groups, so a single
/// group has no wall-clock latency of its own; the wall time between a
/// group conclusion and the one kBlock conclusions later, divided by kBlock,
/// is the per-group cost over that stretch of the plan.
constexpr size_t kBlock = 16;

struct Plan {
  mux::MuxResult res;
  double wall_s = 0.0;
  std::vector<double> group_us;  ///< per-group wall cost, one sample per kBlock groups
  std::vector<uint32_t> failed_gids;
};

Plan run_plan(uint64_t seed, const mux::MuxOptions& base) {
  Plan p;
  mux::MuxOptions m = base;
  std::vector<uint64_t> done_ns;
  done_ns.reserve(m.groups);
  std::vector<uint32_t>& failed = p.failed_gids;
  m.on_group = [&done_ns, &failed](const mux::GroupOutcome& g) {
    done_ns.push_back(now_ns());
    if (!g.exec.ok() || !g.app_ok) failed.push_back(g.gid);
  };
  const uint64_t t0 = now_ns();
  p.res = mux::run_mux(seed, m);
  p.wall_s = seconds_since(t0);
  for (size_t i = kBlock; i < done_ns.size(); i += kBlock) {
    p.group_us.push_back(static_cast<double>(done_ns[i] - done_ns[i - kBlock]) * 1e-3 / kBlock);
  }
  return p;
}

/// A failing group passes the check only when it fails the known baseline
/// clause and nothing else.
void judge_group(const UnitOutcome& o, const std::string& where, Report& rep) {
  std::string clauses;
  bool known = !o.clauses.empty();
  for (const std::string& c : o.clauses) {
    clauses += (clauses.empty() ? "" : ",") + c;
    known = known && c == kBaselineClause;
  }
  const std::string what = where + ": " + (clauses.empty() ? "no violation on replay" : clauses);
  if (known) {
    rep.note("known baseline failure (" + std::string(kBaselineClause) + "), " + what);
  } else {
    rep.fail("new mux failure, " + what);
  }
}

/// Judge the failing groups of a plan by replaying each one alone (failures
/// are rare, so this stays cheap) and reading its violated clauses.
void judge_failures(uint64_t seed, const mux::MuxOptions& m, const Plan& p, Report& rep) {
  if (p.failed_gids.empty()) return;
  const std::vector<UnitSpec> units = mux_units(seed, m);
  harness::Cluster cluster{harness::ClusterOptions{}};
  for (uint32_t gid : p.failed_gids) {
    const std::string where = std::string(fd::to_string(m.exec.fd)) + " plan " +
                              std::to_string(seed) + " group " + std::to_string(gid);
    judge_group(replay_unit(units[gid], cluster, nullptr, gid), where, rep);
  }
}

/// Traced run: the three plans through run_mux (untraced), then the same
/// groups one cluster at a time — traced through the layer calls, and
/// untraced before and after it for the mux A/B and the tracing baseline.
void traced(const Args& args, Report& rep) {
  double mux_wall = 0;
  uint64_t groups = 0, turns = 0;
  size_t peak = 0;
  double occupancy = 0;
  std::vector<mux::MuxOptions> shapes;
  std::vector<mux::MuxResult> results;
  std::vector<UnitSpec> units;
  for (size_t d = 0; d < 3; ++d) {
    shapes.push_back(fleet(args.quick, kDetectors[d]));
  }
  for (size_t d = 0; d < 3; ++d) {
    const uint64_t seed = plan_seed(args.seed, d);
    const Plan p = run_plan(seed, shapes[d]);
    mux_wall += p.wall_s;
    groups += p.res.groups;
    turns += p.res.turns;
    peak = std::max(peak, p.res.peak_resident);
    occupancy += p.res.occupancy / 3.0;
    results.push_back(p.res);
    for (const UnitSpec& u : mux_units(seed, shapes[d])) units.push_back(u);
  }
  double serial_wall = 0, traced_wall = 0;
  SpanLog log;
  const std::vector<UnitOutcome> outcomes = traced_replay(units, log, serial_wall, traced_wall);

  // Cross-check: per plan, the serial replay folds to run_mux's trace hash,
  // sums to its availability and fails exactly as many groups.
  uint64_t failed = 0;
  size_t next = 0;
  for (size_t d = 0; d < 3; ++d) {
    uint64_t fold = 1469598103934665603ull, plan_failed = 0;
    double availability = 0.0;
    for (size_t g = 0; g < results[d].groups; ++g, ++next) {
      fold = mix64(fold ^ outcomes[next].trace_hash);
      availability += outcomes[next].availability;
      if (!outcomes[next].ok) {
        ++plan_failed;
        judge_group(outcomes[next], std::string(fd::to_string(kDetectors[d])) + " group " +
                                        std::to_string(g), rep);
      }
      if (!outcomes[next].recheck_agrees) {
        rep.fail("trace::check_gmp re-check disagrees with the verdict of group " +
                 std::to_string(g));
      }
    }
    // run_mux sums availability in retirement order, the replay in gid order.
    const double avail_gap = std::abs(availability - results[d].availability_sum);
    if (fold != results[d].trace_hash || plan_failed != results[d].failures ||
        avail_gap > 1e-9 * std::max(1.0, results[d].availability_sum)) {
      rep.fail(std::string("serial replay of the ") + fd::to_string(kDetectors[d]) +
               " plan diverged from run_mux");
    }
    failed += plan_failed;
  }
  report_sim_layers(log, units, outcomes, rep);
  rep.metric("mux.serial_ratio", mux_wall / serial_wall, "ratio");
  rep.metric("mux.turns_per_group", static_cast<double>(turns) / static_cast<double>(groups),
             "count");
  rep.metric("mux.peak_resident", static_cast<double>(peak), "count");
  rep.metric("mux.occupancy", occupancy, "ratio");
  rep.metric("trace.overhead_ratio", tracing_overhead(log, serial_wall), "ratio");
  rep.count(groups, failed);
  if (!args.trace_out.empty() && !log.write(args.trace_out)) {
    rep.note("could not write spans to " + args.trace_out);
  }
  rep.note("mux " + std::to_string(mux_wall) + " s, serial " + std::to_string(serial_wall) +
           " s, traced serial " + std::to_string(traced_wall) + " s over " +
           std::to_string(groups) + " groups");
}

}  // namespace

void run_mux_fleet(const Args& args, Report& rep) {
  const mux::MuxOptions shape = fleet(args.quick, fd::DetectorKind::kOracle);
  rep.note("mux-fleet: one run_mux plan per detector on one thread, " +
           std::to_string(shape.groups) + " groups each, sessions on, closed batch");
  if (args.trace) {
    traced(args, rep);
    return;
  }

  // Set-up: every plan generated and its groups' inputs made ready.
  std::vector<mux::MuxOptions> shapes;
  for (fd::DetectorKind d : kDetectors) shapes.push_back(fleet(args.quick, d));
  SetupTimer setup([&] {
    uint64_t inputs = 0;
    for (size_t d = 0; d < 3; ++d) {
      inputs += prepare_inputs(mux_units(plan_seed(args.seed, d), shapes[d]));
    }
    return inputs;
  });

  std::vector<Digest> digests;
  std::vector<double> rate, ops_rate, p50, tail;
  Tail last;
  uint64_t groups = 0, failed = 0;
  size_t peak = 0;
  double availability = 0;
  std::vector<Plan> first_round;
  const uint64_t start = now_ns();
  do {
    Digest dg;
    std::vector<std::vector<double>> cost;  // one stratum per detector plan
    double wall = 0, round_groups = 0, ops = 0, avail_sum = 0, avail_runs = 0;
    std::vector<Plan> plans;
    for (size_t d = 0; d < 3; ++d) {
      setup.time_pass();  // one per plan: a round holds only three plans
      Plan p = run_plan(plan_seed(args.seed, d), shapes[d]);
      dg.add(p.res.trace_hash, p.res.messages, p.res.skipped_ticks, p.res.availability_sum,
             p.res.ops_attempted);
      cost.push_back(p.group_us);
      wall += p.wall_s;
      round_groups += static_cast<double>(p.res.groups);
      ops += static_cast<double>(p.res.ops_attempted);
      avail_sum += p.res.availability_sum;
      avail_runs += static_cast<double>(p.res.availability_runs);
      groups += p.res.groups;
      failed += p.res.failures;
      peak = std::max(peak, p.res.peak_resident);
      plans.push_back(std::move(p));
    }
    digests.push_back(dg);
    rate.push_back(round_groups / wall);
    ops_rate.push_back(ops / wall);
    const Summary sum = summarize(cost);
    p50.push_back(sum.p50);
    last = sum.tail;
    tail.push_back(last.value);
    availability = avail_sum / avail_runs;
    if (first_round.empty()) first_round = std::move(plans);
  } while (seconds_since(start) < args.seconds);
  const double setup_s = setup.setup_s(rep);

  rep.note("per-round throughput_per_s " + spread(rate));
  rep.note("per-round unit_p50_us " + spread(p50));
  rep.note("determinism " + digests.front().str());
  for (size_t i = 1; i < digests.size(); ++i) {
    if (!(digests[i] == digests.front())) {
      rep.fail("round " + std::to_string(i) + " digest differs: " + digests[i].str());
    }
  }
  rep.note("determinism check: " + std::to_string(digests.size()) + " rounds compared");
  for (size_t d = 0; d < 3; ++d) {
    judge_failures(plan_seed(args.seed, d), shapes[d], first_round[d], rep);
  }
  const double fail_ratio = static_cast<double>(failed) / static_cast<double>(groups);
  if (fail_ratio > kBaselineCeiling) {
    rep.fail("group fail_ratio " + std::to_string(fail_ratio) + " exceeds the known baseline " +
             std::to_string(kBaselineCeiling));
  }
  rep.count(groups, failed);

  const double rss = peak_rss_mb();
  rep.metric("setup_s", setup_s, "s");
  rep.metric("throughput_per_s", median(rate), "1/s");
  rep.metric("unit_p50_us", median(p50), "us");
  rep.metric("unit_tail_us", median(tail), "us");
  rep.metric("peak_rss_mb", rss, "MB");

  char detail[128];
  std::snprintf(detail, sizeof detail,
                "(p%g of %zu blocks of %zu groups per plan, mean over plans)", last.pct,
                last.samples, kBlock);
  rep.figure("groups_per_s", median(rate), "1/s");
  rep.figure("client_ops_per_s", median(ops_rate), "1/s");
  rep.figure("availability", availability, "ratio");
  rep.figure("group_cost_p50_us", median(p50), "us");
  rep.figure("group_cost_tail_us", median(tail), "us", detail);
  rep.figure("peak_resident", static_cast<double>(peak), "count");
  rep.figure("setup_s", setup_s, "s");
  rep.figure("peak_rss_mb", rss, "MB");
  rep.figure("fail_ratio", fail_ratio, "ratio",
             fail_detail(failed, groups, "groups"));
}

}  // namespace perfbench
