#include "sim_replay.hpp"

#include <algorithm>
#include <optional>

#include "fd/detector.hpp"
#include "soak/app_oracle.hpp"
#include "soak/availability.hpp"
#include "soak/host.hpp"
#include "trace/checker.hpp"

namespace perfbench {

using namespace gmpx;

UnitOutcome replay_unit(const UnitSpec& spec, harness::Cluster& cluster, SpanLog* log,
                        uint32_t unit) {
  UnitOutcome out;
  scenario::Schedule sched;
  soak::Workload workload;
  std::optional<soak::SoakHost> host;
  scenario::ExecOptions exec = spec.exec;
  {
    SpanLog::Scope root(log, "unit", unit);
    {
      SpanLog::Scope s(log, "scenario.generate", unit);
      sched = scenario::generate(spec.seed, spec.gen);
    }
    if (spec.soak) {
      {
        SpanLog::Scope s(log, "soak.workload_gen", unit);
        workload = soak::generate_workload(spec.seed, *spec.soak);
        // The mux's cross-group sessions: this group's clients fold onto the
        // shared session ids.
        if (spec.sessions) {
          for (soak::WorkloadOp& op : workload.ops) {
            op.client = (op.client + spec.gid) % spec.sessions;
          }
        }
      }
      host.emplace(workload, *spec.soak);
      soak::SoakHost* h = &*host;
      exec.on_pre_start = [h](harness::Cluster& c) { h->attach(c); };
      exec.on_quiesced = [h, log, unit](harness::Cluster& c, int pass) {
        SpanLog::Scope s(log, "soak.sync", unit);
        return h->on_quiesced(c, pass);
      };
    }
    {
      SpanLog::Scope s(log, "harness.reset", unit);
      cluster.reset(scenario::cluster_options_for(sched, exec));
    }
    scenario::StagedRun run(cluster, sched, exec);
    {
      SpanLog::Scope s(log, "scenario.install", unit);
      run.install();
    }
    {
      SpanLog::Scope s(log, "executor.advance", unit);
      run.advance(exec.max_sim_events);
    }
    const scenario::ExecResult& r = run.result();
    out.ok = r.ok();
    if (!r.quiesced) out.clauses.push_back("quiescence");
    for (const std::string& c : r.check.clauses()) out.clauses.push_back(c);
    out.trace_hash = r.trace_hash;
    out.messages = r.messages;
    out.fd_messages = r.fd_messages;
    out.end_tick = r.end_tick;
    out.skipped_ticks = r.skipped_ticks;
    out.bursts = r.bursts;
    out.burst_events = r.burst_events;
    if (log) {
      // The verdict inside advance() already ran the checker; re-running it
      // over the retained recorder times that layer on its own.  Safety
      // clauses only: GMP-5 gating needs run facts the recorder lacks.
      SpanLog::Scope s(log, "trace.check", unit);
      trace::CheckOptions co;
      co.check_liveness = false;
      const bool recheck_ok = trace::check_gmp(cluster.recorder(), co).ok();
      bool verdict_safe = true;
      for (const std::string& c : r.check.clauses()) verdict_safe = verdict_safe && c == "GMP-5";
      out.recheck_agrees = recheck_ok == verdict_safe;
    }
    if (host) {
      out.ops_attempted = host->attempted();
      out.ops_rejected = host->rejected();
      out.sync_passes = host->sync_passes();
      {
        SpanLog::Scope s(log, "soak.availability", unit);
        out.availability =
            soak::availability_from_trace(cluster.recorder(), r.end_tick, exec.require_majority);
      }
      soak::AppCheckOptions aopts;
      aopts.staleness_bound = spec.soak->staleness_bound;
      aopts.check_terminal = r.quiesced && r.liveness_checked;
      trace::CheckResult app;
      {
        SpanLog::Scope s(log, "soak.app_check", unit);
        app = soak::check_app(host->trace(), cluster.recorder(), sched, host->survivors(),
                              host->final_states(), aopts);
      }
      if (!app.ok()) {
        out.ok = false;
        for (const std::string& c : app.clauses()) out.clauses.push_back(c);
      }
    }
  }
  if (log) cluster.recorder().for_each_event([&out](const trace::Event&) { ++out.trace_events; });
  return out;
}

std::vector<UnitSpec> sweep_units(const scenario::SweepOptions& opts) {
  std::vector<UnitSpec> units;
  for (scenario::Profile p : opts.profiles) {
    for (fd::DetectorKind d : opts.detectors) {
      for (uint64_t seed = opts.seed_lo; seed < opts.seed_hi; ++seed) {
        UnitSpec u;
        u.seed = seed;
        u.gen = opts.gen;
        u.gen.profile = p;
        u.exec = opts.exec;
        u.exec.fd = d;
        if (d == fd::DetectorKind::kHeartbeat) {
          u.gen = scenario::tuned_for_heartbeat(u.gen, u.exec.heartbeat);
        } else if (d == fd::DetectorKind::kPhi) {
          u.gen = scenario::tuned_for_phi(u.gen, u.exec.phi);
        }
        if (opts.soak) {
          u.gen.horizon = std::max(u.gen.horizon, opts.soak_opts.horizon);
          u.gen.restart_weight = opts.soak_opts.restart_weight;
          u.soak = &opts.soak_opts;
        }
        units.push_back(u);
      }
    }
  }
  return units;
}

std::vector<UnitSpec> grid_units(const std::vector<scenario::SweepOptions>& cells) {
  std::vector<UnitSpec> units;
  for (const scenario::SweepOptions& c : cells) {
    for (const UnitSpec& u : sweep_units(c)) units.push_back(u);
  }
  return units;
}

std::vector<UnitSpec> mux_units(uint64_t plan_seed, const mux::MuxOptions& opts) {
  std::vector<UnitSpec> units;
  for (const mux::GroupSpec& g : mux::generate_mux_plan(plan_seed, opts).groups) {
    UnitSpec u;
    u.seed = g.seed;
    u.gen = opts.gen;
    u.gen.profile = g.profile;
    if (opts.with_sessions) {
      u.gen.horizon = std::max(u.gen.horizon, opts.sopts.horizon);
      u.gen.restart_weight = opts.sopts.restart_weight;
      u.soak = &opts.sopts;
      u.sessions = static_cast<uint32_t>(std::max<size_t>(opts.sessions, 1));
      u.gid = g.gid;
    }
    u.exec = opts.exec;
    if (u.exec.fd == fd::DetectorKind::kHeartbeat) {
      u.gen = scenario::tuned_for_heartbeat(u.gen, u.exec.heartbeat);
    } else if (u.exec.fd == fd::DetectorKind::kPhi) {
      u.gen = scenario::tuned_for_phi(u.gen, u.exec.phi);
    }
    units.push_back(u);
  }
  return units;
}

uint64_t prepare_inputs(const std::vector<UnitSpec>& units) {
  uint64_t inputs = 0;
  std::optional<scenario::Schedule> first;
  for (const UnitSpec& u : units) {
    scenario::Schedule sched = scenario::generate(u.seed, u.gen);
    inputs += sched.events.size();
    if (u.soak) inputs += soak::generate_workload(u.seed, *u.soak).ops.size();
    if (!first) first = std::move(sched);
  }
  if (first) {
    harness::Cluster cluster{harness::ClusterOptions{}};
    cluster.reset(scenario::cluster_options_for(*first, units.front().exec));
  }
  return inputs;
}

std::vector<UnitOutcome> replay_all(const std::vector<UnitSpec>& units, SpanLog* log,
                                    double& wall_s) {
  std::vector<UnitOutcome> outcomes;
  outcomes.reserve(units.size());
  harness::Cluster cluster{harness::ClusterOptions{}};
  const uint64_t t0 = now_ns();
  for (size_t i = 0; i < units.size(); ++i) {
    const uint32_t unit = static_cast<uint32_t>(i);
    if (log) log->label_unit(unit, fd::to_string(units[i].exec.fd));
    outcomes.push_back(replay_unit(units[i], cluster, log, unit));
  }
  wall_s = seconds_since(t0);
  return outcomes;
}

std::vector<UnitOutcome> traced_replay(const std::vector<UnitSpec>& units, SpanLog& log,
                                       double& untraced_wall_s, double& traced_wall_s) {
  double warm_up = 0.0, before = 0.0, after = 0.0;
  (void)replay_all(units, nullptr, warm_up);
  (void)replay_all(units, nullptr, before);
  std::vector<UnitOutcome> outcomes = replay_all(units, &log, traced_wall_s);
  (void)replay_all(units, nullptr, after);
  untraced_wall_s = (before + after) / 2.0;
  return outcomes;
}

void report_sim_layers(const SpanLog& log, const std::vector<UnitSpec>& units,
                       const std::vector<UnitOutcome>& outcomes, Report& rep) {
  const auto totals = log.totals();
  auto span_us = [&totals](const std::string& name, const std::string& det, bool self) {
    auto it = totals.find(name + "." + det);
    if (it == totals.end()) return 0.0;
    return static_cast<double>(self ? it->second.self_ns : it->second.incl_ns) * 1e-3;
  };
  bool any_soak = false;
  for (fd::DetectorKind kind :
       {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat, fd::DetectorKind::kPhi}) {
    const std::string det = fd::to_string(kind);
    double runs = 0, msgs = 0, fd_msgs = 0, events = 0, bursts = 0, burst_events = 0;
    double end_ticks = 0, skipped = 0;
    for (size_t i = 0; i < units.size(); ++i) {
      if (units[i].exec.fd != kind) continue;
      const UnitOutcome& o = outcomes[i];
      runs += 1;
      msgs += static_cast<double>(o.messages);
      fd_msgs += static_cast<double>(o.fd_messages);
      events += static_cast<double>(o.trace_events);
      bursts += static_cast<double>(o.bursts);
      burst_events += static_cast<double>(o.burst_events);
      end_ticks += static_cast<double>(o.end_tick);
      skipped += static_cast<double>(o.skipped_ticks);
      any_soak = any_soak || units[i].soak;
    }
    if (runs == 0) continue;
    const double check = span_us("trace.check", det, true) / runs;
    const double advance_self = span_us("executor.advance", det, true) / runs;
    rep.metric("scenario.generate_us." + det, span_us("scenario.generate", det, true) / runs, "us");
    rep.metric("scenario.install_us." + det, span_us("scenario.install", det, true) / runs, "us");
    rep.metric("harness.reset_us." + det, span_us("harness.reset", det, true) / runs, "us");
    rep.metric("executor.advance_us." + det, span_us("executor.advance", det, false) / runs, "us");
    rep.metric("sim.dispatch_us." + det, std::max(advance_self - check, 0.0), "us");
    rep.metric("trace.check_us." + det, check, "us");
    rep.metric("sim.msgs_per_run." + det, msgs / runs, "count");
    rep.metric("fd.msgs_per_run." + det, fd_msgs / runs, "count");
    rep.metric("sim.skip_ratio." + det, end_ticks > 0 ? skipped / end_ticks : 0.0, "ratio");
    rep.metric("trace.events_per_run." + det, events / runs, "count");
    if (kind == fd::DetectorKind::kOracle) {
      rep.metric("sim.mean_burst", bursts > 0 ? burst_events / bursts : 0.0, "count");
    }
  }
  if (!any_soak) return;

  // Soak layers, pooled over detectors.
  double runs = 0, sync_passes = 0, attempted = 0, rejected = 0;
  for (size_t i = 0; i < units.size(); ++i) {
    if (!units[i].soak) continue;
    runs += 1;
    sync_passes += static_cast<double>(outcomes[i].sync_passes);
    attempted += static_cast<double>(outcomes[i].ops_attempted);
    rejected += static_cast<double>(outcomes[i].ops_rejected);
  }
  auto pooled_us = [&](const std::string& name) {
    double sum = 0;
    for (const char* det : {"oracle", "heartbeat", "phi"}) sum += span_us(name, det, true);
    return sum / runs;
  };
  rep.metric("soak.workload_gen_us", pooled_us("soak.workload_gen"), "us");
  rep.metric("soak.sync_us", pooled_us("soak.sync"), "us");
  rep.metric("soak.sync_passes", sync_passes / runs, "count");
  rep.metric("soak.app_check_us", pooled_us("soak.app_check"), "us");
  rep.metric("soak.availability_us", pooled_us("soak.availability"), "us");
  rep.metric("soak.ops_rejected_ratio", attempted > 0 ? rejected / attempted : 0.0, "ratio");
}

double tracing_overhead(const SpanLog& log, double untraced_wall_s) {
  const double traced_s =
      static_cast<double>(log.incl_ns_of("unit") - log.incl_ns_of("trace.check")) * 1e-9;
  return untraced_wall_s > 0 ? traced_s / untraced_wall_s - 1.0 : 0.0;
}

}  // namespace perfbench
