// gmpx_fuzz — seeded fault-schedule fuzzing for the GMP protocol.
//
//   gmpx_fuzz --seeds 0:1000 --profile all --nodes 5      # sweep
//   gmpx_fuzz --seeds 0:4000 --profile all --jobs 8       # sharded sweep
//   gmpx_fuzz --seeds 0:1000 --fd heartbeat               # real timeout FD
//   gmpx_fuzz --seeds 0:1000 --fd phi --profile lossy     # phi over faults
//   gmpx_fuzz --seeds 0:500 --fd oracle,heartbeat,phi     # several detectors
//   gmpx_fuzz --replay failing.sched                      # replay one file
//   gmpx_fuzz --replay failing.sched --minimize           # shrink it too
//
// For every (profile, detector, seed) triple the tool generates a schedule,
// replays it against a fresh simulated cluster, and validates the recorded
// trace against GMP-0..4 (plus GMP-5 when the schedule is
// liveness-eligible).  On a violation it prints the schedule text, greedily
// minimizes it to a minimal reproducer, and (with --out) writes both
// artifacts to disk.  `--fd` selects the failure-detection layer: "oracle"
// (scripted crash-hook injection), "heartbeat" (real ping/timeout
// monitoring; storms are calibrated to provoke genuine false suspicions),
// and/or "phi" (adaptive phi-accrual monitoring over the same wire traffic).
// `--jobs N` shards the grid across N worker threads, one independent
// simulated world per run; output and exit status are identical for every N
// (see scenario/sweep.hpp).
// Exit status: 0 = all runs clean, 1 = violations found, 2 = usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

// --stats telemetry: count heap allocations per worker thread so the sweep
// can report an allocs= figure per run (the zero-alloc steady state is a
// maintained property — see tests/alloc_test.cpp, which shares this
// counter definition).
#include "common/alloc_counter.hpp"  // defines counting operator new/delete

#include "common/codec.hpp"
#include "realexec/executor.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "scenario/sweep.hpp"
#include "soak/workload.hpp"

using namespace gmpx;
using namespace gmpx::scenario;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: gmpx_fuzz [--seeds LO:HI]\n"
               "                 [--profile mixed|churn|partition|burst|lossy|groupmux|all\n"
               "                  (or comma list; \"all\" = the five single-group\n"
               "                  profiles — groupmux is explicit opt-in)]\n"
               "                 [--fd oracle|heartbeat|phi|all (or comma list)]\n"
               "                 [--hb-interval T] [--hb-timeout T] [--phi-threshold F]\n"
               "                 [--phi-interval T] [--join-attempts N]\n"
               "                 [--nodes N] [--horizon T] [--max-events K] [--no-liveness]\n"
               "                 [--basic] [--inject-bug] [--out DIR] [--jobs N]\n"
               "                 [--soak] [--soak-horizon T] [--soak-clients N]\n"
               "                 [--soak-ops N] [--soak-mix W:R:T]\n"
               "                 [--mux] [--mux-groups N] [--mux-sessions N]\n"
               "                 [--mux-slice K] [--mux-spawn-span T]\n"
               "                 [--mux-lifetime LO:HI] [--mux-no-sessions]\n"
               "                 [--exec sim|tcp] [--tick-us U|auto] [--base-port P]\n"
               "                 [--node-bin PATH]\n"
               "                 [--replay FILE [--minimize]] [-v] [--stats]\n"
               "\n"
               "--fd heartbeat runs real ping/timeout detection instead of the scripted\n"
               "oracle (storm intensities are calibrated so false suspicions fire);\n"
               "--fd phi runs adaptive phi-accrual detection (--phi-threshold sets the\n"
               "suspicion level, default 8.0).  --profile lossy adds background-channel\n"
               "loss/dup/reorder spans and one-way partitions to the fault mix.\n"
               "--join-attempts overrides the joiner give-up cap (0 = default policy;\n"
               "200 reproduces the legacy open-ended retry horizon byte-for-byte).\n"
               "--inject-bug suppresses faulty_p(q) trace records (a deliberate GMP-1\n"
               "violation) to demonstrate the find -> report -> minimize pipeline.\n"
               "--exec tcp runs every schedule against BOTH the simulator and a live\n"
               "cluster of gmpx_node OS processes (faults injected by userspace\n"
               "proxies), and fails on any sim-vs-real verdict disagreement.  The\n"
               "detector is always heartbeat on the TCP axis (the oracle is a sim\n"
               "artifact).  --tick-us scales schedule ticks to real microseconds,\n"
               "--base-port moves the port window, --node-bin points at gmpx_node.\n"
               "--stats prints a per-run allocs=/exec=/skip= line and, per detector,\n"
               "schedules/s, wall-clock and the fast-forward skip ratio in the final\n"
               "report (telemetry; NOT byte-stable across --jobs values).\n"
               "--soak layers a per-seed generated client workload (registry\n"
               "reads/writes + work-queue items, primary-routed) over every fault\n"
               "schedule, mixes restart churn into the generator, and judges each run\n"
               "with the application oracles (APP-R1..R4, APP-Q1..Q2) alongside\n"
               "GMP-1..5, reporting a per-run availability figure (fraction of\n"
               "virtual time a majority view could serve).  --soak-horizon stretches\n"
               "the virtual horizon (default 2,000,000 ticks ~ a week at 300ms/tick),\n"
               "--soak-clients / --soak-ops size the workload, --soak-mix sets the\n"
               "write:read:task weighting.  A soak failure reproduces from its seed\n"
               "alone (the workload regenerates deterministically) and minimizes\n"
               "jointly: the fault schedule and the client workload shrink together.\n"
               "Soak is a sim-only mode (--exec tcp rejects it).\n"
               "--mux is shorthand for --profile groupmux: every seed names a whole\n"
               "group-churn plan — --mux-groups pooled deployments created and retired\n"
               "over a --mux-spawn-span window with lifetimes in --mux-lifetime,\n"
               "each drawing one of the five single-group profiles, multiplexed\n"
               "through one process over a shared slot pool (slices of --mux-slice\n"
               "events per turn) with per-group client sessions folded onto\n"
               "--mux-sessions global session ids (--mux-no-sessions disables the\n"
               "app layer).  Every group is judged like a single-group soak run;\n"
               "artifacts for the first failing group land in the report.  groupmux\n"
               "is sim-only and never part of \"all\" (one mux run costs ~a dozen\n"
               "soak runs, and pre-existing sweep output stays byte-identical).\n"
               "--tick-us auto calibrates the real-time tick from the host's measured\n"
               "scheduler jitter at startup instead of using the fixed default.\n");
}

struct Args {
  uint64_t seed_lo = 0, seed_hi = 100;
  std::string profile = "all";
  std::vector<fd::DetectorKind> detectors = {fd::DetectorKind::kOracle};
  GeneratorOptions gen;
  ExecOptions exec;
  /// --exec tcp: cross-check every schedule against a live process cluster.
  bool exec_tcp = false;
  realexec::TcpExecOptions tcp;
  std::string replay_file;
  bool minimize_replay = false;
  std::string out_dir;
  bool verbose = false;
  bool stats = false;
  unsigned jobs = 1;
  bool soak = false;
  soak::SoakOptions soak_opts;
  mux::MuxOptions mux;
};

/// Parse "mixed", "all", or a comma-separated profile list.
bool parse_profiles(const std::string& spec, std::vector<Profile>& out) {
  out.clear();
  if (spec == "all") {
    // kLossy appended LAST: "--profile all" output for the pre-existing
    // profiles stays a byte-identical prefix across this addition.
    // groupmux is deliberately NOT in "all": one mux run multiplexes a
    // dozen-odd soak-sized deployments, and "all" output must stay
    // byte-identical across releases — request it explicitly (--mux).
    out = {Profile::kMixed, Profile::kChurnHeavy, Profile::kPartitionHeavy,
           Profile::kBurstCrash, Profile::kLossy};
    return true;
  }
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string name = spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    Profile p;
    if (!parse_profile(name, p)) return false;
    out.push_back(p);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

/// Parse "oracle", "heartbeat", "all", or a comma-separated list.
bool parse_detectors(const std::string& spec, std::vector<fd::DetectorKind>& out) {
  out.clear();
  if (spec == "all") {
    out = {fd::DetectorKind::kOracle, fd::DetectorKind::kHeartbeat, fd::DetectorKind::kPhi};
    return true;
  }
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string name = spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    fd::DetectorKind k;
    if (!fd::parse_detector(name, k)) return false;
    out.push_back(k);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--seeds") {
      const char* v = next();
      if (!v) return false;
      char* colon = nullptr;
      a.seed_lo = std::strtoull(v, &colon, 10);
      if (colon == v || *colon != ':') return false;
      char* end = nullptr;
      a.seed_hi = std::strtoull(colon + 1, &end, 10);
      if (end == colon + 1 || *end != '\0') return false;
    } else if (arg == "--profile") {
      const char* v = next();
      if (!v) return false;
      a.profile = v;
      std::vector<Profile> ps;
      if (!parse_profiles(a.profile, ps)) return false;
    } else if (arg == "--fd") {
      const char* v = next();
      if (!v || !parse_detectors(v, a.detectors)) return false;
    } else if (arg == "--hb-interval") {
      const char* v = next();
      char* end = nullptr;
      Tick t = v ? std::strtoull(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0' || t == 0) return false;  // 0 would re-arm same-tick
      a.exec.heartbeat.interval = t;
    } else if (arg == "--hb-timeout") {
      const char* v = next();
      char* end = nullptr;
      Tick t = v ? std::strtoull(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0' || t == 0) return false;
      a.exec.heartbeat.timeout = t;
    } else if (arg == "--phi-threshold") {
      const char* v = next();
      char* end = nullptr;
      double f = v ? std::strtod(v, &end) : 0.0;
      if (!v || end == v || *end != '\0' || f <= 0.0) return false;
      a.exec.phi.threshold = f;
    } else if (arg == "--phi-interval") {
      const char* v = next();
      char* end = nullptr;
      Tick t = v ? std::strtoull(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0' || t == 0) return false;  // 0 would re-arm same-tick
      a.exec.phi.interval = t;
    } else if (arg == "--join-attempts") {
      const char* v = next();
      char* end = nullptr;
      unsigned long n = v ? std::strtoul(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0') return false;
      a.exec.join_max_attempts = n;
    } else if (arg == "--nodes") {
      const char* v = next();
      if (!v) return false;
      a.gen.n = std::strtoul(v, nullptr, 10);
    } else if (arg == "--horizon") {
      const char* v = next();
      if (!v) return false;
      a.gen.horizon = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-events") {
      const char* v = next();
      if (!v) return false;
      a.gen.max_events = std::strtoul(v, nullptr, 10);
    } else if (arg == "--no-liveness") {
      a.exec.check_liveness = false;
    } else if (arg == "--basic") {
      a.exec.require_majority = false;
    } else if (arg == "--inject-bug") {
      a.exec.inject_bug_unrecorded_suspicion = true;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return false;
      a.replay_file = v;
    } else if (arg == "--minimize") {
      a.minimize_replay = true;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return false;
      a.out_dir = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return false;
      a.jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--exec") {
      const char* v = next();
      if (!v) return false;
      if (std::string(v) == "sim") {
        a.exec_tcp = false;
      } else if (std::string(v) == "tcp") {
        a.exec_tcp = true;
      } else {
        return false;
      }
    } else if (arg == "--tick-us") {
      const char* v = next();
      if (!v) return false;
      if (std::string(v) == "auto") {
        a.tcp.tick_us = 0;  // 0 = calibrate from measured scheduler jitter
      } else {
        char* end = nullptr;
        Tick t = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0' || t == 0) return false;
        a.tcp.tick_us = t;
      }
    } else if (arg == "--base-port") {
      const char* v = next();
      if (!v) return false;
      a.tcp.base_port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--node-bin") {
      const char* v = next();
      if (!v) return false;
      a.tcp.node_bin = v;
    } else if (arg == "--soak") {
      a.soak = true;
    } else if (arg == "--soak-horizon") {
      const char* v = next();
      char* end = nullptr;
      Tick t = v ? std::strtoull(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0' || t == 0) return false;
      a.soak_opts.horizon = t;
    } else if (arg == "--soak-clients") {
      const char* v = next();
      char* end = nullptr;
      unsigned long n = v ? std::strtoul(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0' || n == 0) return false;
      a.soak_opts.clients = n;
    } else if (arg == "--soak-ops") {
      const char* v = next();
      char* end = nullptr;
      unsigned long n = v ? std::strtoul(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0') return false;
      a.soak_opts.ops = n;
    } else if (arg == "--soak-mix") {
      const char* v = next();
      if (!v) return false;
      unsigned w = 0, r = 0, t = 0;
      char trail = '\0';
      if (std::sscanf(v, "%u:%u:%u%c", &w, &r, &t, &trail) != 3 || w + r + t == 0) {
        return false;
      }
      a.soak_opts.write_weight = w;
      a.soak_opts.read_weight = r;
      a.soak_opts.task_weight = t;
    } else if (arg == "--mux") {
      a.profile = "groupmux";
    } else if (arg == "--mux-groups") {
      const char* v = next();
      char* end = nullptr;
      unsigned long n = v ? std::strtoul(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0' || n == 0) return false;
      a.mux.groups = n;
    } else if (arg == "--mux-sessions") {
      const char* v = next();
      char* end = nullptr;
      unsigned long n = v ? std::strtoul(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0' || n == 0) return false;
      a.mux.sessions = n;
    } else if (arg == "--mux-slice") {
      const char* v = next();
      char* end = nullptr;
      unsigned long long n = v ? std::strtoull(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0' || n == 0) return false;
      a.mux.slice_events = n;
    } else if (arg == "--mux-spawn-span") {
      const char* v = next();
      char* end = nullptr;
      Tick t = v ? std::strtoull(v, &end, 10) : 0;
      if (!v || end == v || *end != '\0') return false;
      a.mux.spawn_span = t;
    } else if (arg == "--mux-lifetime") {
      const char* v = next();
      if (!v) return false;
      char* colon = nullptr;
      Tick lo = std::strtoull(v, &colon, 10);
      if (colon == v || *colon != ':') return false;
      char* end = nullptr;
      Tick hi = std::strtoull(colon + 1, &end, 10);
      if (end == colon + 1 || *end != '\0' || hi < lo || lo == 0) return false;
      a.mux.min_lifetime = lo;
      a.mux.max_lifetime = hi;
    } else if (arg == "--mux-no-sessions") {
      a.mux.with_sessions = false;
    } else if (arg == "-v" || arg == "--verbose") {
      a.verbose = true;
    } else if (arg == "--stats") {
      a.stats = true;
    } else {
      return false;
    }
  }
  return true;
}

std::vector<Profile> profiles_of(const std::string& name) {
  std::vector<Profile> out;
  parse_profiles(name, out);  // validated during parse_args
  return out;
}

/// The live cluster's options: the --tick-us/--base-port/--node-bin settings
/// plus the protocol knobs the sim side of a run uses too.
realexec::TcpExecOptions tcp_options(const Args& a) {
  realexec::TcpExecOptions topts = a.tcp;
  topts.check_liveness = a.exec.check_liveness;
  topts.require_majority = a.exec.require_majority;
  topts.join_max_attempts = a.exec.join_max_attempts;
  topts.heartbeat = a.exec.heartbeat;
  return topts;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

/// Print and (with --out) persist one failure via the shared sweep
/// formatter, so --replay reports are identical to sweep reports.
int report_failure(const Args& a, const Schedule& sched, const ExecResult& res,
                   const std::string& tag) {
  FailureReport failure = render_failure(sched, res, a.exec, tag);
  std::fputs(failure.report.c_str(), stdout);
  if (!a.out_dir.empty()) {
    write_file(a.out_dir + "/" + tag + ".sched", failure.schedule_text);
    write_file(a.out_dir + "/" + tag + ".min.sched", failure.minimized_text);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage();
    return 2;
  }

  if (!a.replay_file.empty()) {
    std::ifstream in(a.replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", a.replay_file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Schedule sched;
    try {
      sched = decode_schedule(buf.str());
    } catch (const CodecError& e) {
      std::fprintf(stderr, "bad schedule file: %s\n", e.what());
      return 2;
    }
    // A schedule file is self-contained; --fd selects which detector the
    // replay runs under (first listed when several were named).
    a.exec.fd = a.detectors.front();
    if (a.exec_tcp) {
      // Replay against a live cluster: the detector is always heartbeat on
      // this axis, and the verdict comes from the merged real trace.
      realexec::TcpExecResult res = realexec::execute_tcp(sched, tcp_options(a));
      std::printf("replay %s (exec=tcp fd=heartbeat): %s (tick=%lu view=%zu liveness=%s)\n",
                  a.replay_file.c_str(), res.ok() ? "OK" : "FAIL",
                  static_cast<unsigned long>(res.end_tick), res.final_view_size,
                  res.liveness_checked ? "checked" : "skipped");
      if (res.ok()) return 0;
      std::printf("%s", res.message().c_str());
      return 1;
    }
    ExecResult res = execute(sched, a.exec);
    std::printf("replay %s (fd=%s): %s (tick=%lu msgs=%lu liveness=%s)\n",
                a.replay_file.c_str(), fd::to_string(a.exec.fd), res.ok() ? "OK" : "FAIL",
                static_cast<unsigned long>(res.end_tick),
                static_cast<unsigned long>(res.messages),
                res.liveness_checked ? "checked" : "skipped");
    if (res.ok()) return 0;
    if (!a.minimize_replay) {
      std::printf("%s", res.message().c_str());
      return 1;
    }
    return report_failure(a, sched, res, "replay");
  }

  if (a.soak && a.exec_tcp) {
    std::fprintf(stderr, "--soak is a sim-only mode (the application host lives in the "
                         "simulated world); drop --exec tcp\n");
    return 2;
  }

  {
    const std::vector<Profile> ps = profiles_of(a.profile);
    const bool has_mux =
        std::find(ps.begin(), ps.end(), Profile::kGroupMux) != ps.end();
    if (has_mux && a.exec_tcp) {
      std::fprintf(stderr, "groupmux is a sim-only profile (the mux multiplexes simulated "
                           "worlds); drop --exec tcp\n");
      return 2;
    }
  }

  if (a.exec_tcp) {
    // The TCP axis: for every (profile, seed) run the schedule against the
    // simulator AND a live process cluster, and insist the verdicts agree.
    // Serial on purpose — each run owns the port window and the machine's
    // real time; the detector is always heartbeat (see usage()).
    size_t runs = 0, failures = 0;
    for (Profile p : profiles_of(a.profile)) {
      for (uint64_t seed = a.seed_lo; seed < a.seed_hi; ++seed) {
        GeneratorOptions gen = a.gen;
        gen.profile = p;
        ExecOptions sim = a.exec;
        sim.fd = fd::DetectorKind::kHeartbeat;
        gen = tuned_for_heartbeat(gen, sim.heartbeat);
        Schedule sched = generate(seed, gen);
        realexec::TcpExecOptions topts = tcp_options(a);
        // Rotate the port window so a lingering TIME_WAIT from the previous
        // run can never collide with the next one's listeners.
        topts.base_port =
            static_cast<uint16_t>(a.tcp.base_port + (runs % 8) * 64);
        realexec::CrossCheckResult cc = realexec::cross_check(sched, sim, topts);
        ++runs;
        bool ok = cc.agree && cc.sim.ok() && cc.tcp.ok();
        if (a.verbose || !ok) {
          std::printf("%s/tcp seed=%lu: %s sim=%s tcp=%s tick=%lu/%lu view=%zu/%zu%s%s\n",
                      to_string(p), static_cast<unsigned long>(seed), ok ? "ok" : "FAIL",
                      cc.sim.ok() ? "ok" : "fail", cc.tcp.ok() ? "ok" : "fail",
                      static_cast<unsigned long>(cc.sim.end_tick),
                      static_cast<unsigned long>(cc.tcp.end_tick),
                      cc.sim.final_view_size, cc.tcp.final_view_size,
                      cc.agree ? "" : " DISAGREE: ", cc.agree ? "" : cc.reason.c_str());
          std::fflush(stdout);
        }
        if (!ok) {
          ++failures;
          std::string tag = std::string(to_string(p)) + "-tcp-" + std::to_string(seed);
          if (!cc.sim.ok()) std::fputs(cc.sim.message().c_str(), stdout);
          if (!cc.tcp.ok()) std::fputs(cc.tcp.message().c_str(), stdout);
          std::string text = encode_schedule(sched);
          std::printf("--- schedule ---\n%s----------------\n", text.c_str());
          if (!a.out_dir.empty()) write_file(a.out_dir + "/" + tag + ".sched", text);
        }
      }
    }
    std::printf("gmpx_fuzz: %lu runs, %lu failures (exec=tcp, sim cross-checked)\n",
                static_cast<unsigned long>(runs), static_cast<unsigned long>(failures));
    return failures == 0 ? 0 : 1;
  }

  SweepOptions sweep;
  sweep.seed_lo = a.seed_lo;
  sweep.seed_hi = a.seed_hi;
  sweep.profiles = profiles_of(a.profile);
  sweep.detectors = a.detectors;
  sweep.gen = a.gen;
  sweep.exec = a.exec;
  sweep.soak = a.soak;
  sweep.soak_opts = a.soak_opts;
  sweep.mux = a.mux;
  sweep.jobs = a.jobs;
  sweep.verbose = a.verbose;
  if (a.stats) {
    sweep.alloc_probe = [] { return thread_alloc_count(); };
  }
  // Stream reports and artifacts as the completed (profile, seed) prefix
  // advances: progress is visible during long sweeps, and the order — hence
  // the full output — is still identical for every --jobs value.  The
  // --stats telemetry line is deliberately *outside* run.report: allocation
  // counts depend on how warm the worker's pooled cluster is, so they are
  // not byte-stable across --jobs values (the determinism contract covers
  // everything else).
  sweep.on_run = [&a](const SweepRun& run) {
    std::fputs(run.report.c_str(), stdout);
    if (a.stats) {
      std::printf("stats %s/%s seed=%lu allocs=%lu exec=%.3fms skip=%lu/%lu",
                  to_string(run.profile), fd::to_string(run.detector),
                  static_cast<unsigned long>(run.seed),
                  static_cast<unsigned long>(run.allocs),
                  static_cast<double>(run.exec_ns) / 1e6,
                  static_cast<unsigned long>(run.skipped_ticks),
                  static_cast<unsigned long>(run.skipped_events));
      if (a.soak) std::printf(" avail=%.3f", run.availability);
      // Mux occupancy is deterministic, but it describes engine load (like
      // allocs=, it belongs to the telemetry line, not the report).
      if (run.groups) {
        std::printf(" groups=%lu resident=%zu occ=%.3f slots=%zu",
                    static_cast<unsigned long>(run.groups), run.peak_resident,
                    run.occupancy, run.peak_slots);
      }
      std::printf("\n");
    }
    std::fflush(stdout);
    if (!run.ok && !a.out_dir.empty() && !run.schedule_text.empty()) {
      write_file(a.out_dir + "/" + run.tag + ".sched", run.schedule_text);
      write_file(a.out_dir + "/" + run.tag + ".min.sched", run.minimized_text);
      if (a.soak) {
        write_file(a.out_dir + "/" + run.tag + ".work", run.workload_text);
        write_file(a.out_dir + "/" + run.tag + ".min.work", run.minimized_workload_text);
      }
    }
  };
  SweepResult result = run_sweep(sweep);
  if (a.stats) {
    // Per-detector throughput over summed per-run execute() time: the
    // number that budgets a sweep (ROADMAP's nightly 100k seeds x both
    // detectors) without reaching for a profiler.  Per worker-second, so
    // it is comparable across --jobs values.
    for (fd::DetectorKind d : sweep.detectors) {
      uint64_t runs = 0, ns = 0, allocs = 0;
      uint64_t skipped_ticks = 0, skipped_events = 0, sim_ticks = 0, aborted = 0;
      uint64_t mux_runs = 0, mux_groups = 0;
      double occupancy_sum = 0.0;
      for (const SweepRun& run : result.run_log) {
        if (run.detector != d) continue;
        ++runs;
        ns += run.exec_ns;
        allocs += run.allocs;
        skipped_ticks += run.skipped_ticks;
        skipped_events += run.skipped_events;
        sim_ticks += run.end_tick;
        aborted += run.aborted_joins;
        if (run.groups) {
          ++mux_runs;
          mux_groups += run.groups;
          occupancy_sum += run.occupancy;
        }
      }
      if (runs == 0) continue;
      // skip-ratio = fast-forwarded ticks / total simulated ticks for the
      // axis; CI asserts it stays nonzero on the heartbeat axis so the fast
      // path cannot silently regress to tick-grinding.
      std::printf(
          "stats %s: %.1f schedules/s (%lu runs, %.1fms wall, mean allocs=%.1f, "
          "skip-ratio=%.3f, elided=%lu, aborted-joins=%lu)",
          fd::to_string(d), ns ? 1e9 * static_cast<double>(runs) / ns : 0.0,
          static_cast<unsigned long>(runs), static_cast<double>(ns) / 1e6,
          static_cast<double>(allocs) / static_cast<double>(runs),
          sim_ticks ? static_cast<double>(skipped_ticks) / static_cast<double>(sim_ticks)
                    : 0.0,
          static_cast<unsigned long>(skipped_events), static_cast<unsigned long>(aborted));
      if (mux_runs) {
        // Mux throughput: whole pooled deployments concluded per second of
        // summed run_mux() wall time, plus mean residency occupancy.  Like
        // everything on stats lines, groups/s is wall clock (NOT jobs-
        // stable); occupancy is deterministic but lives here because it
        // describes engine load, not run behaviour.
        std::printf(" (mux: %.1f groups/s over %lu plans, mean occupancy=%.3f)",
                    ns ? 1e9 * static_cast<double>(mux_groups) / ns : 0.0,
                    static_cast<unsigned long>(mux_runs),
                    occupancy_sum / static_cast<double>(mux_runs));
      }
      std::printf("\n");
    }
  }
  if (a.soak && result.runs > 0) {
    double avail_sum = 0.0;
    uint64_t ops = 0, rej = 0;
    for (const SweepRun& run : result.run_log) {
      avail_sum += run.availability;
      ops += run.ops_attempted;
      rej += run.ops_rejected;
    }
    std::printf("gmpx_fuzz: %lu soak runs, %lu failures, mean-avail=%.4f ops=%lu rej=%lu\n",
                static_cast<unsigned long>(result.runs),
                static_cast<unsigned long>(result.failures),
                avail_sum / static_cast<double>(result.runs),
                static_cast<unsigned long>(ops), static_cast<unsigned long>(rej));
    return result.failures == 0 ? 0 : 1;
  }
  std::printf("gmpx_fuzz: %lu runs, %lu failures\n",
              static_cast<unsigned long>(result.runs),
              static_cast<unsigned long>(result.failures));
  return result.failures == 0 ? 0 : 1;
}
