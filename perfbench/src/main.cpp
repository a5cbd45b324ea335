// perfbench — the repository benchmark.
//
//   perfbench --workload fuzz-sweep|soak-week|mux-fleet|tcp-failover
//             --seed N --seconds S --trace 0|1 [--trace-out FILE] [--quick]
//
// --trace 0 measures the workload untraced and reports its end-to-end
// metrics; --trace 1 replays the same inputs through the layer calls with
// spans and reports the per-layer metrics (FILE receives the spans).
// --quick shrinks every batch for the self-test.  Human-readable lines come
// first; the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this binary and is the documented entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> v;
    for (const char* det : {"oracle", "heartbeat", "phi"}) {
      const std::string d = det;
      v.push_back({"scenario.generate_us." + d, "us"});
      v.push_back({"scenario.install_us." + d, "us"});
      v.push_back({"harness.reset_us." + d, "us"});
      v.push_back({"executor.advance_us." + d, "us"});
      v.push_back({"sim.dispatch_us." + d, "us"});
      v.push_back({"trace.check_us." + d, "us"});
      v.push_back({"sim.msgs_per_run." + d, "count"});
      v.push_back({"fd.msgs_per_run." + d, "count"});
      v.push_back({"sim.skip_ratio." + d, "ratio"});
      v.push_back({"trace.events_per_run." + d, "count"});
    }
    v.insert(v.end(), {
        {"sim.mean_burst", "count"},
        {"soak.workload_gen_us", "us"},
        {"soak.sync_us", "us"},
        {"soak.sync_passes", "count"},
        {"soak.app_check_us", "us"},
        {"soak.availability_us", "us"},
        {"soak.ops_rejected_ratio", "ratio"},
        {"sweep.busy_share", "ratio"},
        {"sweep.overhead_us", "us"},
        {"mux.serial_ratio", "ratio"},
        {"mux.turns_per_group", "count"},
        {"mux.peak_resident", "count"},
        {"mux.occupancy", "ratio"},
        {"tcp.start_ms", "ms"},
        {"tcp.first_install_ms.mgr", "ms"},
        {"tcp.first_install_ms.member", "ms"},
        {"tcp.install_spread_ms.mgr", "ms"},
        {"tcp.install_spread_ms.member", "ms"},
        {"tcp.post_rtt_us", "us"},
        {"trace.overhead_ratio", "ratio"},
    });
    return v;
  }();
  return list;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload fuzz-sweep|soak-week|mux-fleet|tcp-failover\n"
               "                 --seed N --seconds S --trace 0|1 [--trace-out FILE] [--quick]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") return false;
      a.trace = t == "1";
    } else if (arg == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");

  // Build guard: numbers only ever come from an optimized Release tree.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts_off = true;
#else
  const bool asserts_off = false;
#endif
  if (build_type != "Release" || !asserts_off) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build (NDEBUG %s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), asserts_off ? "set" : "unset");
    return 3;
  }

  void (*workload)(const Args&, Report&) = nullptr;
  if (args.workload == "fuzz-sweep") workload = run_fuzz_sweep;
  if (args.workload == "soak-week") workload = run_soak_week;
  if (args.workload == "mux-fleet") workload = run_mux_fleet;
  if (args.workload == "tcp-failover") workload = run_tcp_failover;
  if (!workload) return usage(("unknown workload '" + args.workload + "'").c_str());

  Report rep(args.workload);
  rep.note("perfbench workload=" + args.workload + " seed=" + std::to_string(args.seed) +
           " seconds=" + std::to_string(args.seconds) + " trace=" + (args.trace ? "1" : "0") +
           (args.quick ? " quick" : ""));
  rep.note(std::string("build type=") + PERFBENCH_BUILD_TYPE + " flags=\"" + PERFBENCH_CXX_FLAGS +
           "\" compiler=\"" + PERFBENCH_COMPILER + "\" nproc=" +
           std::to_string(std::thread::hardware_concurrency()));
  try {
    workload(args, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (args.trace) {
    // Layers this workload does not pass through do no work on it.
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (!rep.has(name)) rep.metric(name, 0.0, unit);
    }
  }
  rep.emit_json();
  return 0;
}
