#include "soak/runner.hpp"

#include <algorithm>
#include <sstream>

#include "harness/cluster.hpp"
#include "scenario/minimizer.hpp"
#include "soak/host.hpp"

namespace gmpx::soak {

std::string SoakResult::message() const {
  std::ostringstream os;
  const std::string exec_msg = exec.message();
  if (!exec_msg.empty()) os << exec_msg;
  if (!app_check.ok()) os << app_check.message();
  return os.str();
}

SoakResult run_soak(const scenario::Schedule& s, const Workload& w,
                    const scenario::ExecOptions& exec_opts, const SoakOptions& sopts) {
  harness::Cluster cluster{harness::ClusterOptions{}};
  SoakHost host;
  return run_soak(s, w, exec_opts, sopts, cluster, host);
}

SoakResult run_soak(const scenario::Schedule& s, const Workload& w,
                    const scenario::ExecOptions& exec_opts, const SoakOptions& sopts,
                    harness::Cluster& cluster, SoakHost& host) {
  host.reset(w, sopts);
  scenario::ExecOptions opts = exec_opts;
  opts.on_pre_start = [&host](harness::Cluster& c) { host.attach(c); };
  opts.on_quiesced = [&host](harness::Cluster& c, int pass) { return host.on_quiesced(c, pass); };

  SoakResult r;
  r.exec = scenario::execute(s, opts, cluster);
  r.ops_attempted = host.attempted();
  r.ops_rejected = host.rejected();
  r.sync_passes = host.sync_passes();
  r.converged = host.converged_flag();
  AppVerdict v = host.judge(s, r.exec, exec_opts.require_majority);
  r.availability = v.availability;
  r.app_check = std::move(v.check);
  return r;
}

void minimize_soak(scenario::Schedule& s, Workload& w, const SoakFailPredicate& fails,
                   size_t max_probes, SoakMinimizeStats* stats) {
  SoakMinimizeStats local;
  SoakMinimizeStats& st = stats ? *stats : local;
  st.events_before = s.events.size();
  st.ops_before = w.ops.size();
  if (!fails(s, w)) {
    st.events_after = s.events.size();
    st.ops_after = w.ops.size();
    return;
  }

  bool progress = true;
  while (progress && st.probes < max_probes) {
    progress = false;

    // Schedule side: reuse the event-level minimizer with the workload
    // frozen.
    {
      scenario::MinimizeOptions mo;
      mo.max_probes = max_probes - st.probes;
      scenario::MinimizeStats ms;
      scenario::Schedule shrunk = scenario::minimize(
          s, [&](const scenario::Schedule& cand) { return fails(cand, w); }, mo, &ms);
      st.probes += ms.probes;
      if (shrunk.events.size() < s.events.size()) progress = true;
      s = std::move(shrunk);
    }

    // Workload side: greedy chunk dropping (halves, quarters, ..., single
    // ops), keeping any removal that preserves the failure.
    for (size_t chunk = std::max<size_t>(w.ops.size() / 2, 1); chunk >= 1; chunk /= 2) {
      for (size_t start = 0; start < w.ops.size() && st.probes < max_probes;) {
        Workload cand;
        cand.ops.reserve(w.ops.size());
        const size_t end = std::min(start + chunk, w.ops.size());
        cand.ops.insert(cand.ops.end(), w.ops.begin(), w.ops.begin() + start);
        cand.ops.insert(cand.ops.end(), w.ops.begin() + end, w.ops.end());
        ++st.probes;
        if (fails(s, cand)) {
          w = std::move(cand);
          progress = true;
          // keep `start`: the next chunk slid into this position
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  st.events_after = s.events.size();
  st.ops_after = w.ops.size();
}

}  // namespace gmpx::soak
