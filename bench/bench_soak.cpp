// Workload-level comparison: steady-state availability under identical
// crash-restart churn, GMP vs the three baselines, over seeds 1..1000.
//
// Each seed draws one churn schedule (crashes + restarts, the soak
// generator's reboot model) and measures the fraction of virtual time a
// usable write primary existed (soak/availability.hpp):
//
//   * GMP runs the full soak stack — client workload, restart incarnations
//     re-admitted through S7, availability from the kBecameMgr trail.
//   * The baselines replay the same crash faults on their own clusters.
//     They have no admission path, so the restart half of every pair is
//     structurally lost to them: each crash permanently shrinks the group.
//
// Read the numbers with the metric's asymmetry in mind.  Generated
// schedules only ever crash a minority (the paper's operating envelope),
// so the baselines keep a live majority and their *availability* barely
// moves — and the coordinator-less fallback rule is deliberately charitable
// (soak/availability.hpp), charging them no failover latency at all.  The
// GMP figure is the stricter one: the kBecameMgr trail exposes every real
// failover window (avail_min shows the worst seed).  The decisive counter
// is capacity: GMP re-admits a fresh incarnation for every restart and
// ends back at full strength, while the baselines' final membership only
// decays — run the churn for long enough and they die outright.
//
// Counters per protocol:
//   avail_mean / avail_min — availability over the seeds
//   members_final_mean     — mean |frontier view| at end of run (capacity
//                            recovered vs permanently lost)
//   failed                 — runs whose verdict was not clean (GMP side:
//                            protocol or app oracle violation; baseline
//                            side: run never quiesced) — excluded from the
//                            aggregates
//
// Exits non-zero unless GMP holds its floors (avail_mean >= 0.97,
// members_final_mean >= 4.5, no failed run), ends with more members than
// every baseline, and no baseline run fails.
#include <algorithm>
#include <cstdio>

#include "baseline/onephase.hpp"
#include "baseline/symmetric.hpp"
#include "baseline/twophase_reconfig.hpp"
#include "harness/baseline_cluster.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "soak/availability.hpp"
#include "soak/runner.hpp"
#include "soak/workload.hpp"

using namespace gmpx;

namespace {

constexpr size_t kNodes = 5;
constexpr Tick kHorizon = 200'000;
constexpr uint64_t kSeeds = 1000;
constexpr double kAvailFloor = 0.97;
constexpr double kMembersFloor = 4.5;

scenario::Schedule churn_schedule(uint64_t seed) {
  scenario::GeneratorOptions gen;
  gen.n = kNodes;
  gen.profile = scenario::Profile::kChurnHeavy;
  gen.horizon = kHorizon;
  gen.max_events = 8;
  gen.restart_weight = 4;  // the soak reboot model, turned up
  return scenario::generate(seed, gen);
}

struct Sample {
  double availability = -1.0;  ///< -1 = not verdict-clean
  size_t members_final = 0;    ///< |frontier view| at end of run
};

/// Full soak run; availability from the kBecameMgr trail.
Sample gmp_sample(uint64_t seed) {
  soak::SoakOptions sopts;
  sopts.horizon = kHorizon;
  sopts.ops = 128;
  const scenario::Schedule s = churn_schedule(seed);
  const soak::Workload w = soak::generate_workload(seed, sopts);
  scenario::ExecOptions exec;
  const soak::SoakResult r = soak::run_soak(s, w, exec, sopts);
  if (!r.ok()) return {};
  return {r.availability, r.exec.final_view_size};
}

/// Same churn replayed on a baseline cluster: crashes bite, restarts
/// cannot (no admission path).  Availability over the same horizon via the
/// structural (coordinator-less) rule.
template <typename NodeT>
Sample baseline_sample(uint64_t seed) {
  const scenario::Schedule s = churn_schedule(seed);
  typename harness::BaselineCluster<NodeT>::Options o;
  o.n = kNodes;
  o.seed = seed;
  harness::BaselineCluster<NodeT> c(o);
  for (const scenario::ScheduleEvent& e : s.events) {
    if (e.type == scenario::EventType::kCrash) c.crash_at(e.at, e.target);
  }
  c.start();
  if (!c.run_to_quiescence()) return {};
  return {soak::availability_from_trace(c.recorder(), kHorizon),
          c.recorder().frontier_view().members.size()};
}

struct Row {
  double avail_mean = 0.0;
  double avail_min = 0.0;
  double members_final_mean = 0.0;
  uint64_t failed = 0;
};

Row measure(const char* name, Sample (*sample)(uint64_t)) {
  double avail_sum = 0.0, members_sum = 0.0, avail_min = 1.0;
  uint64_t clean = 0;
  Row r;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Sample s = sample(seed);
    if (s.availability < 0.0) {
      ++r.failed;
      continue;
    }
    ++clean;
    avail_sum += s.availability;
    avail_min = std::min(avail_min, s.availability);
    members_sum += static_cast<double>(s.members_final);
  }
  if (clean != 0) {
    r.avail_mean = avail_sum / static_cast<double>(clean);
    r.avail_min = avail_min;
    r.members_final_mean = members_sum / static_cast<double>(clean);
  }
  std::printf("%-18s | %10.4f %10.4f | %18.3f | %6llu\n", name, r.avail_mean, r.avail_min,
              r.members_final_mean, (unsigned long long)r.failed);
  return r;
}

}  // namespace

int main() {
  std::printf("Soak availability under crash-restart churn "
              "(n=%zu, horizon=%llu, seeds 1..%llu)\n\n",
              kNodes, (unsigned long long)kHorizon, (unsigned long long)kSeeds);
  std::printf("%-18s | %10s %10s | %18s | %6s\n", "protocol", "avail_mean", "avail_min",
              "members_final_mean", "failed");
  std::printf("-------------------+-----------------------+--------------------+-------\n");
  const Row gmp = measure("gmp", gmp_sample);
  const Row baselines[] = {
      measure("symmetric", baseline_sample<baseline::SymmetricNode>),
      measure("onephase", baseline_sample<baseline::OnePhaseNode>),
      measure("twophase_reconfig", baseline_sample<baseline::TwoPhaseReconfigNode>),
  };

  bool ok = gmp.avail_mean >= kAvailFloor && gmp.members_final_mean >= kMembersFloor &&
            gmp.failed == 0;
  for (const Row& b : baselines) {
    ok = ok && b.failed == 0 && gmp.members_final_mean > b.members_final_mean;
  }
  std::printf("\nFloors: GMP avail_mean >= %.2f, members_final_mean >= %.1f, 0 failed;\n"
              "GMP ends with more members than every baseline; no baseline run fails.\n%s\n",
              kAvailFloor, kMembersFloor, ok ? "OK." : "DEPARTURE — investigate.");
  return ok ? 0 : 1;
}
