// View-change latency as a function of delay-storm intensity, per failure
// detector, over seeds 1..4000 in every cell.
//
// One member of a 5-process group crashes mid-run while a delay storm holds
// per-message latencies in [1, intensity]; the measured quantity is how
// long it takes every surviving member to install a view excluding the
// victim.  The oracle detector reports the crash within a fixed bound
// regardless of delay (only the commit round itself is storm-inflated); the
// heartbeat detector must *notice* the silence first, so its latency grows
// with the storm — and past the suspicion threshold (intensity > timeout)
// storms also provoke false suspicions that widen the tail or kill the
// group outright (dropped runs).
//
// Counters per (detector, intensity) cell:
//   latency_p50/p90/p99 — percentiles over the measured runs (ticks)
//   dropped             — runs where no survivor excluded the victim
//                         (group died or detection never converged)
//   excluded_early      — runs where a storm-provoked false suspicion
//                         excluded the victim before its real crash (no
//                         latency to measure, but the group survived)
//
// Exits non-zero unless the oracle drops no run in any cell, no run is
// excluded early, and phi drops strictly fewer runs than heartbeat at
// intensities 1024 and 2048 (past heartbeat's 800-tick timeout).
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "harness/cluster.hpp"

using namespace gmpx;

namespace {

constexpr Tick kCrashAt = 2000;
constexpr Tick kStormAt = 1000;  // covers the crash and the detection window
constexpr ProcessId kVictim = 4;
constexpr uint64_t kSeeds = 4000;

/// One seeded run; returns the victim-exclusion latency in ticks, -1 if no
/// end-of-run survivor ever installed a victim-free view, or -2 if every
/// survivor excluded the victim *before* the crash (a storm-provoked false
/// suspicion pre-empted the measurement).
double run_once(fd::DetectorKind kind, Tick storm_max, uint64_t seed) {
  harness::ClusterOptions co;
  co.n = 5;
  co.seed = seed;
  co.detector = kind;
  harness::Cluster c(co);
  sim::SimWorld& w = c.world();
  if (storm_max > co.delays.max_delay) {
    w.at(kStormAt, [&w, storm_max] { w.set_delays({1, storm_max}); });
  }
  c.crash_at(kCrashAt, kVictim);
  c.start();
  if (kind != fd::DetectorKind::kOracle) {
    c.run_to_protocol_quiescence(50'000'000, storm_max);
  } else {
    c.run_to_quiescence();
  }
  // First install per process whose member set excludes the victim.
  std::vector<Tick> first(co.n, 0);
  std::vector<uint8_t> seen(co.n, 0);
  c.recorder().for_each_event([&](const trace::Event& e) {
    if (e.kind != trace::EventKind::kInstall || e.actor >= co.n || seen[e.actor]) return;
    if (std::find(e.members.begin(), e.members.end(), kVictim) != e.members.end()) return;
    seen[e.actor] = 1;
    first[e.actor] = e.tick;
  });
  Tick done = 0;
  bool any = false, all = true;
  for (ProcessId p = 0; p < co.n; ++p) {
    if (p == kVictim || w.crashed(p)) continue;
    if (!seen[p]) {
      all = false;
      break;
    }
    done = std::max(done, first[p]);
    any = true;
  }
  if (!any || !all) return -1.0;
  if (done < kCrashAt) return -2.0;
  return static_cast<double>(done - kCrashAt);
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[idx];
}

struct Cell {
  uint64_t dropped = 0;
  uint64_t excluded_early = 0;
};

Cell run_cell(fd::DetectorKind kind, Tick storm_max) {
  std::vector<double> latencies;
  Cell cell;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const double l = run_once(kind, storm_max, seed);
    if (l == -1.0) {
      ++cell.dropped;
    } else if (l == -2.0) {
      ++cell.excluded_early;
    } else {
      latencies.push_back(l);
    }
  }
  const double p50 = percentile(latencies, 0.50);
  const double p90 = percentile(latencies, 0.90);
  const double p99 = percentile(latencies, 0.99);
  std::printf("%-9s | %9llu | %8.0f %8.0f %8.0f | %7llu | %14llu\n", fd::to_string(kind),
              (unsigned long long)storm_max, p50, p90, p99, (unsigned long long)cell.dropped,
              (unsigned long long)cell.excluded_early);
  return cell;
}

}  // namespace

int main() {
  // Storm intensities: baseline (no storm), sub-threshold, around the
  // heartbeat timeout (800), and far past it.
  constexpr Tick kIntensities[] = {16, 128, 512, 1024, 2048};
  constexpr fd::DetectorKind kDetectors[] = {fd::DetectorKind::kOracle,
                                             fd::DetectorKind::kHeartbeat,
                                             fd::DetectorKind::kPhi};
  std::printf("View-change latency vs delay-storm intensity (n=5, crash p%u at %llu, "
              "seeds 1..%llu per cell)\n\n",
              unsigned(kVictim), (unsigned long long)kCrashAt, (unsigned long long)kSeeds);
  std::printf("%-9s | %9s | %8s %8s %8s | %7s | %14s\n", "detector", "intensity", "p50",
              "p90", "p99", "dropped", "excluded_early");
  std::printf("----------+-----------+----------------------------+---------+---------------\n");
  Cell cells[std::size(kDetectors)][std::size(kIntensities)];
  bool ok = true;
  for (size_t d = 0; d < std::size(kDetectors); ++d) {
    for (size_t i = 0; i < std::size(kIntensities); ++i) {
      cells[d][i] = run_cell(kDetectors[d], kIntensities[i]);
      ok = ok && cells[d][i].excluded_early == 0;
      if (kDetectors[d] == fd::DetectorKind::kOracle) ok = ok && cells[d][i].dropped == 0;
    }
  }
  // The adaptive detector's headline: under storms hot enough to provoke
  // heartbeat false suspicions (intensity past the fixed 800-tick timeout),
  // the phi fit widens with the observed delays instead of firing on the
  // first late ack, so it keeps more groups alive — at the cost of modestly
  // higher exclusion latency, since it waits out delays heartbeat dies on.
  const Cell* heartbeat = cells[1];
  const Cell* phi = cells[2];
  for (size_t i = 0; i < std::size(kIntensities); ++i) {
    if (kIntensities[i] >= 1024) ok = ok && phi[i].dropped < heartbeat[i].dropped;
  }
  std::printf("\nExpected: the oracle drops no run, no run is excluded early, and phi\n"
              "drops fewer runs than heartbeat at intensities 1024 and 2048.\n%s\n",
              ok ? "OK." : "DEPARTURE — investigate.");
  return ok ? 0 : 1;
}
