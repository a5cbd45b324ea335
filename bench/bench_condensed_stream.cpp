// Regenerates the S7.2 condensed-algorithm analysis:
//
//   "For n-1 successive failure updates, none of which are Mgr, we require
//    (n-1) + 2*sum_{x=2}^{n-1}(n-x) = n^2 - 2n - 1 ~ (n-1)^2 messages,
//    averaging n-1 messages per exclusion.  A standard two-phase algorithm
//    would require an additional n/2 - 1 messages per exclusion on
//    average."
//
// Two workloads per n:
//   condensed — all n-1 suspicions reach Mgr at once; every round after the
//               first is compressed (commit doubles as next invitation).
//   standard  — suspicions arrive one at a time, spaced far apart; every
//               round pays the full two-phase 3m-5 in its current view m.
//
// Exits non-zero unless, at every n, the standard stream costs exactly the
// paper's sum(3m-5) and the condensed stream is strictly cheaper.
#include <cstdio>

#include "gmp/messages.hpp"
#include "harness/cluster.hpp"

using namespace gmpx;
using harness::Cluster;
using harness::ClusterOptions;

namespace {

ClusterOptions deterministic(size_t n, uint64_t seed) {
  ClusterOptions o;
  o.n = n;
  o.seed = seed;
  o.delays = sim::DelayModel{5, 5};
  o.oracle.min_delay = o.oracle.max_delay = 50;
  return o;
}

uint64_t protocol_messages(Cluster& c) {
  return c.world().meter().in_kind_range(gmp::kind::kUpdateLo, gmp::kind::kUpdateHi) +
         c.world().meter().in_kind_range(gmp::kind::kReconfigLo, gmp::kind::kReconfigHi);
}

/// The paper's condensed stream: failures are *successive* — each next
/// suspicion reaches Mgr just before the current round's commit, so every
/// commit doubles as the next invitation and the not-yet-suspected members
/// keep participating.  With delay=5 a round lasts 10 ticks; spacing the
/// injections 8 apart keeps exactly one pending suspicion at each commit.
/// (Suspicions are injected at Mgr; each target stays up and quits on its
/// invitation/contingency — identical wire cost to a crashed target, with
/// deterministic timing.)
uint64_t measure_condensed(size_t n) {
  Cluster c(deterministic(n, 900 + n));
  c.start();
  Tick t = 100;
  for (ProcessId q = 1; q < n; ++q) {
    c.suspect_at(t, 0, q);
    t += 8;
  }
  c.run_to_quiescence();
  return protocol_messages(c);
}

/// One exclusion at a time: every round is a fresh two-phase update.
uint64_t measure_standard(size_t n) {
  Cluster c(deterministic(n, 950 + n));
  c.start();
  Tick t = 100;
  for (ProcessId q = 1; q < n; ++q) {
    c.suspect_at(t, 0, q);
    t += 2000;  // far beyond the round trip: no compression possible
  }
  c.run_to_quiescence();
  return protocol_messages(c);
}

}  // namespace

int main() {
  std::printf("S7.2 condensed stream: n-1 successive exclusions, Mgr immortal\n\n");
  std::printf("%4s | %10s %14s | %10s %16s | %14s\n", "n", "condensed", "paper ~(n-1)^2",
              "standard", "paper sum(3m-5)", "saved/exclusion");
  std::printf("-----+---------------------------+-----------------------------+---------------\n");
  bool ok = true;
  for (size_t n : {8u, 16u, 32u}) {
    uint64_t cond = measure_condensed(n);
    uint64_t stnd = measure_standard(n);
    uint64_t paper_cond = n * n - 2 * n - 1;
    uint64_t paper_stnd = 0;
    for (size_t m = n; m >= 2; --m) paper_stnd += 3 * m - 5;  // view shrinks per round
    double saved = double(stnd - cond) / double(n - 1);
    std::printf("%4zu | %10llu %14llu | %10llu %16llu | %10.1f (paper ~%.1f)\n", n,
                (unsigned long long)cond, (unsigned long long)paper_cond,
                (unsigned long long)stnd, (unsigned long long)paper_stnd, saved,
                n / 2.0 - 1);
    ok = ok && stnd == paper_stnd && cond < stnd;
  }
  std::printf("\nShape check: condensed ~ (n-1)^2 total i.e. ~n-1 per exclusion; the\n"
              "condensed algorithm saves ~n/2-1 messages per exclusion vs standard.\n"
              "Standard must equal sum(3m-5) exactly and condensed must beat it.  %s\n",
              ok ? "OK." : "DEPARTURE — investigate.");
  return ok ? 0 : 1;
}
