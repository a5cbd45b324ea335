// Regenerates the S7.2 worst-case analysis: tau successive failed (aborted)
// reconfigurations.
//
//   "Define n_x = |Sys^x| and tau_x the number of tolerable failures;
//    the worst case to install the (x+1)st system view occurs when there
//    are tau_x successive failed reconfigurations...  = O(n^2) messages."
//
// Workload: the Mgr crashes; each successive reconfiguration initiator is
// killed the moment it starts interrogating, until the last viable
// initiator finally completes.  Messages for the whole succession are
// counted and compared against the quadratic shape (the paper's 5/2 x^2
// coefficient counts its idealized phase sizes; we check the measured
// counts grow quadratically and sit below the paper's bound).
#include <cstdio>

#include "gmp/messages.hpp"
#include "harness/cluster.hpp"

using namespace gmpx;
using harness::Cluster;
using harness::ClusterOptions;

namespace {

uint64_t measure_cascade(size_t n, size_t kills, uint64_t seed) {
  ClusterOptions o;
  o.n = n;
  o.seed = seed;
  o.delays = sim::DelayModel{5, 5};
  o.oracle.min_delay = o.oracle.max_delay = 50;
  Cluster c(o);
  c.start();
  // Mgr crashes at t=100; initiator p1 starts reconfiguring ~t=150 and is
  // killed immediately; p2 takes over once it suspects p1, and so on.
  Tick t = 100;
  for (size_t k = 0; k < kills; ++k) {
    c.crash_at(t, static_cast<ProcessId>(k));
    t += 220;  // one detection delay + a partial three-phase round
  }
  c.run_to_quiescence();
  auto res = c.check();
  if (!res.ok()) {
    std::fprintf(stderr, "SAFETY VIOLATION in worst-case cascade:\n%s", res.message().c_str());
    std::exit(1);
  }
  return c.world().meter().in_kind_range(gmp::kind::kUpdateLo, gmp::kind::kUpdateHi) +
         c.world().meter().in_kind_range(gmp::kind::kReconfigLo, gmp::kind::kReconfigHi);
}

}  // namespace

int main() {
  std::printf("S7.2 worst case: tau successive failed reconfigurations (O(n^2))\n\n");
  std::printf("%4s %6s | %10s | %14s | %10s\n", "n", "tau", "measured", "paper 5/2 n^2",
              "ratio msr/n^2");
  std::printf("------------+------------+----------------+-----------\n");
  bool ok = true;
  for (size_t n : {8u, 16u, 32u}) {
    size_t tau = (n - 1) / 2;  // kill a tolerable minority of initiators
    uint64_t msgs = measure_cascade(n, tau, 1000 + n);
    double bound = 2.5 * n * n;
    std::printf("%4zu %6zu | %10llu | %14.0f | %10.3f\n", n, tau,
                (unsigned long long)msgs, bound, double(msgs) / double(n * n));
    ok = ok && double(msgs) <= bound;
  }
  std::printf("\nShape check: measured totals grow ~quadratically in n (constant\n"
              "msr/n^2 column) and stay below the paper's 5/2 n^2 bound.  %s\n",
              ok ? "OK." : "EXCEEDED — investigate.");
  return ok ? 0 : 1;
}
