// Steady-state availability: the fraction of virtual time a majority view
// could serve client operations.
//
// Computed from the membership trace alone (trace::Recorder), so the same
// metric applies to the paper protocol and to every baseline in
// src/baseline/ — it is the soak harness's workload-level comparison axis
// (bench_soak).
//
// The service is "available" at time t when a usable write primary exists:
//
//   * protocols that elect a coordinator (gmp records kBecameMgr): the
//     holder of the most recent kBecameMgr at or before t must be alive
//     and hold a strict live majority of its own latest installed view.
//     Crashing the reigning Mgr opens an unavailability window that lasts
//     until the next kBecameMgr — exactly the failover latency clients
//     experience.
//
//   * traces with no kBecameMgr at all (the baselines): fall back to the
//     structural rule — some live process must be the most senior (lowest
//     id) member of its own latest installed view with a strict live
//     majority of it.  This is the most charitable reading of a
//     coordinator-less trace; baselines still lose availability whenever
//     their views lag reality.
#pragma once

#include "common/types.hpp"
#include "trace/recorder.hpp"

namespace gmpx::soak {

/// Fraction of [0, end_tick] the service was available (1.0 when
/// end_tick == 0).  `require_majority` mirrors the run's S7 setting; off
/// relaxes the majority requirement to "at least one live member".
double availability_from_trace(const trace::Recorder& rec, Tick end_tick,
                               bool require_majority = true);

}  // namespace gmpx::soak
