// Seeded random schedule generation with tunable adversary profiles.
//
// A profile shapes *which* faults the adversary prefers; the seed pins the
// exact draw.  generate(seed, opts) is a pure function of its arguments —
// the fuzzer sweeps seed ranges and any failure names the (profile, seed,
// opts) triple that reproduces it.
//
// Generated schedules are constrained to stay inside the paper's
// operating envelope so that a violation is a protocol bug, not a model
// violation:
//   * at most a minority of the *initial* membership crashes (S7 majority
//     requirement — beyond that the group is allowed to halt);
//   * joiner ids are fresh (never reuse a ProcessId, paper S1);
//   * partitions either carry a bounded duration or are followed by a
//     final heal, so quiesced runs are GMP-5 eligible.
#pragma once

#include <cstdint>

#include "fd/heartbeat.hpp"
#include "fd/phi.hpp"
#include "scenario/schedule.hpp"

namespace gmpx::soak {
struct SoakOptions;
}

namespace gmpx::scenario {

/// Adversary personality: the fault mix the generator draws from.
enum class Profile : uint8_t {
  kMixed,           ///< everything, uniformly weighted
  kChurnHeavy,      ///< joins + leaves + crashes, few partitions
  kPartitionHeavy,  ///< repeated cuts/heals + false suspicions
  kBurstCrash,      ///< near-simultaneous multi-crash bursts
  kLossy,           ///< lossy/dup/reordering channels + one-way partitions
  /// Group-churn meta-profile: the sweep routes it to mux::run_mux, which
  /// multiplexes many pooled deployments (each drawing one of the five
  /// profiles above) with create/retire churn.  Appended LAST so the enum
  /// values — and with them every historical (profile, seed) pair — stay
  /// byte-identical.  generate() itself never draws from it (the mux
  /// overrides the per-group profile before calling generate()).
  kGroupMux,
};

/// Returns "mixed" / "churn" / "partition" / "burst" / "lossy" /
/// "groupmux".
const char* to_string(Profile p);

/// Parse a profile name (as printed by to_string); false on unknown.
bool parse_profile(const std::string& name, Profile& out);

struct GeneratorOptions {
  size_t n = 5;             ///< initial cluster size (>= 3)
  Profile profile = Profile::kMixed;
  Tick horizon = 6000;      ///< events are drawn in [1, horizon]
  size_t max_events = 10;   ///< cap on generated fault events
  /// Delay-storm intensity: a storm's max_delay is drawn from
  /// [min_delay + 1, min_delay + storm_ceiling].  The default never
  /// outlasts a heartbeat timeout; tuned_for_heartbeat() raises it so
  /// storms can provoke *false* suspicions.
  Tick storm_ceiling = 250;
  /// Delay-storm durations are drawn from [200, storm_duration_cap].
  Tick storm_duration_cap = 2000;
  /// Background-channel fault spans (kFaults, lossy profile): loss is drawn
  /// from [10, loss_ceiling] permille, dup/reorder from [0, ceiling].
  /// Spans always carry a bounded duration ([200, storm_duration_cap]) —
  /// run conclusion relies on every fault span healing before the end.
  uint32_t loss_ceiling = 150;
  uint32_t dup_ceiling = 200;
  uint32_t reorder_ceiling = 200;
  /// Extra draw weight for crash-restart pairs (a member dies, a fresh
  /// incarnation re-joins via normal admission).  Default 0 so the RNG draw
  /// sequence of every historical (profile, seed) pair stays byte-identical;
  /// soak mode turns it on to model reboot churn.
  uint64_t restart_weight = 0;
};

/// Deterministically generate one schedule from (seed, opts).
Schedule generate(uint64_t seed, const GeneratorOptions& opts = {});

/// Calibrate the storm knobs against a heartbeat detector so that storms
/// actually cross the suspicion threshold: per-message delays may exceed
/// the timeout and storms may outlast it.  Identity for knobs already set
/// higher.  The (profile, seed, opts) triple still names the schedule —
/// heartbeat sweeps draw from a deliberately nastier distribution.
GeneratorOptions tuned_for_heartbeat(GeneratorOptions opts, const fd::HeartbeatOptions& hb);

/// φ-accrual analogue of tuned_for_heartbeat: before the per-pair fit
/// adapts, suspicion is governed by the bootstrap timeout, and afterwards a
/// storm must outgrow the *learned* distribution — so the storm knobs are
/// raised against the bootstrap threshold just like the fixed-timeout case.
GeneratorOptions tuned_for_phi(GeneratorOptions opts, const fd::PhiOptions& phi);

struct ExecOptions;

/// The generator options of one run unit — the recipe the sweep and the
/// group multiplexer share: `base` with `profile`, stretched over the soak
/// horizon with restart churn mixed in when `soak` is given (a crashed
/// member reborn as a fresh incarnation re-joining through normal
/// admission), and storm-tuned for `exec.fd` when it is a timeout detector.
GeneratorOptions unit_generator(GeneratorOptions base, Profile profile, const ExecOptions& exec,
                                const soak::SoakOptions* soak);

}  // namespace gmpx::scenario
