#include "scenario/generator.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "scenario/executor.hpp"
#include "soak/workload.hpp"

namespace gmpx::scenario {

const char* to_string(Profile p) {
  switch (p) {
    case Profile::kMixed: return "mixed";
    case Profile::kChurnHeavy: return "churn";
    case Profile::kPartitionHeavy: return "partition";
    case Profile::kBurstCrash: return "burst";
    case Profile::kLossy: return "lossy";
    case Profile::kGroupMux: return "groupmux";
  }
  return "?";
}

bool parse_profile(const std::string& name, Profile& out) {
  if (name == "mixed") out = Profile::kMixed;
  else if (name == "churn") out = Profile::kChurnHeavy;
  else if (name == "partition") out = Profile::kPartitionHeavy;
  else if (name == "burst") out = Profile::kBurstCrash;
  else if (name == "lossy") out = Profile::kLossy;
  else if (name == "groupmux") out = Profile::kGroupMux;
  else return false;
  return true;
}

namespace {

/// Per-profile draw weights, indexed by EventType order
/// {crash, partition, heal(unused: 0), join, leave, suspect, delaystorm,
/// partition1, faults, restart}.  The youngest event types sit LAST in the
/// weighted walk with weight 0 for every pre-existing profile: the draw
/// thresholds — and with them the whole RNG draw sequence — of historical
/// (profile, seed) pairs stay byte-identical across each addition.
struct Weights {
  uint64_t crash, partition, join, leave, suspect, storm, oneway, faults, restart;
  uint64_t total() const {
    return crash + partition + join + leave + suspect + storm + oneway + faults + restart;
  }
};

Weights weights_for(Profile p) {
  switch (p) {
    case Profile::kChurnHeavy: return {4, 1, 4, 3, 1, 1, 0, 0, 0};
    case Profile::kPartitionHeavy: return {1, 5, 1, 1, 3, 2, 0, 0, 0};
    case Profile::kBurstCrash: return {0, 1, 1, 1, 1, 1, 0, 0, 0};
    case Profile::kLossy: return {2, 0, 1, 1, 1, 1, 2, 4, 0};
    // kGroupMux never reaches generate() (the mux substitutes a base
    // profile per group); fall through to the mixed weights defensively.
    case Profile::kGroupMux:
    case Profile::kMixed: break;
  }
  return {3, 2, 2, 1, 2, 1, 0, 0, 0};
}

}  // namespace

Schedule generate(uint64_t seed, const GeneratorOptions& opts) {
  Rng rng(seed ^ 0xC0FFEE5EEDull);
  Schedule s;
  s.n = std::max<size_t>(opts.n, 3);
  s.seed = seed;

  const size_t n = s.n;
  // Operating envelope: a minority of the initial membership may crash, and
  // at least two initial members must remain (crashes + leaves + falsely
  // suspected members all depart the group).
  const size_t max_crashes = (n - 1) / 2;
  size_t crashes = 0;
  std::set<ProcessId> departed;  // initial members leaving the group somehow
  auto may_depart = [&] { return departed.size() < n - 2; };
  auto pick_member = [&](bool prefer_resident) -> ProcessId {
    for (int tries = 0; tries < 8; ++tries) {
      ProcessId p = static_cast<ProcessId>(rng.below(n));
      if (!prefer_resident || !departed.count(p)) return p;
    }
    return static_cast<ProcessId>(rng.below(n));
  };

  const Tick horizon = std::max<Tick>(opts.horizon, 1000);
  auto tick_in = [&](Tick lo, Tick hi) { return rng.range(lo, hi); };

  size_t budget = std::max<size_t>(opts.max_events, 1);
  size_t next_join_id = 100;
  bool has_unhealed_cut = false;

  // Burst profile: open with a near-simultaneous crash volley.
  if (opts.profile == Profile::kBurstCrash && max_crashes > 0) {
    Tick t0 = tick_in(100, horizon / 2);
    size_t k = 1 + rng.below(max_crashes);
    for (size_t i = 0; i < k && budget > 0; ++i) {
      ProcessId victim = pick_member(true);
      if (departed.count(victim) || !may_depart()) continue;
      departed.insert(victim);
      ++crashes;
      --budget;
      s.events.push_back({EventType::kCrash, t0 + rng.below(50), victim});
    }
  }

  Weights w = weights_for(opts.profile);
  w.restart += opts.restart_weight;
  for (size_t i = 0; i < budget; ++i) {
    uint64_t d = rng.below(w.total());
    if (d < w.crash) {
      if (crashes >= max_crashes || !may_depart()) continue;
      ProcessId victim = pick_member(true);
      if (departed.count(victim)) continue;
      departed.insert(victim);
      ++crashes;
      s.events.push_back({EventType::kCrash, tick_in(50, horizon), victim});
      continue;
    }
    d -= w.crash;
    if (d < w.partition) {
      // Random nonempty strict subset of the initial membership.
      std::vector<ProcessId> side;
      for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
        if (rng.chance(1, 2)) side.push_back(p);
      }
      if (side.empty() || side.size() == n) continue;
      ScheduleEvent e{EventType::kPartition, tick_in(50, horizon)};
      e.group = std::move(side);
      // Mostly bounded cuts (auto-heal); occasionally an open cut with an
      // explicit trailing heal so the schedule stays GMP-5 eligible.
      if (rng.chance(3, 4)) {
        e.duration = tick_in(100, 1500);
      } else {
        has_unhealed_cut = true;
      }
      s.events.push_back(std::move(e));
      continue;
    }
    d -= w.partition;
    if (d < w.join) {
      ScheduleEvent e{EventType::kJoin, tick_in(1, horizon * 3 / 4)};
      e.target = static_cast<ProcessId>(next_join_id++);
      size_t contacts = 1 + rng.below(2);
      std::set<ProcessId> cs;
      for (size_t c = 0; c < contacts; ++c) cs.insert(pick_member(true));
      e.group.assign(cs.begin(), cs.end());
      s.events.push_back(std::move(e));
      continue;
    }
    d -= w.join;
    if (d < w.leave) {
      if (!may_depart()) continue;
      ProcessId p = pick_member(true);
      if (departed.count(p)) continue;
      departed.insert(p);
      s.events.push_back({EventType::kLeave, tick_in(50, horizon), p});
      continue;
    }
    d -= w.leave;
    if (d < w.suspect) {
      // A false suspicion usually departs *both* parties: the executor's
      // bilateral counter-suspicion makes the Mgr believe accuser and
      // accused faulty, so budget two departures.
      if (departed.size() + 2 > n - 2) continue;
      ProcessId target = pick_member(true);
      ProcessId observer = pick_member(true);
      if (observer == target || departed.count(target) || departed.count(observer)) continue;
      departed.insert(target);
      departed.insert(observer);
      ScheduleEvent e{EventType::kSuspect, tick_in(50, horizon), target};
      e.observer = observer;
      s.events.push_back(std::move(e));
      continue;
    }
    d -= w.suspect;
    if (d < w.storm) {
      ScheduleEvent e{EventType::kDelayStorm, tick_in(1, horizon)};
      e.duration = tick_in(200, std::max<Tick>(opts.storm_duration_cap, 201));
      e.min_delay = 1 + rng.below(8);
      e.max_delay = e.min_delay + 1 + rng.below(std::max<Tick>(opts.storm_ceiling, 1));
      s.events.push_back(std::move(e));
      continue;
    }
    d -= w.storm;
    if (d < w.oneway) {
      // Asymmetric cut: a random nonempty strict subset stops being heard
      // (its outbound frames are held) while still hearing everyone else.
      std::vector<ProcessId> side;
      for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
        if (rng.chance(1, 2)) side.push_back(p);
      }
      if (side.empty() || side.size() == n) continue;
      ScheduleEvent e{EventType::kPartitionOneway, tick_in(50, horizon)};
      e.group = std::move(side);
      if (rng.chance(3, 4)) {
        e.duration = tick_in(100, 1500);
      } else {
        has_unhealed_cut = true;
      }
      s.events.push_back(std::move(e));
      continue;
    }
    d -= w.oneway;
    if (d < w.faults) {
      // Background-channel fault span: loss is always meaningful (>= 1%),
      // dup/reorder may be absent.  Always bounded — the run can only
      // conclude once every fault span has healed.
      ScheduleEvent e{EventType::kFaults, tick_in(1, horizon)};
      e.duration = tick_in(200, std::max<Tick>(opts.storm_duration_cap, 201));
      e.loss = 10 + static_cast<uint32_t>(rng.below(std::max<uint32_t>(opts.loss_ceiling, 11) - 9));
      e.dup = static_cast<uint32_t>(rng.below(opts.dup_ceiling + 1));
      e.reorder = static_cast<uint32_t>(rng.below(opts.reorder_ceiling + 1));
      s.events.push_back(std::move(e));
      continue;
    }
    // Crash-restart pair: a member dies and its replacement — a *fresh*
    // incarnation with a never-reused id (paper S1) — re-joins through the
    // normal admission path.  Consumes crash budget: between death and
    // re-admission the group really is one member down.
    if (crashes >= max_crashes || !may_depart()) continue;
    ProcessId victim = pick_member(true);
    if (departed.count(victim)) continue;
    departed.insert(victim);
    ++crashes;
    Tick died = tick_in(50, horizon * 2 / 3);
    s.events.push_back({EventType::kCrash, died, victim});
    ScheduleEvent e{EventType::kRestart, died + tick_in(200, 1200)};
    e.target = victim;
    e.observer = static_cast<ProcessId>(next_join_id++);
    size_t contacts = 1 + rng.below(2);
    std::set<ProcessId> cs;
    for (size_t c = 0; c < contacts; ++c) {
      ProcessId cand = pick_member(true);
      if (cand != victim) cs.insert(cand);
    }
    if (cs.empty()) {
      for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
        if (!departed.count(p)) { cs.insert(p); break; }
      }
    }
    if (cs.empty()) continue;  // nobody left to contact; keep the crash
    e.group.assign(cs.begin(), cs.end());
    s.events.push_back(std::move(e));
  }

  if (has_unhealed_cut) {
    s.events.push_back({EventType::kHeal, horizon + 1});
  }
  if (s.events.empty()) {
    // Degenerate draw: fall back to a single crash so every schedule
    // exercises at least one view change.
    s.events.push_back({EventType::kCrash, horizon / 2, static_cast<ProcessId>(n - 1)});
  }
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const ScheduleEvent& a, const ScheduleEvent& b) { return a.at < b.at; });
  return s;
}

GeneratorOptions tuned_for_heartbeat(GeneratorOptions opts, const fd::HeartbeatOptions& hb) {
  // False suspicions need silence beyond the timeout: per-message delays
  // above it (one held-back ack suffices) sustained for longer than the
  // timeout window itself.
  opts.storm_ceiling = std::max<Tick>(opts.storm_ceiling, 2 * hb.timeout);
  opts.storm_duration_cap = std::max<Tick>(opts.storm_duration_cap, 3 * hb.timeout);
  return opts;
}

GeneratorOptions tuned_for_phi(GeneratorOptions opts, const fd::PhiOptions& phi) {
  // Until min_samples gaps arrive a pair suspects at bootstrap_timeout, so
  // the same "per-message delay above the threshold, sustained past it"
  // calibration applies.  An adapted fit raises the bar further (that is
  // the detector's selling point — the φ bench row measures it), so these
  // are floors, not guarantees of false suspicions.
  opts.storm_ceiling = std::max<Tick>(opts.storm_ceiling, 2 * phi.bootstrap_timeout);
  opts.storm_duration_cap = std::max<Tick>(opts.storm_duration_cap, 3 * phi.bootstrap_timeout);
  return opts;
}

GeneratorOptions unit_generator(GeneratorOptions base, Profile profile, const ExecOptions& exec,
                                const soak::SoakOptions* soak) {
  base.profile = profile;
  if (soak) {
    base.horizon = std::max(base.horizon, soak->horizon);
    base.restart_weight = soak->restart_weight;
  }
  // Timeout-detector runs draw from a storm distribution hot enough to
  // cross the suspicion threshold — otherwise the detector axis would
  // never exercise false detection, the behaviour it exists to fuzz.
  if (exec.fd == fd::DetectorKind::kHeartbeat) return tuned_for_heartbeat(base, exec.heartbeat);
  if (exec.fd == fd::DetectorKind::kPhi) return tuned_for_phi(base, exec.phi);
  return base;
}

}  // namespace gmpx::scenario
