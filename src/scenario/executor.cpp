#include "scenario/executor.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "harness/cluster.hpp"
#include "scenario/verdict.hpp"

namespace gmpx::scenario {

std::string ExecResult::message() const {
  std::ostringstream os;
  if (!quiesced) {
    os << "run did not quiesce within the event budget";
    if (!diagnostic.empty()) os << " (" << diagnostic << ")";
    os << "\n";
  }
  os << check.message();
  return os.str();
}

harness::ClusterOptions cluster_options_for(const Schedule& s, const ExecOptions& opts) {
  harness::ClusterOptions co;
  co.n = s.n;
  co.seed = s.seed;
  co.require_majority = opts.require_majority;
  co.detector = opts.fd;
  co.heartbeat = opts.heartbeat;
  co.phi = opts.phi;
  co.join_max_attempts = opts.join_max_attempts;
  co.bug_skip_faulty_record = opts.inject_bug_unrecorded_suspicion;
  return co;
}

// ---------------------------------------------------------------------------
// StagedRun::Impl — the executor body as an explicit state machine.  The
// one-shot execute() path runs it install() -> advance(full budget); the
// GroupMux advances it in bounded slices, many runs interleaved.  Everything
// here is the former execute_on() body, restructured but not rephrased: the
// scripted closures fire the same world.at() calls in the same order, so the
// fuzz grid stays byte-identical.
// ---------------------------------------------------------------------------
struct StagedRun::Impl {
  Impl(harness::Cluster& cluster, const Schedule& s, const ExecOptions& opts)
      : cluster(cluster),
        s(s),
        opts(opts),
        // Heartbeat and φ share every executor obligation that distinguishes
        // them from the oracle: they are *timeout* detectors, so standoffs
        // resolve natively and quiescence means protocol quiescence, not
        // queue drain.
        timeout_fd(opts.fd != fd::DetectorKind::kOracle),
        world(cluster.world()),
        base_delays(world.delays()) {}

  harness::Cluster& cluster;
  const Schedule& s;
  const ExecOptions& opts;
  const bool timeout_fd;
  sim::SimWorld& world;
  const sim::DelayModel base_delays;

  // Delay storms can overlap; at any boundary the model in force is the
  // storm with the latest start covering that tick (later-listed wins
  // ties), else the baseline.  Computing this from the full schedule keeps
  // each boundary idempotent — a storm ending inside another storm must
  // not silently restore the baseline.
  struct Storm {
    Tick start, end;
    sim::DelayModel model;
  };
  std::vector<Storm> storms;
  // Channel-fault spans follow the same latest-start-wins overlap rule
  // (baseline: fault-free).
  struct FaultSpan {
    Tick start, end;
    sim::ChannelFaults faults;
  };
  std::vector<FaultSpan> fault_spans;
  std::vector<ProcessId> joiners;
  /// Partition scripts' scratch: side B of the cut being applied.
  std::vector<ProcessId> rest;

  enum class Stage : uint8_t { kFresh, kRunning, kDone };
  Stage stage = Stage::kFresh;
  bool quiesced = false;
  int hook_pass = 0;
  uint64_t slice_budget_spent = 0;
  ExecResult result;

  sim::DelayModel model_at(Tick t) const {
    sim::DelayModel m = base_delays;
    Tick best_start = 0;
    bool found = false;
    for (const Storm& st : storms) {
      if (st.start <= t && t < st.end && (!found || st.start >= best_start)) {
        best_start = st.start;
        m = st.model;
        found = true;
      }
    }
    return m;
  }

  sim::ChannelFaults faults_at(Tick t) const {
    sim::ChannelFaults f{};
    Tick best_start = 0;
    bool found = false;
    for (const FaultSpan& fs : fault_spans) {
      if (fs.start <= t && t < fs.end && (!found || fs.start >= best_start)) {
        best_start = fs.start;
        f = fs.faults;
        found = true;
      }
    }
    return f;
  }

  void install() {
    for (const ScheduleEvent& e : s.events) {
      if (e.type == EventType::kDelayStorm) {
        storms.push_back({e.at, e.at + e.duration, {e.min_delay, e.max_delay}});
      } else if (e.type == EventType::kFaults) {
        fault_spans.push_back({e.at, e.at + e.duration, {e.loss, e.dup, e.reorder}});
      }
    }
    for (const ScheduleEvent& e : s.events) {
      switch (e.type) {
        case EventType::kCrash:
          cluster.crash_at(e.at, e.target);
          break;
        case EventType::kLeave:
          // (Closures here capture this Impl and the schedule by reference:
          // both outlive the simulation run they are fired in — stack-local
          // for execute(), slot-resident for the mux.)
          world.at(e.at, [this, p = e.target] {
            if (Context* ctx = cluster.world().context_of(p)) {
              if (cluster.has_node(p)) cluster.node(p).leave(*ctx);
            }
          });
          break;
        case EventType::kSuspect:
          cluster.suspect_at(e.at, e.observer, e.target);
          // Bilateral resolution (paper's GMP-5 rule: "either p goes or q
          // goes").  The falsely suspected process stops hearing from its
          // accuser — S1 isolation makes the accuser ignore it — so any
          // timeout detector at the target eventually suspects the accuser
          // back.  The oracle only fires on real crashes, so the executor
          // injects that counter-suspicion explicitly; without it a false
          // suspicion of the Mgr wedges the group forever (the Mgr awaits an
          // OK the isolating accuser will never send).  Heartbeat and φ *are*
          // timeout detectors, so the counter-suspicion arises natively
          // (the accuser stops pinging its victim; the victim times it out)
          // and the executor must not inject anything.
          if (!timeout_fd) cluster.suspect_at(e.at + 200, e.target, e.observer);
          break;
        case EventType::kPartition: {
          // Side B is every registered process not named in the event (the
          // cut follows joiners too).  (this + one pointer into the schedule:
          // fits the std::function small-buffer, so scripting the cut never
          // allocates.)
          world.at(e.at, [this, side = &e.group] {
            rest.clear();
            for (ProcessId p : cluster.ids()) {
              if (!std::count(side->begin(), side->end(), p)) rest.push_back(p);
            }
            if (!side->empty() && !rest.empty()) cluster.world().partition(*side, rest);
          });
          if (e.duration > 0) {
            world.at(e.at + e.duration, [this] { world.heal_partition(); });
          }
          break;
        }
        case EventType::kHeal:
          world.at(e.at, [this] { world.heal_partition(); });
          break;
        case EventType::kJoin:
          cluster.add_joiner(e.target, e.group, e.at);
          joiners.push_back(e.target);
          break;
        case EventType::kRestart:
          // A reborn member is a *fresh incarnation* (paper S1: ids are never
          // reused): the crashed e.target stays dead, and e.observer enters
          // through the exact admission path a first-time joiner uses.
          cluster.add_joiner(e.observer, e.group, e.at);
          joiners.push_back(e.observer);
          break;
        case EventType::kDelayStorm:
          world.at(e.at, [this, t = e.at] { world.set_delays(model_at(t)); });
          world.at(e.at + e.duration,
                   [this, t = e.at + e.duration] { world.set_delays(model_at(t)); });
          break;
        case EventType::kPartitionOneway: {
          // `group` -> rest stops flowing; the reverse direction keeps going.
          // Same shape as kPartition, but through the one-way cut API.
          world.at(e.at, [this, side = &e.group] {
            rest.clear();
            for (ProcessId p : cluster.ids()) {
              if (!std::count(side->begin(), side->end(), p)) rest.push_back(p);
            }
            if (!side->empty() && !rest.empty()) cluster.world().partition_oneway(*side, rest);
          });
          if (e.duration > 0) {
            world.at(e.at + e.duration, [this] { world.heal_partition(); });
          }
          break;
        }
        case EventType::kFaults:
          world.at(e.at, [this, t = e.at] { world.set_channel_faults(faults_at(t)); });
          world.at(e.at + e.duration,
                   [this, t = e.at + e.duration] { world.set_channel_faults(faults_at(t)); });
          break;
      }
    }

    if (opts.on_pre_start) opts.on_pre_start(cluster);

    cluster.start();
    stage = Stage::kRunning;
  }

  /// One "run until nothing protocol-level is happening" round; re-runnable
  /// so the soak hook can inject app sync/dispatch traffic after quiescence
  /// and settle again — and so the mux can hand it a bounded slice budget.
  bool quiesce_round(uint64_t budget) {
    if (timeout_fd) {
      // Real timeout detection: standoffs resolve natively (mutual timeout),
      // so the executor injects nothing.  The queue never drains — ping
      // timers re-arm forever — so quiescence means "no protocol work left
      // and a full detection-settle window produced none".  The window must
      // cover the nastiest storm in the schedule: a packet that left just
      // before a silence began can refresh the peer's proof-of-life up to
      // one worst-case delay into the window — and a reordered background
      // frame can arrive a further reorder_slack ticks after that.
      Tick worst_delay = base_delays.max_delay;
      for (const Storm& st : storms) {
        if (st.model.max_delay > worst_delay) worst_delay = st.model.max_delay;
      }
      for (const FaultSpan& fs : fault_spans) {
        if (fs.faults.reorder_permille > 0) {
          worst_delay += fs.faults.reorder_slack + 1;
          break;
        }
      }
      return cluster.run_to_protocol_quiescence(budget, worst_delay);
    }
    bool q = cluster.run_to_quiescence(budget);
    // Timeout-detector emulation (oracle only).  The oracle reports *real*
    // crashes, but the protocol's "await (OK(p) or faulty(p))" also relies
    // on detecting non-cooperation: a process that (falsely, possibly via
    // F2 gossip) believes the awaiter faulty isolates it and will never
    // answer.  With real clocks the awaiter's detector times such a peer
    // out; in the simulation, quiescence with a live awaited-but-isolating
    // peer *is* that timeout.  Inject the suspicion and resume until no
    // standoff remains.
    for (int pass = 0; q && pass < 64; ++pass) {
      std::vector<std::pair<ProcessId, ProcessId>> timeouts;  // (awaiter, peer)
      for (ProcessId p : cluster.ids()) {
        if (world.crashed(p) || !cluster.node(p).admitted()) continue;
        for (ProcessId peer : cluster.node(p).awaiting()) {
          if (!world.crashed(peer) && cluster.has_node(peer) &&
              cluster.node(peer).isolated().count(p)) {
            timeouts.emplace_back(p, peer);
          }
        }
      }
      if (timeouts.empty()) break;
      for (auto [p, peer] : timeouts) {
        if (Context* ctx = world.context_of(p)) cluster.node(p).suspect(*ctx, peer);
      }
      q = cluster.run_to_quiescence(budget);
    }
    return q;
  }

  bool advance(uint64_t budget) {
    if (stage == Stage::kFresh) install();
    if (stage == Stage::kDone) return true;
    quiesced = quiesce_round(budget);
    slice_budget_spent += budget;
    // A slice that ran out of events is not a verdict: the caller comes
    // back with the next slice until the accumulated budget matches what a
    // one-shot execute() would have granted.
    if (!quiesced && slice_budget_spent < opts.max_sim_events) return false;
    // Endgame.  App hooks (soak mode) run after quiescence on a clean
    // network and re-open the run; each settle gets the full budget, as in
    // the one-shot path.
    for (; quiesced && opts.on_quiesced && hook_pass < 32; ++hook_pass) {
      if (!opts.on_quiesced(cluster, hook_pass)) break;
      quiesced = quiesce_round(opts.max_sim_events);
    }
    conclude();
    return true;
  }

  void conclude() {
    ExecResult& r = result;
    r.quiesced = quiesced;
    r.end_tick = world.now();
    r.messages = world.meter().protocol_total();
    r.fd_messages = world.meter().detector_total();
    r.skipped_ticks = world.skipped_ticks();
    r.skipped_events = world.skipped_events();
    for (ProcessId j : joiners) {
      if (cluster.has_node(j) && cluster.node(j).join_aborted()) ++r.aborted_joins;
    }
    if (!r.quiesced) {
      // Loud budget diagnostic: name what was still live instead of failing
      // silently — a run that cannot quiesce is either a genuinely wedged
      // protocol (a bug) or a budget set too small, and the pending summary
      // tells which.
      r.diagnostic = world.pending_summary();
      for (ProcessId p : cluster.ids()) {
        // A crashed node's timers were reclaimed by the world; its stale
        // join_timer_/leave_timer_ fields must not name it as live work.
        if (!cluster.has_node(p) || world.crashed(p)) continue;
        std::string retry = cluster.node(p).pending_retry();
        if (!retry.empty()) r.diagnostic += "; node " + std::to_string(p) + ": " + retry;
      }
    }

    // Trace fingerprint: splitmix64 finalizer folded over every recorded
    // event field.  One 64-bit mix per field (the old byte-wise FNV-1a spent
    // more time hashing than simulating on short runs); full avalanche, so
    // the DifferentSeedsDiverge discriminating-power test still holds.  The
    // value is only ever compared between runs of the same build — it is
    // never printed or persisted — so the algorithm is free to change.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      uint64_t z = (h ^ v) + 0x9E3779B97F4A7C15ull;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      h = z ^ (z >> 31);
    };
    cluster.recorder().for_each_event([&](const trace::Event& e) {
      mix(e.seq);
      mix(e.tick);
      mix(static_cast<uint64_t>(e.kind));
      mix(e.actor);
      mix(e.target);
      mix(e.version);
      mix(e.members.size());
      for (ProcessId m : e.members) mix(m);
    });
    r.trace_hash = h;

    // Verdict: the gating policy (frontier-majority precondition, unadmitted
    // joiner + zombie false-suspector exemptions) lives in judge_trace, the
    // single judge shared with the real-deployment executor — the sim-vs-TCP
    // cross-check depends on both paths applying the identical policy.
    VerdictInputs vin;
    vin.quiesced = r.quiesced;
    vin.check_liveness = opts.check_liveness;
    vin.require_majority = opts.require_majority;
    vin.schedule_liveness_eligible = liveness_eligible(s);
    vin.ids = cluster.ids();
    vin.joiners = joiners;
    vin.crashed = [this](ProcessId p) { return world.crashed(p); };
    vin.admitted = [this](ProcessId p) {
      return cluster.has_node(p) && cluster.node(p).admitted();
    };
    Verdict verdict = judge_trace(cluster.recorder(), vin);
    r.liveness_checked = verdict.liveness_checked;
    r.check = std::move(verdict.check);

    for (ProcessId p : world.alive()) {
      if (cluster.has_node(p) && cluster.node(p).admitted()) {
        r.final_view_size = cluster.node(p).view().members().size();
        break;
      }
    }
    stage = Stage::kDone;
  }
};

StagedRun::StagedRun(harness::Cluster& cluster, const Schedule& s, const ExecOptions& opts)
    : impl_(std::make_unique<Impl>(cluster, s, opts)) {}
StagedRun::~StagedRun() = default;
StagedRun::StagedRun(StagedRun&&) noexcept = default;
StagedRun& StagedRun::operator=(StagedRun&&) noexcept = default;

void StagedRun::install() { impl_->install(); }
bool StagedRun::advance(uint64_t max_events) { return impl_->advance(max_events); }
bool StagedRun::done() const { return impl_->stage == Impl::Stage::kDone; }
const ExecResult& StagedRun::result() const { return impl_->result; }
ExecResult StagedRun::take_result() { return std::move(impl_->result); }

ExecResult execute(const Schedule& s, const ExecOptions& opts) {
  harness::Cluster cluster(cluster_options_for(s, opts));
  StagedRun run(cluster, s, opts);
  run.advance(opts.max_sim_events);
  return run.take_result();
}

ExecResult execute(const Schedule& s, const ExecOptions& opts, harness::Cluster& cluster) {
  cluster.reset(cluster_options_for(s, opts));
  StagedRun run(cluster, s, opts);
  run.advance(opts.max_sim_events);
  return run.take_result();
}

}  // namespace gmpx::scenario
