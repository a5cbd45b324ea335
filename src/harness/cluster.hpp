// Simulation cluster harness: wires SimWorld + GmpNodes + trace recorder +
// a pluggable failure detector together.  Every test and bench builds its
// experiment on this.
//
// Failure detection is a first-class layer (src/fd/detector.hpp):
// `ClusterOptions::detector` selects the scripted oracle (deterministic
// crash-hook injection, the default) or one of the realistic timeout
// detectors, heartbeat or φ (real ping/timeout monitoring that may suspect
// falsely under delay).  The cluster
// registers the detector's wire-traffic kinds with the simulator so
// detector noise is metered separately from protocol messages and treated
// as background for protocol-quiescence detection.
//
// Pooled lifecycle: reset(opts) rewinds the whole deployment — world,
// recorder, detector, nodes — to a freshly-constructed state while reusing
// every allocation (node objects, event slabs, trace slots, detector
// monitors).  A reset cluster behaves identically to `Cluster(opts)`; the
// fuzz sweep keeps one cluster per worker thread and resets it per run,
// which is what makes the steady-state fuzz loop allocation-free.
#pragma once

#include <memory>
#include <vector>

#include "fd/detector.hpp"
#include "gmp/node.hpp"
#include "sim/world.hpp"
#include "trace/checker.hpp"
#include "trace/recorder.hpp"

namespace gmpx::harness {

struct ClusterOptions {
  size_t n = 4;            ///< initial members, ids 0..n-1 (0 = initial Mgr)
  uint64_t seed = 1;
  bool require_majority = true;   ///< S7 final algorithm vs S3 basic algorithm
  sim::DelayModel delays{};
  fd::DetectorKind detector = fd::DetectorKind::kOracle;
  fd::OracleOptions oracle{};        ///< used when detector == kOracle
  fd::HeartbeatOptions heartbeat{};  ///< used when detector == kHeartbeat
  fd::PhiOptions phi{};              ///< used when detector == kPhi
  /// Joiner solicit / leave re-denunciation retry cap for every node;
  /// 0 = gmp::kDefaultJoinMaxAttempts.  Raised (e.g. to the legacy 200) to
  /// reproduce pre-give-up behaviour byte-for-byte.
  size_t join_max_attempts = 0;
  /// Fault injection for minimizer tests (see gmp::Config).
  bool bug_skip_faulty_record = false;
  /// Burst dataplane (sim::SimWorld::set_burst_mode): drain same-tick event
  /// batches in the skip-free run loops.  Off replays per-event; traces are
  /// byte-identical either way (the determinism suite pins it).
  bool burst = true;
};

/// A simulated GMP deployment.
class Cluster {
 public:
  explicit Cluster(ClusterOptions opts) : world_(opts.seed, opts.delays) {
    init(std::move(opts), /*pooled=*/false);
  }

  /// Rewind for a fresh run under `opts`, reusing every allocation.  The
  /// detector instance survives when its kind and tuning are unchanged
  /// (its monitors/pools carry over); otherwise it is rebuilt.
  void reset(ClusterOptions opts) {
    world_.reset(opts.seed, opts.delays);
    recorder_.reset();
    for (auto& node : nodes_) {
      if (node) node_pool_.push_back(std::move(node));
    }
    nodes_.clear();
    ids_.clear();
    const bool detector_reusable =
        detector_ && opts.detector == opts_.detector &&
        (opts.detector == fd::DetectorKind::kOracle
             ? opts.oracle == opts_.oracle
             : (opts.detector == fd::DetectorKind::kHeartbeat ? opts.heartbeat == opts_.heartbeat
                                                              : opts.phi == opts_.phi));
    init(std::move(opts), detector_reusable);
  }

  /// Register a joiner (new process instance) before start().  `start_at`
  /// delays the first solicitation, so scenario scripts can schedule joins
  /// at arbitrary ticks.
  gmp::GmpNode& add_joiner(ProcessId id, const std::vector<ProcessId>& contacts,
                           Tick start_at = 0) {
    cfg_scratch_.initial_members.clear();
    cfg_scratch_.require_majority = true;
    cfg_scratch_.joiner = true;
    cfg_scratch_.contacts.assign(contacts.begin(), contacts.end());
    cfg_scratch_.join_start_delay = start_at;
    cfg_scratch_.join_max_attempts = effective_join_max_attempts();
    cfg_scratch_.recorder = &recorder_;
    cfg_scratch_.bug_skip_faulty_record = opts_.bug_skip_faulty_record;
    return add_node(id, cfg_scratch_);
  }

  /// Deliver on_start everywhere.
  void start() { world_.start(); }

  sim::SimWorld& world() { return world_; }
  trace::Recorder& recorder() { return recorder_; }
  fd::FailureDetector& detector() { return *detector_; }
  gmp::GmpNode& node(ProcessId id) { return *nodes_.at(id); }
  bool has_node(ProcessId id) const { return id < nodes_.size() && nodes_[id] != nullptr; }
  const std::vector<ProcessId>& ids() const { return ids_; }

  /// Script a crash.
  void crash_at(Tick t, ProcessId id) { world_.crash_at(t, id); }

  /// Script a (possibly false) F1 suspicion: observer decides target faulty.
  void suspect_at(Tick t, ProcessId observer, ProcessId target) {
    world_.at(t, [this, observer, target] {
      if (Context* ctx = world_.context_of(observer)) {
        nodes_.at(observer)->suspect(*ctx, target);
      }
    });
  }

  /// Run until the event queue drains.  True on quiescence.  Only suits
  /// oracle runs: heartbeat ping timers re-arm forever.
  bool run_to_quiescence(uint64_t max_events = 50'000'000) {
    return world_.run_until_idle(max_events);
  }

  /// Run until no protocol work is pending and a full detection-settle
  /// window passes without producing any (heartbeat runs: the queue never
  /// drains, but the protocol does).  True on protocol quiescence.
  /// `worst_delay` is the largest per-message channel delay the run can be
  /// under (delay storms included) — a packet still in flight can refresh a
  /// peer's proof-of-life that late into the window, postponing the
  /// timeout it must cover.
  bool run_to_protocol_quiescence(uint64_t max_events = 50'000'000, Tick worst_delay = 0) {
    return world_.run_until_protocol_idle(detection_settle(worst_delay), max_events);
  }

  /// A settle window long enough that any detection the installed detector
  /// would inevitably fire does so inside it (the detector knows its own
  /// timeouts).
  Tick detection_settle(Tick worst_delay = 0) const {
    Tick d = worst_delay > opts_.delays.max_delay ? worst_delay : opts_.delays.max_delay;
    return detector_->settle_window(d);
  }

  /// Run until simulated time `t` (for heartbeat-FD experiments that watch
  /// a fixed horizon instead of waiting for quiescence).
  void run_until(Tick t) { world_.run_until(t); }

  /// Validate the recorded run against GMP-0..5.
  trace::CheckResult check(const trace::CheckOptions& o = {}) const {
    return trace::check_gmp(recorder_, o);
  }

 private:
  /// The retry cap every node gets — joiners and seed members alike (it
  /// also bounds leave re-denunciation).
  size_t effective_join_max_attempts() const {
    return opts_.join_max_attempts ? opts_.join_max_attempts : gmp::kDefaultJoinMaxAttempts;
  }

  /// Shared constructor/reset body: (re)build the detector wiring, the
  /// initial membership, and the crash hook.  `reuse_detector` keeps the
  /// existing detector instance (monitors pooled via its reset()).
  void init(ClusterOptions opts, bool reuse_detector) {
    opts_ = std::move(opts);
    if (reuse_detector) {
      detector_->reset();
    } else {
      detector_ =
          fd::make_detector(opts_.detector, opts_.oracle, opts_.heartbeat, opts_.phi);
    }
    auto [bg_lo, bg_hi] = detector_->background_kinds();
    world_.set_background_kinds(bg_lo, bg_hi);
    // Burst mode survives SimWorld::reset (engine config, not run state),
    // but re-assert it here so a pooled reset honours a changed option.
    world_.set_burst_mode(opts_.burst);
    // Virtual-time fast-forward wiring: the detector owns the "no detection
    // can fire before tick T" question and the post-skip reconciliation.
    // The oracle certifies "never"; the timeout detectors walk their
    // monitors.  (SimWorld::reset cleared both hooks;
    // a pooled reset re-registers them here, so skip state never leaks
    // across runs.)
    world_.set_horizon_provider(
        [this](Tick now) { return detector_->next_possible_detection(now); });
    world_.set_skip_hook(
        [this](Tick from, Tick to) { detector_->on_fast_forward(from, to); });
    world_.set_elision_sink([this](ProcessId from, ProcessId to, uint32_t kind, Tick when) {
      detector_->on_elided_background(from, to, kind, when);
    });
    detector_->bind({&world_, &nodes_, &ids_});
    initial_scratch_.clear();
    for (size_t i = 0; i < opts_.n; ++i)
      initial_scratch_.push_back(static_cast<ProcessId>(i));
    recorder_.set_initial_membership(initial_scratch_);
    for (ProcessId id : initial_scratch_) {
      cfg_scratch_.initial_members.assign(initial_scratch_.begin(), initial_scratch_.end());
      cfg_scratch_.require_majority = opts_.require_majority;
      cfg_scratch_.joiner = false;
      cfg_scratch_.contacts.clear();
      cfg_scratch_.join_start_delay = 0;
      cfg_scratch_.join_max_attempts = effective_join_max_attempts();
      cfg_scratch_.recorder = &recorder_;
      cfg_scratch_.bug_skip_faulty_record = opts_.bug_skip_faulty_record;
      add_node(id, cfg_scratch_);
    }
    world_.set_crash_hook([this](ProcessId p, Tick t) {
      recorder_.crash(p, t);
      detector_->on_crash(p, t);
    });
  }

  gmp::GmpNode& add_node(ProcessId id, const gmp::Config& cfg) {
    std::unique_ptr<gmp::GmpNode> node;
    if (!node_pool_.empty()) {
      node = std::move(node_pool_.back());
      node_pool_.pop_back();
      node->reinit(id, cfg);
    } else {
      node = std::make_unique<gmp::GmpNode>(id, cfg);
    }
    gmp::GmpNode& ref = *node;
    if (id >= nodes_.size()) nodes_.resize(id + 1);
    nodes_[id] = std::move(node);
    ids_.push_back(id);
    world_.add_actor(id, detector_->wrap(ref));
    return ref;
  }

  ClusterOptions opts_;
  sim::SimWorld world_;
  trace::Recorder recorder_;
  std::unique_ptr<fd::FailureDetector> detector_;
  // Dense id-indexed table (ids are small and dense; joiners extend the
  // tail).  Never iterated for behaviour — ids_ keeps deterministic order.
  std::vector<std::unique_ptr<gmp::GmpNode>> nodes_;
  std::vector<std::unique_ptr<gmp::GmpNode>> node_pool_;  ///< recycled across resets
  std::vector<ProcessId> ids_;
  std::vector<ProcessId> initial_scratch_;  ///< per-reset initial membership
  gmp::Config cfg_scratch_;                 ///< per-node config staging (reused)
};

}  // namespace gmpx::harness
