// The timeout monitor shared by both realistic detectors: one decorating
// Actor per process, templated over a per-pair *model* that decides when a
// silence becomes a suspicion.
//
// TimeoutMonitor owns everything the two mechanisms do alike: it intercepts
// heartbeat traffic, forwards everything else to the wrapped GmpNode, pings
// every view member once per interval, and feeds silences past the model's
// threshold into GmpNode::suspect().  The model owns the per-pair table and
// supplies only what differs:
//
//   * `suspect_after(q)` — the silence threshold (fixed, or fitted);
//   * `on_arrival(q, t)` — a detector frame from q arrived at t (a guarded
//     proof-of-life refresh, or one that also samples the gap);
//   * `mark_heard(q, t)` / `mark_heard_fresh(q, t)` — proof of life with no
//     sample (unconditional / never moving backwards);
//   * `last(q)`, `options()`, `reset(opts)`;
//   * the simulator-driver hooks `pair_bound`, `gate` and `settle_base`,
//     used only by fd::TimeoutDetector (fd/detector.hpp).
//
// The two models are fd::HeartbeatModel (fd/heartbeat.hpp) and
// fd::PhiModel (fd/phi.hpp); `HeartbeatFd` and `PhiFd` name the monitor over
// each.
//
// Proof of life is the peer's own traffic: every admitted member pings
// every view member each interval, so the symmetric ping streams double as
// acknowledgements — an admitted receiver does not ack a ping (its own next
// ping says the same thing for free, halving detector traffic).  The one
// asymmetry is a committed-but-unbootstrapped joiner: it appears in views
// (so members monitor it) but cannot ping before its ViewTransfer arrives,
// so *unadmitted* processes ack pings to stay audible.
//
// Runtime-neutral: the monitor is written against Context/Actor, so it runs
// unchanged over sim::SimWorld and net::TcpRuntime.  Constructed
// stand-alone (`self_arm`) it arms its own per-node ping timer; under
// fd::TimeoutDetector (the simulator harness) the timers are *batched* —
// one environment-owned wave timer ticks every monitor per interval — and
// ping/ack frames ride the simulator's slab-free background fast path.
#pragma once

#include <vector>

#include "common/runtime.hpp"
#include "gmp/messages.hpp"
#include "gmp/node.hpp"

namespace gmpx::sim {
class SimWorld;
}

namespace gmpx::fd {

/// Per-walk steadiness predicate of the skip horizon (fd/detector.cpp);
/// a model's `gate` hook builds one.
struct SteadyGate;

/// Decorating actor: one monitor per process.
template <typename Model>
class TimeoutMonitor final : public Actor {
 public:
  using Options = typename Model::Options;

  /// `self_arm` selects the drive mode: true (default) arms a per-node ping
  /// timer (runtime-neutral stand-alone use); false leaves pacing to an
  /// external driver calling tick() — fd::TimeoutDetector's batched wave.
  TimeoutMonitor(gmp::GmpNode* inner, Options opts, bool self_arm = true)
      : inner_(inner), model_(opts), self_arm_(self_arm) {}

  void on_start(Context& ctx) override {
    inner_->on_start(ctx);
    if (self_arm_ && !inner_->has_quit()) arm(ctx);
  }

  void on_packet(Context& ctx, const Packet& p) override {
    if (p.kind == gmp::kind::kHeartbeat || p.kind == gmp::kind::kHeartbeatAck) {
      on_background(ctx, p.from, p.kind);
      return;
    }
    // Any protocol message is proof of life too — but NOT a distribution
    // sample: an adaptive fit models the detector's own cadence, and a
    // view-change burst of near-simultaneous protocol messages would flood
    // it with tiny gaps and fire a false suspicion at the next quiet scan.
    // Every proof-of-life write lands at or before `now` (live arrivals,
    // replayed elided arrivals, skip-target marks), so the freshness guard
    // never fires here; it keeps that argument local.
    model_.mark_heard_fresh(p.from, ctx.now());
    inner_->on_packet(ctx, p);
    // Exclusion / lost-majority quits happen inside the forwarded call:
    // cancel the pending ping timer right away (generation-counter slab
    // makes this O(1)) so a finished process leaves no re-arming event
    // behind and the run can quiesce.
    if (inner_->has_quit()) disarm(ctx);
  }

  /// Detector-traffic entry point, shared by the packet path above and the
  /// simulator's slab-free background fast path.
  void on_background(Context& ctx, ProcessId from, uint32_t kind) {
    // S1: no traffic is accepted from an isolated sender, pings included.
    if (inner_->isolated().count(from) || inner_->has_quit()) return;
    model_.on_arrival(from, ctx.now());
    // An admitted receiver's own ping stream answers for it; only a process
    // that cannot ping yet (pre-bootstrap joiner) must ack to be heard.
    if (kind == gmp::kind::kHeartbeat && !inner_->admitted()) {
      ctx.send_background(from, gmp::kind::kHeartbeatAck);
    }
  }

  /// One monitor period: check every view member for silence past the
  /// model's threshold, suspect the silent ones, ping the rest.  Public so
  /// an external driver can pace all monitors with a single timer; in
  /// self-arm mode an internal timer calls it.
  void tick(Context& ctx) {
    scan(ctx, [&ctx](ProcessId q) { ctx.send_background(q, gmp::kind::kHeartbeat); });
  }

  /// Wave-driven variant: append this period's ping targets to `out`
  /// instead of sending — the driver ships them as one batched frame (the
  /// simulator's wave fast path delivers a sender's whole ping fan with a
  /// single event and a single delay draw).
  void tick_collect(Context& ctx, std::vector<ProcessId>& out) {
    scan(ctx, [&out](ProcessId q) { out.push_back(q); });
  }

  /// The wrapped protocol endpoint.
  gmp::GmpNode& node() { return *inner_; }
  const gmp::GmpNode& node() const { return *inner_; }

  /// The per-pair model (the driver reads thresholds and replays elided
  /// upkeep through it).
  Model& model() { return model_; }
  const Model& model() const { return model_; }

  /// Last proof of life from `q` (0 = never heard).
  Tick last_heard(ProcessId q) const { return model_.last(q); }

  /// Rebind to a (pooled) node for a fresh run, clearing per-run state but
  /// keeping buffer capacity.
  void reset(gmp::GmpNode* inner, Options opts, bool self_arm) {
    inner_ = inner;
    model_.reset(opts);
    self_arm_ = self_arm;
    timer_ = 0;
    scratch_.clear();
  }

 private:
  /// The monitor period body shared by tick()/tick_collect(): silence
  /// checks drive suspect(); `ping` receives each peer to be pinged.
  template <typename Ping>
  void scan(Context& ctx, Ping&& ping) {
    if (inner_->has_quit()) return;  // no pings after quit_p
    if (!inner_->admitted()) return;
    const Tick now = ctx.now();
    // Snapshot the membership before walking it: suspect() can commit a
    // view change synchronously (a Mgr whose round awaited only the newly
    // suspected peer installs the next view inside the call), and that
    // reallocates the live members vector mid-iteration.  The scratch
    // buffer is reused across ticks, so steady state never allocates.
    scratch_.assign(inner_->view().members().begin(), inner_->view().members().end());
    for (ProcessId q : scratch_) {
      if (q == ctx.self() || inner_->isolated().count(q)) continue;
      const Tick seen = model_.last(q);
      if (seen == 0) {
        // First sighting of this member: start its grace period now.
        model_.mark_heard(q, now);
      } else if (now - seen > model_.suspect_after(q)) {
        inner_->suspect(ctx, q);
        if (inner_->has_quit()) return;  // the suspicion cost us majority
        continue;  // no point pinging a suspect
      }
      ping(q);
    }
  }

  void arm(Context& ctx) {
    timer_ = ctx.set_background_timer(model_.options().interval, [this, &ctx] {
      timer_ = 0;
      tick(ctx);
      if (!inner_->has_quit()) arm(ctx);
    });
  }

  void disarm(Context& ctx) {
    if (timer_ != 0) {
      ctx.cancel_timer(timer_);
      timer_ = 0;
    }
  }

  gmp::GmpNode* inner_;
  Model model_;
  bool self_arm_;
  TimerId timer_ = 0;
  std::vector<ProcessId> scratch_;  ///< scan()'s membership snapshot
};

}  // namespace gmpx::fd
