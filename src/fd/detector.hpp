// Pluggable failure-detection layer (the paper's F1 "observation").
//
// The paper deliberately leaves the detection mechanism open ("we are not
// concerned with the details of the mechanism") and only assumes it fires
// in finite time after a real crash.  A `FailureDetector` is the
// per-deployment policy object that decides *how* suspicions reach
// `GmpNode::suspect()`:
//
//   * OracleFd      — the scripted detector used by tests and benches: it
//     injects faulty_p(q) a bounded random delay after q really crashes.
//     Deterministic, never false, and free of detector message traffic, so
//     protocol complexity counts stay clean.
//   * HeartbeatDetector — wraps every node in a fd::HeartbeatFd ping/timeout
//     monitor (fd/heartbeat.hpp).  Detection is driven by real silence, so
//     it may produce *false* suspicions under delay storms and partitions —
//     exactly the phenomenon the protocol must (and does) tolerate.
//
// harness::Cluster owns one detector per deployment and gives it two
// integration points: `wrap()` may decorate each node's Actor before it is
// registered with the runtime, and `on_crash()` observes real crashes via
// the simulator's crash hook.  `background_kinds()` names the detector's
// own wire traffic so the simulator can (a) meter it separately from
// protocol messages and (b) treat it as background noise when deciding
// protocol quiescence (sim::SimWorld::run_until_protocol_idle).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fd/heartbeat.hpp"
#include "fd/phi.hpp"
#include "gmp/node.hpp"
#include "sim/world.hpp"

namespace gmpx::fd {

/// Which detector a deployment runs.  Threaded through ClusterOptions,
/// scenario::ExecOptions, the sweep grid and the gmpx_fuzz CLI.
enum class DetectorKind : uint8_t {
  kOracle,     ///< scripted crash-hook injection (deterministic, never false)
  kHeartbeat,  ///< real ping/timeout monitoring (may be false under delay)
  kPhi,        ///< adaptive φ-accrual monitoring (fd/phi.hpp)
};

/// Returns "oracle" / "heartbeat" / "phi".
const char* to_string(DetectorKind k);

/// Parse a detector name (as printed by to_string); false on unknown.
bool parse_detector(const std::string& name, DetectorKind& out);

/// Oracle tuning: F1's "detection occurs in finite time" with an explicit
/// bound.  `enabled = false` turns automatic injection off entirely, for
/// experiments that script every suspicion by hand.
struct OracleOptions {
  bool enabled = true;  ///< inject suspicions after real crashes
  Tick min_delay = 40;  ///< detection latency bounds
  Tick max_delay = 160;
  friend bool operator==(const OracleOptions&, const OracleOptions&) = default;
};

/// Per-deployment failure-detection policy.  One instance per cluster; the
/// cluster binds it to the deployment before registering any actor.
class FailureDetector {
 public:
  /// The deployment as the detector sees it.  `nodes` and `ids` are
  /// borrowed from the cluster and stay valid (and keep growing as joiners
  /// register) for the cluster lifetime.
  struct Env {
    sim::SimWorld* world = nullptr;
    const std::vector<std::unique_ptr<gmp::GmpNode>>* nodes = nullptr;  ///< dense by id
    const std::vector<ProcessId>* ids = nullptr;  ///< deterministic order
    /// The node registered under `id`; nullptr when unknown.
    gmp::GmpNode* node(ProcessId id) const {
      return id < nodes->size() ? (*nodes)[id].get() : nullptr;
    }
  };

  virtual ~FailureDetector() = default;

  /// Called by the cluster before any wrap()/on_crash() — once at
  /// construction, and again after every reset().
  virtual void bind(Env env) { env_ = std::move(env); }

  /// Rewind per-run state for a pooled cluster reuse (wrapper actors are
  /// recycled, scratch tables cleared with capacity kept).  bind() follows.
  virtual void reset() {}

  /// Decorate (or pass through) the actor registered with the runtime for
  /// `inner`.  The returned actor must stay valid for the cluster lifetime;
  /// the detector owns any wrapper it creates.
  virtual Actor* wrap(gmp::GmpNode& inner) { return &inner; }

  /// Observation hook: a real crash of `p` happened at tick `t` (fired from
  /// the simulator's crash hook, after the trace recorder).
  virtual void on_crash(ProcessId p, Tick t) {
    (void)p;
    (void)t;
  }

  /// Packet-kind range [lo, hi] of detector-internal wire traffic.  The
  /// cluster hands this to the simulator, which meters those kinds under a
  /// separate counter (protocol message totals stay clean) and classifies
  /// them as background events for protocol-quiescence detection.  The
  /// default empty range [1, 0] declares "no detector traffic".
  virtual std::pair<uint32_t, uint32_t> background_kinds() const { return {1, 0}; }

  /// Settle window for protocol-quiescence detection: how long the runtime
  /// must keep advancing through background events before concluding that
  /// no detection this implementation would still fire is pending.
  /// `worst_delay` is the largest per-message channel delay the run can be
  /// under (a packet that late in flight can still refresh a peer's proof
  /// of life).  Detectors without background machinery only need the
  /// generic slack.
  virtual Tick settle_window(Tick worst_delay) const { return worst_delay + 400; }

  /// Sentinel horizon: no detection this detector owns can ever fire.
  static constexpr Tick kNoDetection = kNeverTick;

  /// Earliest-effect horizon for the simulator's virtual-time fast-forward
  /// (sim::SimWorld::set_horizon_provider): a *lower bound* on the first
  /// tick at which this detector could still deliver a suspicion, given
  /// current monitor state.  kNoDetection certifies "never" — the runtime
  /// then concludes protocol quiescence without grinding a settle window.
  /// The default returns `now` ("unknown; a detection could fire at any
  /// moment"), which disables fast-forwarding entirely and keeps the
  /// legacy settle-window behaviour — correct for custom detectors that do
  /// not implement the contract.  Implementations that report real
  /// horizons must also implement on_fast_forward().
  virtual Tick next_possible_detection(Tick now) const { return now; }

  /// Fast-forward reconciliation: the runtime jumped the clock from `from`
  /// to `to`, eliding every background event in between (ping waves, ack
  /// frames, the detector's own wave timer).  Restore the detector's
  /// invariants as if the elided upkeep had run: re-arm the wave cadence
  /// (phase-preserved) and refresh the proof-of-life entries the elided
  /// traffic would have refreshed.  Must not produce foreground work.
  virtual void on_fast_forward(Tick from, Tick to) {
    (void)from;
    (void)to;
  }

  /// A skip elided a background frame that was already *in flight* — sent
  /// before the span, so it still lands in a skip-free run even across a
  /// partition cut or after its sender's death.  Replay its state effect
  /// (proof-of-life refresh at the true arrival tick) without sending
  /// anything; called once per elided arrival, in (tick, seq) order — the
  /// order a skip-free run delivers them in — before on_fast_forward.
  virtual void on_elided_background(ProcessId from, ProcessId to, uint32_t kind, Tick when) {
    (void)from;
    (void)to;
    (void)kind;
    (void)when;
  }

 protected:
  Env env_;
};

/// Factory hook: ClusterOptions carries one of these so experiments can
/// plug in custom detector implementations without touching the harness.
using DetectorFactory = std::function<std::unique_ptr<FailureDetector>()>;

/// The scripted oracle (formerly hard-wired into harness::Cluster): every
/// survivor learns of a real crash within [min_delay, max_delay] ticks.
class OracleFd final : public FailureDetector {
 public:
  explicit OracleFd(OracleOptions opts) : opts_(opts) {}

  void on_crash(ProcessId p, Tick t) override;

  /// The oracle owns no background machinery: every suspicion it injects
  /// rides a foreground script event, which pins the skip frontier by
  /// itself.  Nothing background can ever fire.
  Tick next_possible_detection(Tick now) const override {
    (void)now;
    return kNoDetection;
  }

 private:
  OracleOptions opts_;
};

/// The realistic detector: one fd::HeartbeatFd monitor per node.  See
/// fd/heartbeat.hpp for tuning guidance (interval/timeout vs storm
/// intensity).
///
/// Under the simulator the detector batches and short-circuits its own
/// upkeep (the heartbeat fast path):
///   * one environment-owned *wave* timer per interval ticks every live
///     monitor in registration order, replacing n per-node re-arming
///     timers;
///   * ping/ack frames ride SimWorld's slab-free background path — the
///     event record carries (from, to, kind) inline and delivery dispatches
///     straight to the destination monitor, never building a Packet;
///   * monitors are recycled across reset()s (pooled cluster reuse);
///   * whole ping/settle spans collapse under the virtual-time
///     fast-forward: next_possible_detection() walks every (monitor, peer)
///     pair and reports the first wave tick at which a silence could cross
///     the timeout, so the runtime can certify "no detection can fire
///     before tick T" and elide every wave in between (on_fast_forward
///     then re-arms the cadence and refreshes the pairs the elided pings
///     would have refreshed).  The reasoning is per pair: a delay span
///     whose every watched pair still has a provable refresh in flight
///     keeps skipping; only pairs whose refresh chain the current delay
///     model can no longer outpace pin the horizon, and never past the
///     next wave (whose pings decide their fate).  See tests/README.md
///     "virtual time & skip horizons" for the exact divergence this is
///     allowed to introduce.
class HeartbeatDetector final : public FailureDetector {
 public:
  explicit HeartbeatDetector(HeartbeatOptions opts) : opts_(opts) {}

  void bind(Env env) override;
  void reset() override;
  Actor* wrap(gmp::GmpNode& inner) override;

  std::pair<uint32_t, uint32_t> background_kinds() const override {
    return {gmp::kind::kHeartbeat, gmp::kind::kHeartbeatAck};
  }

  Tick next_possible_detection(Tick now) const override;
  void on_fast_forward(Tick from, Tick to) override;
  void on_elided_background(ProcessId from, ProcessId to, uint32_t kind, Tick when) override;

  /// A silence that began just before the window opened — possibly
  /// refreshed by a packet delayed by `worst_delay` — must still cross the
  /// timeout inside it, plus two ping periods and slack for the suspicion
  /// traffic itself.
  Tick settle_window(Tick worst_delay) const override {
    return opts_.timeout + 2 * opts_.interval + worst_delay + 400;
  }

  const HeartbeatOptions& options() const { return opts_; }

 private:
  /// One batched monitor period: tick every live monitor, then re-arm while
  /// anyone is still alive (a fully dead deployment lets the queue drain).
  void wave();
  /// Fast-path delivery of a ping/ack to the destination's monitor.
  void on_background_packet(ProcessId from, ProcessId to, uint32_t kind);

  HeartbeatOptions opts_;
  std::vector<std::unique_ptr<HeartbeatFd>> monitors_;
  std::vector<std::unique_ptr<HeartbeatFd>> monitor_pool_;  ///< recycled across runs
  std::vector<HeartbeatFd*> monitor_by_id_;  ///< dense id -> monitor (borrowed)
  std::vector<ProcessId> targets_;           ///< wave scratch: one sender's ping fan
  /// Tick of the next pending wave (kNeverTick once the deployment died
  /// and the cadence self-cancelled).  Horizon arithmetic aligns candidate
  /// detections to this cadence; on_fast_forward re-arms it phase-preserved
  /// when the pending wave event was elided.
  Tick next_wave_ = kNeverTick;
};

/// The adaptive detector: one fd::PhiFd monitor per node (see fd/phi.hpp
/// for the φ model and tuning guidance).  Same simulator integration as
/// HeartbeatDetector — batched wave, background fast path, pooled monitors
/// — but the skip-horizon arithmetic must respect a per-pair *moving*
/// threshold: new samples can shrink a pair's fitted silence threshold
/// mid-span, so steadiness is certified against a conservative lower bound
/// (z·min_stddev above the smallest gap the fit could converge to) rather
/// than the current threshold, and any live loss/dup/reorder fault axis
/// suspends certification outright (perturbed inter-arrival samples make
/// the fit's future trajectory unprovable).
class PhiAccrualDetector final : public FailureDetector {
 public:
  explicit PhiAccrualDetector(PhiOptions opts);

  void bind(Env env) override;
  void reset() override;
  Actor* wrap(gmp::GmpNode& inner) override;

  std::pair<uint32_t, uint32_t> background_kinds() const override {
    return {gmp::kind::kHeartbeat, gmp::kind::kHeartbeatAck};
  }

  Tick next_possible_detection(Tick now) const override;
  void on_fast_forward(Tick from, Tick to) override;
  void on_elided_background(ProcessId from, ProcessId to, uint32_t kind, Tick when) override;

  /// Like HeartbeatDetector's window but sized by the adaptive cap: a
  /// pending suspicion can hide behind a threshold as large as max_timeout.
  Tick settle_window(Tick worst_delay) const override {
    return opts_.max_timeout + 2 * opts_.interval + worst_delay + 400;
  }

  const PhiOptions& options() const { return opts_; }

 private:
  void wave();
  void on_background_packet(ProcessId from, ProcessId to, uint32_t kind);
  /// Conservative per-pair silence bound for horizon/steadiness reasoning:
  /// a lower bound on every value the pair's fitted threshold can take
  /// while benign cadence samples keep arriving.  min(current fit floor,
  /// next benign gap) + z·min_stddev — monotone under future samples, so a
  /// span certified against it stays certified as elided arrivals are
  /// replayed into the ring.
  Tick pair_bound(const PhiFd& m, ProcessId q) const;

  PhiOptions opts_;
  Tick zmargin_ = 0;  ///< ceil(z(threshold) · min_stddev), fixed at construction
  std::vector<std::unique_ptr<PhiFd>> monitors_;
  std::vector<std::unique_ptr<PhiFd>> monitor_pool_;  ///< recycled across runs
  std::vector<PhiFd*> monitor_by_id_;                 ///< dense id -> monitor (borrowed)
  std::vector<ProcessId> targets_;                    ///< wave scratch
  Tick next_wave_ = kNeverTick;                       ///< as in HeartbeatDetector
};

/// Build the standard detector for `kind` from the matching options.
std::unique_ptr<FailureDetector> make_detector(DetectorKind kind, const OracleOptions& oracle,
                                               const HeartbeatOptions& heartbeat,
                                               const PhiOptions& phi);

}  // namespace gmpx::fd
