// F1 "observation" failure detection (paper S2.1): the realistic
// ping/timeout monitor.
//
// HeartbeatFd is the fd::TimeoutMonitor (fd/monitor.hpp) over a fixed
// silence threshold: it wraps a GmpNode as a decorating Actor, intercepts
// heartbeat traffic, forwards everything else to the wrapped node, and
// feeds timeout-driven suspicions into GmpNode::suspect().  It may produce
// *false* suspicions under delay, which is exactly the phenomenon the
// protocol must (and does) tolerate.  The scripted alternative is
// fd::OracleFd (fd/detector.hpp), which only ever reports real crashes;
// the adaptive one is fd::PhiFd (fd/phi.hpp).
//
// The worst benign silence is one ping interval plus one channel delay:
// admitted peers' own pings answer for them, and unadmitted joiners ack.
// Runtime-neutral (see examples/tcp_group and tests/net_test): constructed
// stand-alone it arms its own per-node ping timer; under fd::HeartbeatDetector
// the simulator paces every monitor with one batched wave.
//
// Tuning HeartbeatOptions against adversary storm profiles
// --------------------------------------------------------
// A peer is suspected after `timeout` ticks of silence; between pings the
// longest benign silence is roughly `interval + max channel delay` (the
// peer's previous ping plus one full ping period).  So:
//
//   * no false suspicions  — keep `timeout` comfortably above
//     `interval + max_delay` of the worst storm you consider benign.  The
//     defaults (interval 200, timeout 800) never fire under the baseline
//     DelayModel (max 16) or the generator's default storms (max ~260).
//   * provoke false suspicions — storms must hold per-message delays above
//     `timeout - interval` for longer than `timeout` ticks.  The scenario
//     generator's heartbeat calibration (scenario::tuned_for_heartbeat)
//     raises its storm ceiling to ~2x the timeout for exactly this reason:
//     with the stock 250-tick ceiling a heartbeat run would never exercise
//     the false-suspicion machinery the detector axis exists to fuzz.
//   * detection latency — a real crash is noticed `timeout` to
//     `timeout + interval` ticks after the last proof of life, plus one
//     channel delay for the SuspectReport.  bench_viewchange_latency
//     measures the end-to-end effect per storm intensity: over seeds
//     1..4000 at the defaults, storms up to D = 512 drop no run, while
//     D = 1024 and 2048 (past `timeout - interval`) drop 37 and 2290
//     groups to false suspicions.
#pragma once

#include <vector>

#include "fd/monitor.hpp"

namespace gmpx::fd {

/// Heartbeat/timeout options.  Timeouts drive suspicion only — never
/// correctness (the paper's "time as an approximate tool" caveat).
struct HeartbeatOptions {
  Tick interval = 200;  ///< ping period
  Tick timeout = 800;   ///< silence threshold before faulty_p(q)
  friend bool operator==(const HeartbeatOptions&, const HeartbeatOptions&) = default;
};

/// The fixed-timeout model: a flat proof-of-life table keyed by dense
/// process id, and one silence threshold for every pair.
class HeartbeatModel {
 public:
  using Options = HeartbeatOptions;

  explicit HeartbeatModel(const Options& opts) : opts_(opts) {}

  const Options& options() const { return opts_; }

  /// Last proof of life from `q` (0 = never heard).  Tick 0 doubles as
  /// "never heard": a packet genuinely arriving at tick 0 merely restarts
  /// that peer's grace period on the first ping tick, which is harmless.
  Tick last(ProcessId q) const { return q < last_heard_.size() ? last_heard_[q] : 0; }

  void mark_heard(ProcessId q, Tick t) { slot(q) = t; }

  void mark_heard_fresh(ProcessId q, Tick t) {
    Tick& last = slot(q);
    if (t > last) last = t;
  }

  /// A ping or ack is proof of life and nothing more.
  void on_arrival(ProcessId q, Tick t) { mark_heard_fresh(q, t); }

  Tick suspect_after(ProcessId) const { return opts_.timeout; }

  void reset(const Options& opts) {
    opts_ = opts;
    last_heard_.clear();
  }

  // Simulator-driver hooks (fd::TimeoutDetector).  The silence bound is
  // the fixed timeout; the gate is defined in fd/detector.cpp.
  Tick pair_bound(ProcessId, const sim::SimWorld&) const { return opts_.timeout; }
  static SteadyGate gate(const sim::SimWorld& w, const Options& o, Tick wave0);
  static Tick settle_base(const Options& o) { return o.timeout; }

 private:
  Tick& slot(ProcessId q) {
    if (q >= last_heard_.size()) last_heard_.resize(q + 1, 0);
    return last_heard_[q];
  }

  Options opts_;
  std::vector<Tick> last_heard_;  ///< dense id -> last proof of life
};

/// Decorating actor: one fixed-timeout monitor per process.
using HeartbeatFd = TimeoutMonitor<HeartbeatModel>;

}  // namespace gmpx::fd
