// Adaptive φ-accrual failure detection (Hayashibara et al., "The φ accrual
// failure detector" — the mechanism behind Cassandra/Akka-style membership
// services descended from ISIS-era deployments).
//
// Where fd::HeartbeatFd suspects after a *fixed* silence threshold, PhiFd
// learns each peer's inter-arrival distribution (a fixed-size ring of the
// last `window` gaps, summarized by a normal approximation) and suspects
// when the *suspicion level*
//
//     φ(elapsed) = -log10( P[gap > elapsed] ),   gap ~ N(mean, stddev²)
//
// crosses a configurable threshold.  φ = 8 means "if this peer were alive,
// a silence this long would occur with probability 10⁻⁸ given its recent
// behaviour".  Because the distribution is learned per pair, the detector
// adapts: under a delay storm the observed gaps widen, the fitted normal
// widens with them, and the implied silence threshold grows — false
// suspicions stay rare where a fixed timeout would fire on every peer.
// Conversely on a quiet channel the threshold tightens toward
// `mean + z(φ)·min_stddev`, detecting real crashes faster than a
// conservative fixed timeout.
//
// Integer-time formulation: a φ threshold maps monotonically to a z-score
// z(φ) with Q(z) = 10^(-φ) (Q = standard normal upper tail), so "φ(elapsed)
// > threshold" is exactly "elapsed > mean + z(φ)·stddev".  PhiFd therefore
// caches one integer `suspect_after` tick count per peer, recomputed only
// when a sample arrives — scans, horizons and benches never touch libm.
//
// Tuning PhiOptions against storm and loss profiles
// -------------------------------------------------
// The effective per-peer silence threshold is
//
//     suspect_after ≈ mean(gaps) + z(threshold) · max(stddev(gaps), min_stddev)
//
// with z(8) ≈ 5.6, z(12) ≈ 7.0, z(5) ≈ 4.4.  Three regimes matter:
//
//   * benign channels — gaps sit at `interval ± channel jitter`, stddev
//     collapses to the `min_stddev` floor, and the threshold settles near
//     `interval + z·min_stddev` (≈ 340 ticks at the defaults): real
//     crashes are detected roughly twice as fast as the heartbeat
//     detector's fixed 800-tick timeout.
//   * delay storms — a storm of intensity D (per-message delays up to D)
//     spreads gaps to `interval ± D`; after ~`window/4` storm samples the
//     fitted threshold grows past `interval + z·0.4·D`, so storms that
//     make the fixed-timeout detector melt down (D ≳ timeout - interval,
//     i.e. ≥ 512 at the heartbeat defaults) leave φ-accrual mostly quiet.
//     bench_viewchange_latency (seeds 1..4000 per cell) is the headline:
//     φ drops 14 runs at D = 1024 and 1395 at D = 2048 where heartbeat's
//     false-suspicion churn drops 37 and 2290 (at D = 512: 3 vs 0), at
//     the cost of a higher exclusion latency (p50 4062 vs 3477 ticks at
//     D = 1024) — it waits out delays heartbeat dies on.  Raise
//     `threshold` if the first few storm scans (before the ring adapts)
//     still fire; lower it to favour detection latency on channels you
//     trust.
//   * message loss — a loss rate p thins the arrival stream: gaps of
//     k·interval appear with probability p^(k-1), inflating both mean and
//     stddev.  The threshold self-calibrates to ≈ `interval/(1-p) +
//     z·stddev`, keeping the per-scan false-suspicion probability near
//     10^(-threshold) instead of the `p^(timeout/interval)` a fixed
//     timeout gives (≈ 5·10⁻⁴ per pair per scan at p = 0.15 and the
//     heartbeat defaults).  Under sustained loss keep `threshold` ≥ 8, or
//     accept meaningful false-suspicion rates — which is precisely what
//     the lossy fuzz profile exercises.
//
// `bootstrap_timeout` governs a pair until `min_samples` gaps arrive (a
// fresh pair has no distribution — treat it like a fixed-timeout monitor);
// `max_timeout` caps the adaptive threshold so a pathological sample set
// can never postpone real-crash detection unboundedly.
//
// PhiFd is the fd::TimeoutMonitor (fd/monitor.hpp) over this model, so it
// is runtime-neutral like HeartbeatFd: stand-alone it arms its own
// per-node ping timer; under fd::PhiAccrualDetector the pacing is the
// batched environment wave and ping/ack frames ride the simulator's
// background fast path.
#pragma once

#include <cmath>
#include <vector>

#include "fd/monitor.hpp"

namespace gmpx::fd {

/// φ-accrual tuning.  Thresholds drive suspicion only — never correctness
/// (the paper's "time as an approximate tool" caveat).
struct PhiOptions {
  Tick interval = 200;      ///< ping period (shared wave cadence)
  double threshold = 8.0;   ///< suspect when φ(elapsed) exceeds this
  uint32_t window = 32;     ///< inter-arrival samples kept per pair
  uint32_t min_samples = 4; ///< ring size before the fit is trusted
  Tick min_stddev = 25;     ///< σ floor: keeps quiet channels from hair-triggering
  Tick bootstrap_timeout = 800;  ///< fixed threshold until the fit is trusted
  Tick max_timeout = 4000;       ///< adaptive-threshold cap (bounds detection latency)
  friend bool operator==(const PhiOptions&, const PhiOptions&) = default;
};

/// z-score equivalent of a φ threshold: the z with Q(z) = 10^(-phi), where
/// Q is the standard normal upper tail.  Monotone bisection on erfc — runs
/// once per detector construction, never on a hot path.
inline double phi_threshold_z(double phi) {
  double lo = 0.0, hi = 64.0;
  const double p = std::pow(10.0, -phi);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(mid / std::sqrt(2.0)) > p) lo = mid;
    else hi = mid;
  }
  return 0.5 * (lo + hi);
}

/// The suspicion level itself, for tests and telemetry (the monitor's hot
/// path uses the precomputed z form instead).
inline double phi_value(double elapsed, double mean, double stddev) {
  const double q = 0.5 * std::erfc((elapsed - mean) / (stddev * std::sqrt(2.0)));
  if (q <= 1e-300) return 300.0;  // erfc underflow: effectively certain
  return -std::log10(q);
}

/// The adaptive model: per-pair proof of life plus an inter-arrival ring
/// summarized by running sum / sum-of-squares (O(1) refit per sample).
class PhiModel {
 public:
  using Options = PhiOptions;

  explicit PhiModel(const Options& opts) : opts_(opts) { set_z(); }

  const Options& options() const { return opts_; }

  /// Last proof of life from `q` (0 = never heard).
  Tick last(ProcessId q) const { return q < pairs_.size() ? pairs_[q].last : 0; }

  /// Synthetic proof-of-life refresh (first sighting, fast-forward
  /// reconciliation): updates `last` WITHOUT recording an inter-arrival
  /// sample — elided upkeep must not fabricate distribution data (real
  /// elided arrivals are replayed through on_arrival and DO sample).
  void mark_heard(ProcessId q, Tick t) { pair(q).last = t; }

  /// mark_heard, but never moves `last` backwards.
  void mark_heard_fresh(ProcessId q, Tick t) {
    Pair& p = pair(q);
    if (t > p.last) p.last = t;
  }

  /// Real (possibly replayed) detector-frame arrival: refresh proof of
  /// life and feed the inter-arrival ring.
  void on_arrival(ProcessId q, Tick t) {
    Pair& p = pair(q);
    if (p.last != 0 && t > p.last) add_sample(p, t - p.last);
    if (t > p.last) p.last = t;
  }

  /// Current per-pair silence threshold: bootstrap until the fit is
  /// trusted, then mean + z·max(σ, min_stddev) clamped to max_timeout.
  Tick suspect_after(ProcessId q) const {
    if (q >= pairs_.size() || pairs_[q].count < opts_.min_samples)
      return opts_.bootstrap_timeout;
    return pairs_[q].threshold;
  }

  /// Clear per-run state, keeping ring capacity.
  void reset(const Options& opts) {
    const bool retune = !(opts == opts_);
    opts_ = opts;
    if (retune) set_z();
    for (Pair& p : pairs_) {
      p.last = 0;
      p.count = 0;
      p.idx = 0;
      p.sum = 0;
      p.sumsq = 0;
      p.min_gap = 0;
      p.threshold = 0;
    }
  }

  // Simulator-driver hooks (fd::TimeoutDetector), defined in
  // fd/detector.cpp.  The silence bound is a monotone lower bound on the
  // moving threshold; the settle window hides behind the adaptive cap.
  Tick pair_bound(ProcessId q, const sim::SimWorld& w) const;
  static SteadyGate gate(const sim::SimWorld& w, const Options& o, Tick wave0);
  static Tick settle_base(const Options& o) { return o.max_timeout; }

 private:
  /// Smallest inter-arrival gap currently in `q`'s ring (0 = no samples).
  Tick min_gap(ProcessId q) const { return q < pairs_.size() ? pairs_[q].min_gap : 0; }

  /// Sample count in `q`'s ring.
  uint32_t samples(ProcessId q) const { return q < pairs_.size() ? pairs_[q].count : 0; }

  struct Pair {
    Tick last = 0;
    uint32_t count = 0;
    uint32_t idx = 0;
    uint64_t sum = 0;
    uint64_t sumsq = 0;
    Tick min_gap = 0;
    Tick threshold = 0;  ///< cached suspect_after once count >= min_samples
    std::vector<Tick> ring;
  };

  /// z(threshold), and the smallest margin the adaptive threshold can ever
  /// put above a pair's mean gap (σ is floored at min_stddev).
  void set_z() {
    z_ = phi_threshold_z(opts_.threshold);
    zmargin_ = static_cast<Tick>(std::ceil(z_ * static_cast<double>(opts_.min_stddev)));
  }

  Pair& pair(ProcessId q) {
    if (q >= pairs_.size()) pairs_.resize(q + 1);
    Pair& p = pairs_[q];
    if (p.ring.size() != opts_.window) p.ring.assign(opts_.window, 0);
    return p;
  }

  void add_sample(Pair& p, Tick gap) {
    bool rescan_min = false;
    if (p.count == opts_.window) {
      const Tick old = p.ring[p.idx];
      p.sum -= old;
      p.sumsq -= static_cast<uint64_t>(old) * old;
      rescan_min = old == p.min_gap;
    } else {
      ++p.count;
    }
    p.ring[p.idx] = gap;
    if (++p.idx == opts_.window) p.idx = 0;
    p.sum += gap;
    p.sumsq += static_cast<uint64_t>(gap) * gap;
    if (rescan_min) {
      // The ring is full here, so every slot is a live sample and the
      // minimum needs no walk in arrival order.
      Tick mn = kNeverTick;
      for (uint32_t i = 0; i < p.count; ++i) {
        if (p.ring[i] < mn) mn = p.ring[i];
      }
      p.min_gap = mn;
    } else if (p.min_gap == 0 || gap < p.min_gap) {
      p.min_gap = gap;
    }
    if (p.count >= opts_.min_samples) {
      const double mean = static_cast<double>(p.sum) / p.count;
      double var = static_cast<double>(p.sumsq) / p.count - mean * mean;
      if (var < 0) var = 0;
      double sd = std::sqrt(var);
      const double floor_sd = static_cast<double>(opts_.min_stddev);
      if (sd < floor_sd) sd = floor_sd;
      const double t = std::ceil(mean + z_ * sd);
      p.threshold = t >= static_cast<double>(opts_.max_timeout)
                        ? opts_.max_timeout
                        : static_cast<Tick>(t);
    }
  }

  Options opts_;
  double z_ = 0.0;    ///< z-score form of opts_.threshold
  Tick zmargin_ = 0;  ///< ceil(z_ · min_stddev)
  std::vector<Pair> pairs_;  ///< dense id -> adaptive monitor state
};

/// Decorating actor: one adaptive monitor per process.
using PhiFd = TimeoutMonitor<PhiModel>;

}  // namespace gmpx::fd
