#include "fd/detector.hpp"

namespace gmpx::fd {

namespace {

/// How `q`'s upkeep keeps refreshing monitor `mid`'s proof of life across
/// an event-free span, if at all: admitted peers ping the members of
/// *their* view; unadmitted joiners are audible only as acks to `mid`'s
/// pings.  A severed channel, a quit peer, or S1 isolation in either
/// direction breaks the stream.  Purely structural — whether the stream
/// outpaces the timeout under the current delay model is SteadyGate's
/// chain condition.  Both timeout detectors' horizons and fast-forward
/// refreshes reason from this one rule, computed once per pair per walk.
enum Refresh : uint8_t { kNoRefresh, kPing, kAck };

Refresh refresh_stream(const FailureDetector::Env& env, ProcessId q, ProcessId mid) {
  const sim::SimWorld& w = *env.world;
  if (w.crashed(q)) return kNoRefresh;
  const gmp::GmpNode* qn = env.node(q);
  if (!qn || qn->has_quit() || w.channel_blocked(q, mid)) return kNoRefresh;
  if (qn->admitted()) {
    // q's own ping stream answers for it — towards the members of q's
    // view, and only while q has not isolated mid (S1: no pings to an
    // accused peer).
    return qn->view().contains(mid) && !qn->isolated().count(mid) ? kPing : kNoRefresh;
  }
  // A committed-but-unbootstrapped joiner cannot ping; it is audible only
  // as acks to mid's pings — which need mid to be an admitted pinger with
  // q in its view, the mid -> q channel open, and q not to have isolated
  // mid (its monitor drops isolated senders).
  const gmp::GmpNode* mn = env.node(mid);
  if (!mn || !mn->admitted() || !mn->view().contains(q)) return kNoRefresh;
  return !w.channel_blocked(mid, q) && !qn->isolated().count(mid) ? kAck : kNoRefresh;
}

/// A refreshable pair is *steady* when neither its current staleness nor
/// any future scan can cross its silence bound before a guaranteed refresh
/// lands: one channel delay (`per_frame`) after a wave for a pinger, a
/// full round trip for an acker.  Two conditions: the refresh *chain* must
/// outpace the bound under the current delay model — successive guaranteed
/// arrivals, one per wave, make that exactly ceil(lag / interval) *
/// interval <= bound, independent of phase, so a delay span hot enough to
/// break it demotes pairs individually instead of blinding the horizon —
/// and the *initial* window until the first guaranteed refresh (its last
/// scan is `last_risky`) must stay under it.  Steady pairs are exempt from
/// the horizon and refreshed by on_fast_forward; everything else stays a
/// candidate so the wave that would judge it in a skip-free run really
/// executes.  A closed gate (`open` false: a fault axis that breaks the
/// refresh guarantee is live) certifies nothing.  Everything but the pair's
/// stream, staleness and bound is constant per walk, so it is computed once.
struct SteadyGate {
  bool open;
  Tick chain[3] = {};
  Tick last_risky[3] = {};

  SteadyGate(bool open_, Tick per_frame, Tick interval, Tick wave0) : open(open_) {
    for (Refresh r : {kPing, kAck}) {
      const Tick lag = r == kPing ? per_frame : 2 * per_frame;
      chain[r] = ((lag + interval - 1) / interval) * interval;
      last_risky[r] = wave0 + (lag / interval) * interval;
    }
  }
  /// `seen` is the effective last-heard tick (grace substituted).
  bool steady(Refresh r, Tick seen, Tick bound) const {
    return open && r != kNoRefresh && chain[r] <= bound && last_risky[r] <= seen + bound;
  }
};

/// Heartbeat steadiness: any nonzero loss probability closes the gate (a
/// refresh that may be dropped is not a guarantee; fault spans are bounded
/// and script-delimited, so certification resumes the moment one heals),
/// and reordered frames dodge the FIFO clamp, landing up to the reordering
/// slack later still.
SteadyGate heartbeat_gate(const sim::SimWorld& w, const HeartbeatOptions& o, Tick wave0) {
  const sim::ChannelFaults& f = w.channel_faults();
  const Tick slack = f.reorder_permille > 0 ? f.reorder_slack : 0;
  return SteadyGate(f.loss_permille == 0, w.delays().max_delay + slack, o.interval, wave0);
}

/// φ steadiness is stricter: ANY live fault axis closes the gate.  Loss
/// breaks the refresh guarantee, and duplication / reordering perturb the
/// inter-arrival samples themselves — the fit's future trajectory (and
/// with it any silence bound) becomes unprovable.
SteadyGate phi_gate(const sim::SimWorld& w, const PhiOptions& o, Tick wave0) {
  return SteadyGate(!w.channel_faults().any(), w.delays().max_delay, o.interval, wave0);
}

}  // namespace

const char* to_string(DetectorKind k) {
  switch (k) {
    case DetectorKind::kOracle: return "oracle";
    case DetectorKind::kHeartbeat: return "heartbeat";
    case DetectorKind::kPhi: return "phi";
  }
  return "?";
}

bool parse_detector(const std::string& name, DetectorKind& out) {
  if (name == "oracle") out = DetectorKind::kOracle;
  else if (name == "heartbeat") out = DetectorKind::kHeartbeat;
  else if (name == "phi") out = DetectorKind::kPhi;
  else return false;
  return true;
}

void OracleFd::on_crash(ProcessId p, Tick t) {
  if (!opts_.enabled) return;
  // F1: every surviving process detects the crash within a bounded delay.
  // RNG draws happen in deterministic id order, so a seed names the run.
  sim::SimWorld& world = *env_.world;
  for (ProcessId q : *env_.ids) {
    if (q == p || world.crashed(q)) continue;
    Tick d = opts_.min_delay + world.rng().below(opts_.max_delay - opts_.min_delay + 1);
    world.at(t + d, [this, q, p] {
      if (Context* ctx = env_.world->context_of(q)) {
        if (gmp::GmpNode* n = env_.node(q)) n->suspect(*ctx, p);
      }
    });
  }
}

void HeartbeatDetector::bind(Env env) {
  FailureDetector::bind(std::move(env));
  // Route fast-path ping/ack frames straight to the destination's monitor.
  env_.world->set_background_sink(
      [this](ProcessId from, ProcessId to, uint32_t kind) {
        on_background_packet(from, to, kind);
      });
  // The batched ping wave: one environment-owned background timer per
  // interval replaces n per-node re-arming timers.  Environment ownership
  // matters — a process-owned timer would die with its owner's crash and
  // silence every other monitor.
  next_wave_ = env_.world->now() + opts_.interval;
  env_.world->set_environment_timer(opts_.interval, [this] { wave(); });
}

void HeartbeatDetector::reset() {
  for (auto& m : monitors_) monitor_pool_.push_back(std::move(m));
  monitors_.clear();
  monitor_by_id_.clear();
  next_wave_ = kNeverTick;  // bind() re-establishes the cadence
}

void HeartbeatDetector::wave() {
  sim::SimWorld& world = *env_.world;
  bool any_alive = false;
  // Registration order (= deterministic cluster id order).  Each monitor's
  // ping fan ships as one batched frame: one heap event and one delay draw
  // per sender per interval instead of one per ping.
  for (auto& m : monitors_) {
    const ProcessId id = m->node().id();
    if (Context* ctx = world.context_of(id)) {
      targets_.clear();
      m->tick_collect(*ctx, targets_);
      if (!targets_.empty()) world.send_background_wave(id, targets_, gmp::kind::kHeartbeat);
    }
    if (!world.crashed(id)) any_alive = true;
  }
  // Re-arm while anyone is left; once the whole deployment is dead the
  // queue must drain completely (pinned by the dead-group heartbeat test).
  if (any_alive) {
    next_wave_ = world.now() + opts_.interval;
    env_.world->set_environment_timer(opts_.interval, [this] { wave(); });
  } else {
    next_wave_ = kNeverTick;  // no cadence, no scans, no detections
  }
}

Tick HeartbeatDetector::next_possible_detection(Tick now) const {
  if (next_wave_ == kNeverTick) return kNoDetection;  // deployment dead
  // Per-pair reasoning, valid under any delay model: a pair whose refresh
  // chain provably outpaces the timeout (steady) is exempt; every other
  // pair pins the horizon — a structurally-severed one at the first scan
  // that could see its silence past the timeout, a merely-unprovable one
  // (storm-hot chain, residual staleness, live fault axes) at the very
  // next wave, whose pings decide its fate and so must execute for real.
  // A delay span is never collapsed to "unknown" wholesale: while every
  // watched pair still has a provable refresh in flight the span keeps
  // skipping.  (Elided waves do skip their delay draws, so the RNG stream
  // — and with it post-skip interleavings — shifts against a skip-free
  // execution: traces diverge in timing while staying per-seed
  // deterministic, the heartbeat axis's documented wave-elision
  // divergence.)
  const Tick wave0 = next_wave_ > now ? next_wave_ : now;
  const SteadyGate gate = heartbeat_gate(*env_.world, opts_, wave0);
  Tick best = kNoDetection;
  for (const auto& m : monitors_) {
    const gmp::GmpNode& node = m->node();
    const ProcessId mid = node.id();
    if (env_.world->crashed(mid) || node.has_quit() || !node.admitted()) continue;
    for (ProcessId q : node.view().members()) {
      if (q == mid || node.isolated().count(q)) continue;  // scan never suspects these
      Tick seen = m->last_heard(q);
      if (seen == 0) seen = wave0;  // first sighting: grace starts at the next scan
      const Refresh r = refresh_stream(env_, q, mid);
      // A pair whose upkeep keeps flowing cannot cross the timeout — but
      // only once it is *steady*: its refresh chain outpaces the timeout
      // and no scan before the next guaranteed arrival may find the
      // current staleness past it.  A pair left residually stale by a
      // just-ended storm fails this and stays a candidate, so the wave
      // that would suspect it in a skip-free run really executes (an
      // elided in-flight arrival replay can still clear it first).
      if (gate.steady(r, seen, opts_.timeout)) continue;
      // The scan suspects at the first wave tick W with W - seen > timeout.
      Tick fire = wave0;
      if (fire <= seen + opts_.timeout) {
        if (r != kNoRefresh) {
          // Not provably steady, but still fed by upkeep: whether the next
          // wave's in-flight pings refresh it before its silence crosses
          // the timeout is a question of random frame timing the horizon
          // must not second-guess.  Never skip past that wave.
          if (wave0 < best) best = wave0;
          continue;
        }
        const Tick k = (seen + opts_.timeout - fire) / opts_.interval + 1;
        fire += k * opts_.interval;
      }
      if (fire < best) best = fire;
    }
  }
  return best;
}

void HeartbeatDetector::on_fast_forward(Tick from, Tick to) {
  (void)from;
  sim::SimWorld& w = *env_.world;
  // Re-establish the wave cadence if the pending wave event was elided,
  // preserving phase so candidate detections stay aligned with the ticks
  // the horizon promised.  w0 remembers the first elided wave tick: the
  // scans that would have run there have effects the hook must replay.
  const Tick w0 = next_wave_;
  const bool wave_elided = next_wave_ != kNeverTick && next_wave_ < to;
  if (wave_elided) {
    const Tick missed = (to - next_wave_ + opts_.interval - 1) / opts_.interval;
    next_wave_ += missed * opts_.interval;
    w.set_environment_timer(next_wave_ - to, [this] { wave(); });
  }
  // Replay what the elided traffic would have done to the proof-of-life
  // tables (the horizon only certifies spans whose steady pairs really
  // would have kept exchanging upkeep; everything else pinned the skip at
  // or before the wave that judges it):
  //   * a never-seen pair's grace period starts at the first elided scan
  //     (the real scan calls note_alive on first sighting) — without this
  //     the horizon for a silent never-seen peer recedes forever and the
  //     run can never converge on its detection;
  //   * a refreshable pair is heard as of the skip target.
  // Only *steady* pairs are marked (same predicate as the horizon, against
  // the pre-skip cadence w0): the elided waves really would have kept them
  // refreshed.  A residually-stale pair was a horizon candidate, so the
  // skip stopped at or before its possible suspicion — its staleness must
  // survive the skip for that wave to judge it exactly as a skip-free run
  // would.  Nothing is marked when no wave was elided: in-flight arrivals
  // were already replayed at their true ticks and there was no other
  // traffic to model.
  if (!wave_elided) return;
  const SteadyGate gate = heartbeat_gate(w, opts_, w0);
  for (auto& m : monitors_) {
    const gmp::GmpNode& node = m->node();
    const ProcessId mid = node.id();
    if (w.crashed(mid) || node.has_quit()) continue;
    if (node.admitted()) {
      for (ProcessId q : node.view().members()) {
        if (q == mid || node.isolated().count(q)) continue;
        if (m->last_heard(q) == 0) m->mark_heard(q, w0);
        if (gate.steady(refresh_stream(env_, q, mid), m->last_heard(q), opts_.timeout))
          m->mark_heard(q, to);
      }
    } else {
      // A committed-but-unbootstrapped joiner has no view to walk, but
      // members whose views contain it ping it every wave and its monitor
      // hears them even before admission.  The elided pings must refresh
      // its table too: otherwise the first post-admission scan would see
      // stale silences and suspect healthy members — suspicions a
      // skip-free run never fires.
      for (ProcessId q : *env_.ids) {
        if (q == mid || node.isolated().count(q)) continue;
        const Tick seen = m->last_heard(q) == 0 ? w0 : m->last_heard(q);
        if (gate.steady(refresh_stream(env_, q, mid), seen, opts_.timeout)) m->mark_heard(q, to);
      }
    }
  }
}

void HeartbeatDetector::on_elided_background(ProcessId from, ProcessId to, uint32_t kind,
                                             Tick when) {
  // Mirror on_background_packet's acceptance rules (dead/quit receivers
  // hear nothing, S1 drops isolated senders) but only record the proof of
  // life — nothing is sent during a skip.  Arrivals replay in (tick, seq)
  // order, so the freshest lands last; the guard keeps the table monotone.
  HeartbeatFd* m = to < monitor_by_id_.size() ? monitor_by_id_[to] : nullptr;
  if (!m) return;
  if (env_.world->crashed(to)) return;
  const gmp::GmpNode& node = m->node();
  if (node.has_quit() || node.isolated().count(from)) return;
  if (when > m->last_heard(from)) m->mark_heard(from, when);
  // The ack a live unadmitted receiver sends back (its only way to be
  // audible) must be modeled too, or eliding a ping to a joiner silently
  // deafens the *sender's* monitor — a residually-stale pair could then be
  // suspected at the frontier wave where a skip-free run is cleared by the
  // in-flight ack first.  The ack's own delay draw never happens, so the
  // sender is credited at the ping's arrival tick: at most one ack flight
  // early, within the documented timing quantization.
  if (kind != gmp::kind::kHeartbeat || node.admitted()) return;
  if (env_.world->channel_blocked(to, from)) return;  // the ack would be held
  HeartbeatFd* back = from < monitor_by_id_.size() ? monitor_by_id_[from] : nullptr;
  if (!back) return;
  if (env_.world->crashed(from)) return;
  const gmp::GmpNode& sender = back->node();
  if (sender.has_quit() || sender.isolated().count(to)) return;
  if (when > back->last_heard(to)) back->mark_heard(to, when);
}

void HeartbeatDetector::on_background_packet(ProcessId from, ProcessId to, uint32_t kind) {
  HeartbeatFd* m = to < monitor_by_id_.size() ? monitor_by_id_[to] : nullptr;
  if (!m) return;
  if (Context* ctx = env_.world->context_of(to)) m->on_background(*ctx, from, kind);
}

Actor* HeartbeatDetector::wrap(gmp::GmpNode& inner) {
  std::unique_ptr<HeartbeatFd> m;
  if (!monitor_pool_.empty()) {
    m = std::move(monitor_pool_.back());
    monitor_pool_.pop_back();
    m->reset(&inner, opts_, /*self_arm=*/false);
  } else {
    m = std::make_unique<HeartbeatFd>(&inner, opts_, /*self_arm=*/false);
  }
  monitors_.push_back(std::move(m));
  HeartbeatFd* raw = monitors_.back().get();
  const ProcessId id = inner.id();
  if (id >= monitor_by_id_.size()) monitor_by_id_.resize(id + 1, nullptr);
  monitor_by_id_[id] = raw;
  return raw;
}

PhiAccrualDetector::PhiAccrualDetector(PhiOptions opts) : opts_(opts) {
  // Fixed at construction: the smallest margin the adaptive threshold can
  // ever put above a pair's mean gap (σ is floored at min_stddev).
  zmargin_ = static_cast<Tick>(
      std::ceil(phi_threshold_z(opts_.threshold) * static_cast<double>(opts_.min_stddev)));
}

void PhiAccrualDetector::bind(Env env) {
  FailureDetector::bind(std::move(env));
  env_.world->set_background_sink(
      [this](ProcessId from, ProcessId to, uint32_t kind) {
        on_background_packet(from, to, kind);
      });
  next_wave_ = env_.world->now() + opts_.interval;
  env_.world->set_environment_timer(opts_.interval, [this] { wave(); });
}

void PhiAccrualDetector::reset() {
  for (auto& m : monitors_) monitor_pool_.push_back(std::move(m));
  monitors_.clear();
  monitor_by_id_.clear();
  next_wave_ = kNeverTick;  // bind() re-establishes the cadence
}

void PhiAccrualDetector::wave() {
  sim::SimWorld& world = *env_.world;
  bool any_alive = false;
  for (auto& m : monitors_) {
    const ProcessId id = m->node().id();
    if (Context* ctx = world.context_of(id)) {
      targets_.clear();
      m->tick_collect(*ctx, targets_);
      if (!targets_.empty()) world.send_background_wave(id, targets_, gmp::kind::kHeartbeat);
    }
    if (!world.crashed(id)) any_alive = true;
  }
  if (any_alive) {
    next_wave_ = world.now() + opts_.interval;
    env_.world->set_environment_timer(opts_.interval, [this] { wave(); });
  } else {
    next_wave_ = kNeverTick;
  }
}

Tick PhiAccrualDetector::pair_bound(const PhiFd& m, ProcessId q) const {
  // Lower bound on every value suspect_after(q) can take while benign
  // cadence samples keep arriving.  Future gaps under the current delay
  // model are at least interval - (max - min channel delay); the mean and
  // σ-floored fit can therefore never drop the threshold below
  // min(smallest ring gap, that benign gap) + z·min_stddev.  Monotone
  // under future samples — the property that keeps a certified span
  // certified as elided arrivals are replayed into the ring.
  const sim::DelayModel& d = env_.world->delays();
  const Tick spread = d.max_delay > d.min_delay ? d.max_delay - d.min_delay : 0;
  const Tick benign_gap = opts_.interval > spread ? opts_.interval - spread : 1;
  const Tick mg = m.min_gap(q);
  const Tick floor_gap = (mg != 0 && mg < benign_gap) ? mg : benign_gap;
  Tick b = zmargin_ + floor_gap;
  if (b > opts_.max_timeout) b = opts_.max_timeout;
  // Until the fit is trusted the fixed bootstrap threshold governs; the
  // bound must not promise more than the smaller regime (mid-span samples
  // can flip a bootstrap pair to the adaptive threshold).
  if (m.samples(q) < opts_.min_samples && opts_.bootstrap_timeout < b)
    b = opts_.bootstrap_timeout;
  return b;
}

Tick PhiAccrualDetector::next_possible_detection(Tick now) const {
  if (next_wave_ == kNeverTick) return kNoDetection;  // deployment dead
  // Mirrors HeartbeatDetector::next_possible_detection with two twists:
  // steadiness is certified against pair_bound() (a threshold that moves
  // with the fit needs a monotone lower bound), while a structurally
  // severed pair's fire tick may use the *current* fitted threshold — no
  // future arrival can refresh it, and replayed in-flight samples can only
  // delay the post-skip scan that judges it, never conjure a suspicion a
  // skip-free run could not produce.
  const Tick wave0 = next_wave_ > now ? next_wave_ : now;
  const SteadyGate gate = phi_gate(*env_.world, opts_, wave0);
  Tick best = kNoDetection;
  for (const auto& m : monitors_) {
    const gmp::GmpNode& node = m->node();
    const ProcessId mid = node.id();
    if (env_.world->crashed(mid) || node.has_quit() || !node.admitted()) continue;
    for (ProcessId q : node.view().members()) {
      if (q == mid || node.isolated().count(q)) continue;
      Tick seen = m->last_heard(q);
      if (seen == 0) seen = wave0;
      const Refresh r = refresh_stream(env_, q, mid);
      if (gate.steady(r, seen, pair_bound(*m, q))) continue;
      const Tick threshold = m->suspect_after(q);
      Tick fire = wave0;
      if (fire <= seen + threshold) {
        if (r != kNoRefresh) {
          // Fed by upkeep but not provably steady: the next wave's frames
          // decide — never skip past them.
          if (wave0 < best) best = wave0;
          continue;
        }
        const Tick k = (seen + threshold - fire) / opts_.interval + 1;
        fire += k * opts_.interval;
      }
      if (fire < best) best = fire;
    }
  }
  return best;
}

void PhiAccrualDetector::on_fast_forward(Tick from, Tick to) {
  (void)from;
  sim::SimWorld& w = *env_.world;
  // Same reconciliation as HeartbeatDetector::on_fast_forward: re-arm the
  // cadence phase-preserved and mark steady pairs heard at the skip
  // target.  mark_heard() records no inter-arrival sample — elided upkeep
  // must not fabricate distribution data, and pair_bound() already
  // guarantees the unfed fit stays above every silence the certified span
  // could show.
  const Tick w0 = next_wave_;
  const bool wave_elided = next_wave_ != kNeverTick && next_wave_ < to;
  if (wave_elided) {
    const Tick missed = (to - next_wave_ + opts_.interval - 1) / opts_.interval;
    next_wave_ += missed * opts_.interval;
    w.set_environment_timer(next_wave_ - to, [this] { wave(); });
  }
  if (!wave_elided) return;
  const SteadyGate gate = phi_gate(w, opts_, w0);
  for (auto& m : monitors_) {
    const gmp::GmpNode& node = m->node();
    const ProcessId mid = node.id();
    if (w.crashed(mid) || node.has_quit()) continue;
    if (node.admitted()) {
      for (ProcessId q : node.view().members()) {
        if (q == mid || node.isolated().count(q)) continue;
        if (m->last_heard(q) == 0) m->mark_heard(q, w0);
        if (gate.steady(refresh_stream(env_, q, mid), m->last_heard(q), pair_bound(*m, q)))
          m->mark_heard(q, to);
      }
    } else {
      for (ProcessId q : *env_.ids) {
        if (q == mid || node.isolated().count(q)) continue;
        const Tick seen = m->last_heard(q) == 0 ? w0 : m->last_heard(q);
        if (gate.steady(refresh_stream(env_, q, mid), seen, pair_bound(*m, q)))
          m->mark_heard(q, to);
      }
    }
  }
}

void PhiAccrualDetector::on_elided_background(ProcessId from, ProcessId to, uint32_t kind,
                                              Tick when) {
  // As in HeartbeatDetector::on_elided_background, but a replayed real
  // arrival feeds the inter-arrival ring (record_arrival) — it happened at
  // exactly `when` in a skip-free run too.  The modeled ack of a live
  // unadmitted receiver is synthetic timing (its own delay draw never
  // happened), so it refreshes proof of life without sampling.  Arrivals
  // replay in (tick, seq) order, so two elided arrivals of one pair both
  // land in the ring, earliest first, exactly as in a skip-free run.
  PhiFd* m = to < monitor_by_id_.size() ? monitor_by_id_[to] : nullptr;
  if (!m) return;
  if (env_.world->crashed(to)) return;
  const gmp::GmpNode& node = m->node();
  if (node.has_quit() || node.isolated().count(from)) return;
  m->record_arrival(from, when);
  if (kind != gmp::kind::kHeartbeat || node.admitted()) return;
  if (env_.world->channel_blocked(to, from)) return;  // the ack would be held
  PhiFd* back = from < monitor_by_id_.size() ? monitor_by_id_[from] : nullptr;
  if (!back) return;
  if (env_.world->crashed(from)) return;
  const gmp::GmpNode& sender = back->node();
  if (sender.has_quit() || sender.isolated().count(to)) return;
  if (when > back->last_heard(to)) back->mark_heard(to, when);
}

void PhiAccrualDetector::on_background_packet(ProcessId from, ProcessId to, uint32_t kind) {
  PhiFd* m = to < monitor_by_id_.size() ? monitor_by_id_[to] : nullptr;
  if (!m) return;
  if (Context* ctx = env_.world->context_of(to)) m->on_background(*ctx, from, kind);
}

Actor* PhiAccrualDetector::wrap(gmp::GmpNode& inner) {
  std::unique_ptr<PhiFd> m;
  if (!monitor_pool_.empty()) {
    m = std::move(monitor_pool_.back());
    monitor_pool_.pop_back();
    m->reset(&inner, opts_, /*self_arm=*/false);
  } else {
    m = std::make_unique<PhiFd>(&inner, opts_, /*self_arm=*/false);
  }
  monitors_.push_back(std::move(m));
  PhiFd* raw = monitors_.back().get();
  const ProcessId id = inner.id();
  if (id >= monitor_by_id_.size()) monitor_by_id_.resize(id + 1, nullptr);
  monitor_by_id_[id] = raw;
  return raw;
}

std::unique_ptr<FailureDetector> make_detector(DetectorKind kind, const OracleOptions& oracle,
                                               const HeartbeatOptions& heartbeat,
                                               const PhiOptions& phi) {
  switch (kind) {
    case DetectorKind::kOracle: return std::make_unique<OracleFd>(oracle);
    case DetectorKind::kHeartbeat: return std::make_unique<HeartbeatDetector>(heartbeat);
    case DetectorKind::kPhi: return std::make_unique<PhiAccrualDetector>(phi);
  }
  return std::make_unique<OracleFd>(oracle);
}

}  // namespace gmpx::fd
