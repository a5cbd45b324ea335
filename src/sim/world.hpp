// Deterministic discrete-event simulation of the paper's system model:
// a fully connected network of reliable, FIFO, *unboundedly delayed*
// channels between crash-stop processes (S2.1).
//
// Design goals:
//   * Bit-reproducible from a seed — every experiment names its seed.
//   * Adversarial asynchrony — per-message random delays (FIFO preserved
//     per channel) make "slow" indistinguishable from "crashed", which is
//     the phenomenon the paper is about.
//   * Faithful failure semantics — crash(p) is the paper's quit_p: p takes
//     no further steps, messages already in flight *from* p remain
//     deliverable, messages *to* p vanish.
//   * Message metering — benches regenerate the S7.2 complexity rows by
//     counting real sends, grouped by packet kind.
//   * Allocation-free hot path — the event loop is the throughput floor of
//     every fuzz sweep and bench, so events are typed POD records in
//     vector-backed binary heaps, packets live in a recycled slab, timers
//     cancel via generation counters, and channel state is keyed by a
//     packed 64-bit id in hash maps.  No per-event heap allocation occurs
//     once the pools are warm.
//   * Pooled lifecycle — reset() rewinds the world to its just-constructed
//     state while keeping every slab, heap and matrix at capacity, so a
//     fuzz sweep reuses one world (and one cluster) per worker thread
//     across thousands of runs instead of rebuilding them.
//   * Background fast path — failure-detector upkeep traffic (empty-payload
//     pings) can bypass the packet slab entirely: the event record carries
//     (from, to, kind) inline and delivery dispatches to a registered sink
//     instead of building a Packet (see set_background_sink).
//   * Virtual-time fast-forward — most of a simulated run is dead air
//     (joiner solicit spans, detection-settle windows, steady-state
//     partitions) during which the only queued events are background
//     upkeep.  When the background layer can certify an earliest-effect
//     horizon ("no detection can fire before tick T", see
//     set_horizon_provider), the engine elides every background event
//     strictly before min(T, next live foreground event) and jumps the
//     clock there in one step; the registered skip hook then reconciles
//     the background layer's state (re-arming its wave cadence, refreshing
//     proof-of-life tables) as if the elided upkeep had run.  Foreground
//     work — protocol deliveries, scripted faults, crashes, plain timers —
//     always pins the skip frontier, so skips never reorder deliveries or
//     perturb RNG draw order: a run without background machinery (the
//     oracle detector) is bit-for-bit unaffected.
//   * One dispatch loop — every run loop pops and dispatches one event at
//     a time through step(), in (tick, seq) order.  Batching same-tick
//     events does not pay: batches average ~1.1 events on the fuzz and
//     soak grids.
//
// Partitions: the model's channels are reliable, so a "partition" here
// *delays* messages (holds them in the channel) rather than dropping them;
// healing releases them in FIFO order.  This is exactly the asynchronous
// reading of a partition: an arbitrarily long communication delay.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/runtime.hpp"
#include "common/tiled.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace gmpx::sim {

/// Per-message latency model.  Uniform in [min_delay, max_delay] ticks;
/// FIFO order within a channel is enforced on top of the draw.
struct DelayModel {
  Tick min_delay = 1;
  Tick max_delay = 16;
};

/// Channel fault model: per-message loss/duplication/reordering
/// probabilities (out of 1000) applied to *background* (failure-detector)
/// frames only.  Protocol traffic keeps the paper's reliable-FIFO channel
/// semantics — the membership algorithm's correctness argument assumes
/// them (S2.1) — while detector pings ride the kind of channel real
/// deployments give them: UDP-like, lossy, occasionally late or repeated.
///
/// Every outcome is drawn from the run RNG at send time, and no draw
/// happens at all while the model is all-zero, so runs without faults are
/// bit-identical to builds that predate the model and sharded sweeps stay
/// byte-identical across --jobs.
///
///   * loss_permille    — frame silently dropped (still metered as sent).
///   * dup_permille     — a duplicate copy follows the original after an
///                        independent delay draw plus up to reorder_slack
///                        extra ticks (a retransmit); the copy is exempt
///                        from the channel FIFO clamp.
///   * reorder_permille — the frame itself is delivered FIFO-exempt with
///                        up to reorder_slack extra ticks of jitter, so it
///                        can overtake or fall behind its channel peers.
///
/// Duplicated/reordered arrivals are tagged in flight: their delivery
/// re-opens run_until_protocol_idle's settle window (a dup arriving after
/// apparent quiescence is foreground work for the quiescence question).
struct ChannelFaults {
  uint32_t loss_permille = 0;
  uint32_t dup_permille = 0;
  uint32_t reorder_permille = 0;
  Tick reorder_slack = 48;  ///< max extra lateness of a dup/reordered copy
  bool any() const {
    return (loss_permille | dup_permille | reorder_permille) != 0;
  }
  bool operator==(const ChannelFaults&) const = default;
};

/// Counts messages sent, grouped by Packet::kind.  Reset between
/// experiment phases to isolate the message cost of a single view change.
/// Protocol kinds are small dense integers (src/gmp/messages.hpp), so the
/// counters are a flat array; rare out-of-range kinds overflow into a map.
/// Kinds inside the registered detector range (failure-detector pings/acks)
/// are additionally tallied under a separate counter so protocol message
/// totals stay clean of heartbeat noise.
class Meter {
 public:
  /// Record one send of the given kind.
  void count(uint32_t kind) { count_n(kind, 1); }
  /// Record `n` sends of one kind in a single update (a wave fan or an
  /// encode-once broadcast meters its whole fan at once instead of
  /// re-running the range checks per target).
  void count_n(uint32_t kind, uint64_t n) {
    total_ += n;
    if (kind >= det_lo_ && kind <= det_hi_) detector_total_ += n;
    if (kind < kInlineKinds) {
      by_kind_[kind] += n;
    } else {
      overflow_[kind] += n;
    }
  }
  /// Declare [lo, hi] as detector-internal kinds (empty range disables).
  void set_detector_range(uint32_t lo, uint32_t hi) {
    det_lo_ = lo;
    det_hi_ = hi;
  }
  /// Total sends since last reset.
  uint64_t total() const { return total_; }
  /// Detector-internal sends (heartbeats/acks) since last reset.
  uint64_t detector_total() const { return detector_total_; }
  /// Protocol sends: everything outside the detector range.
  uint64_t protocol_total() const { return total_ - detector_total_; }
  /// Sends of one kind since last reset.
  uint64_t of_kind(uint32_t kind) const {
    if (kind < kInlineKinds) return by_kind_[kind];
    auto it = overflow_.find(kind);
    return it == overflow_.end() ? 0 : it->second;
  }
  /// Sends of any kind in [lo, hi] (kind ranges group protocol families).
  uint64_t in_kind_range(uint32_t lo, uint32_t hi) const {
    uint64_t n = 0;
    for (uint32_t k = lo; k <= hi && k < kInlineKinds; ++k) n += by_kind_[k];
    if (hi >= kInlineKinds) {
      for (const auto& [k, c] : overflow_)
        if (k >= lo && k <= hi) n += c;
    }
    return n;
  }
  /// Zero all counters (the detector range registration is kept).
  void reset() {
    total_ = 0;
    detector_total_ = 0;
    by_kind_.fill(0);
    overflow_.clear();
  }

 private:
  static constexpr uint32_t kInlineKinds = 64;
  uint64_t total_ = 0;
  uint64_t detector_total_ = 0;
  uint32_t det_lo_ = 1, det_hi_ = 0;  // empty range: no detector traffic
  std::array<uint64_t, kInlineKinds> by_kind_{};
  std::map<uint32_t, uint64_t> overflow_;
};

/// Signature of a crash observer (the trace recorder subscribes to this).
using CrashHook = std::function<void(ProcessId, Tick)>;

/// The simulated world: event queue, channels, processes.
///
/// Usage:
///   SimWorld w(seed);
///   w.add_actor(0, &node0); ... w.start();
///   w.crash_at(500, 3);
///   w.run_until_idle();
class SimWorld {
 public:
  explicit SimWorld(uint64_t seed, DelayModel delays = {});
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  /// Rewind to the just-constructed state (fresh seed, empty queue, no
  /// actors) while keeping every slab/heap/matrix allocation at capacity.
  /// A reset world is observationally identical to `SimWorld(seed, delays)`
  /// — slot numbering inside the recycled slabs may differ, but slot ids
  /// never influence event ordering, RNG draws, or anything an actor sees.
  void reset(uint64_t seed, DelayModel delays = {});

  /// Register a process.  The actor is borrowed, not owned; it must outlive
  /// the world.  Must be called before start().
  void add_actor(ProcessId id, Actor* actor);

  /// Deliver on_start to every registered actor (in id order).
  void start();

  /// Immediately crash `id` (quit_p): drops its pending timers and all
  /// undelivered messages addressed to it.
  void crash(ProcessId id);

  /// Schedule a crash at absolute time `t`.
  void crash_at(Tick t, ProcessId id);

  /// True if `id` has executed quit (via crash or Context::quit()).
  bool crashed(ProcessId id) const;

  /// Ids of processes that have not crashed.
  std::vector<ProcessId> alive() const;

  /// Run an external script action at absolute time `t` (e.g. injecting an
  /// oracle failure suspicion, or healing a partition).
  void at(Tick t, std::function<void()> fn);

  /// Sever communication between groups `a` and `b` (both directions):
  /// messages are *held*, not dropped, until heal_partition().
  void partition(const std::vector<ProcessId>& a, const std::vector<ProcessId>& b);

  /// Asymmetric cut: sever only the a -> b direction.  Nodes in `b` still
  /// reach `a`, modelling one-way link failures (a hears nobody, everybody
  /// hears a — the classic false-suspicion generator).  Healed by the same
  /// heal_partition() as symmetric cuts.
  void partition_oneway(const std::vector<ProcessId>& a, const std::vector<ProcessId>& b);

  /// Release all held messages, preserving per-channel FIFO order.
  /// Channels release in (from, to) order, so a seeded run is reproducible.
  void heal_partition();

  /// Install (or clear, with a default-constructed value) the background
  /// fault model.  Affects only frames sent after the call; scenario
  /// "faults" spans toggle it exactly like delay storms toggle delays.
  void set_channel_faults(ChannelFaults f) { faults_ = f; }
  const ChannelFaults& channel_faults() const { return faults_; }

  /// True when the ordered channel a -> b is currently severed.  Horizon
  /// providers use this to decide which peers can still refresh a
  /// monitor's proof of life.
  bool channel_blocked(ProcessId a, ProcessId b) const { return blocked(a, b); }

  /// Process a single event: pop the (tick, seq)-least entry and dispatch
  /// it.  The only dispatch loop; every run_* method below is built on it.
  /// Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `max_events` have been processed.
  /// Returns true on a drained queue (quiescence), false on the guard.
  bool run_until_idle(uint64_t max_events = 50'000'000);

  /// Protocol-quiescence for runs with an always-on background layer
  /// (heartbeat pings re-arm forever, so the queue never drains).  Steps
  /// until no *foreground* event — protocol delivery, script, crash, or
  /// ordinary timer — is pending, fast-forwarding across pure-background
  /// spans whenever the horizon provider certifies them eventless.  Once
  /// only background work remains, a horizon of kNeverTick concludes the
  /// run outright ("no detection can ever fire"); a finite horizon is
  /// jumped to and stepped (the detection either fires — re-opening the
  /// drain — or postpones the horizon).  Without a horizon provider the
  /// legacy criterion applies: advance through background events for a
  /// full `settle` window and conclude when it produces no foreground
  /// work.  Returns true on protocol quiescence (or a drained queue),
  /// false on the event budget.  Choose `settle` >= detector timeout +
  /// ping interval + worst channel delay so any detection that is already
  /// inevitable fires inside the window.
  bool run_until_protocol_idle(Tick settle, uint64_t max_events = 50'000'000);

  /// Earliest-effect horizon of the background layer: called with the
  /// current tick, must return the earliest tick at which background
  /// machinery could still affect protocol state (a failure detector
  /// delivering a suspicion), computed as a *lower bound* — returning
  /// kNeverTick certifies that nothing background can ever fire again,
  /// returning `now` means "unknown; anything could fire" and disables
  /// fast-forwarding.  The provider is queried only between events, never
  /// from inside a callback.
  using HorizonFn = std::function<Tick(Tick now)>;
  void set_horizon_provider(HorizonFn fn) { horizon_fn_ = std::move(fn); }

  /// Reconciliation hook run after every fast-forward, with the clock
  /// already at `to`.  The background layer owns everything a skip elides,
  /// so the hook must restore its invariants as if the elided upkeep had
  /// run: re-arm its wave cadence (an environment timer queued before `to`
  /// was dropped), refresh whatever state the elided traffic would have
  /// refreshed.  The hook may arm timers and push events at or after `to`;
  /// it must not send foreground traffic.
  using SkipHook = std::function<void(Tick from, Tick to)>;
  void set_skip_hook(SkipHook hook) { skip_hook_ = std::move(hook); }

  /// Sink for background traffic that was already *in flight* when a skip
  /// elided it: called once per elided arrival with the original
  /// (from, to, kind, arrival tick), before the skip hook runs.  An
  /// in-flight frame was sent before the span and still lands in a
  /// skip-free run even if its channel was cut or its sender died after
  /// the send (delivery never re-checks partitions), so the background
  /// layer must replay its state effect — proof-of-life refresh — at the
  /// true arrival tick or a skip could fire a detection a skip-free run
  /// never fires.  Replays must not send (any response frame the arrival
  /// would have triggered is covered by the skip hook's reconciliation).
  /// Calls within one skip come in (tick, seq) order — the order a
  /// skip-free run delivers the frames in — so order-sensitive effects
  /// (φ's inter-arrival ring) record exactly the samples that run records.
  using ElisionSink = std::function<void(ProcessId from, ProcessId to, uint32_t kind, Tick when)>;
  void set_elision_sink(ElisionSink sink) { elision_sink_ = std::move(sink); }

  /// Attempt one fast-forward: if the next queued event is background (or
  /// a stale cancelled-timer entry) and the skip frontier — the earlier of
  /// the horizon provider's answer and the first live foreground deadline
  /// — lies beyond it, elide everything before the frontier and jump the
  /// clock there.  Elided events are popped off the heap front in (tick,
  /// seq) order at O(elided · log q).  Scripts and crashes sit in their own
  /// heap, whose front alone pins the frontier; only the scan for the
  /// first live foreground deadline among deliveries and timers still
  /// reads the whole main heap.  Returns true if the clock moved.
  /// Requires a horizon provider; the run loops call this, and tests may.
  bool try_skip();

  /// Fast-forward telemetry since construction/reset: simulated ticks
  /// jumped over, events elided, and skips performed.  gmpx_fuzz --stats
  /// reports these per run so the fast path can't silently regress.
  uint64_t skipped_ticks() const { return skipped_ticks_; }
  uint64_t skipped_events() const { return skipped_events_; }
  uint64_t skips() const { return skips_; }

  /// Human-oriented description of still-pending work: queued event counts
  /// by class plus every armed timer's owner.  The executor includes this
  /// in the "run did not quiesce" diagnostic so an exhausted event budget
  /// names the node/timer that was still live instead of failing silently.
  std::string pending_summary() const;

  /// Declare [lo, hi] as background packet kinds (detector pings/acks):
  /// metered under Meter::detector_total() and ignored by
  /// run_until_protocol_idle's foreground tracking.
  void set_background_kinds(uint32_t lo, uint32_t hi) {
    bg_lo_ = lo;
    bg_hi_ = hi;
    meter_.set_detector_range(lo, hi);
  }

  /// Sink for fast-path background packets: delivery calls
  /// sink(from, to, kind) instead of routing a Packet through the slab and
  /// the destination's Actor.  Only empty-payload kinds inside the
  /// background range use the fast path (see Context::send_background);
  /// without a sink they fall back to ordinary packets.
  using BackgroundSink = std::function<void(ProcessId, ProcessId, uint32_t)>;
  void set_background_sink(BackgroundSink sink) { bg_sink_ = std::move(sink); }

  /// Batched background fan: ship `from`'s whole per-interval ping fan as
  /// ONE heap event with ONE delay draw (all targets hear at the same
  /// tick).  Detector upkeep is a liveness heuristic, so it rides outside
  /// the per-channel FIFO guarantee protocol traffic keeps — a ping may
  /// overtake an earlier protocol packet on the same channel, which only
  /// ever refreshes proof-of-life sooner.  Targets behind a partition are
  /// held as ordinary packets and released (FIFO) on heal.  Requires a
  /// background sink.
  void send_background_wave(ProcessId from, const std::vector<ProcessId>& targets,
                            uint32_t kind);

  /// Arm a timer owned by the *environment* rather than a process: it is
  /// not reclaimed by any crash and fires regardless of process state (the
  /// heartbeat detector's batched ping wave).  Background timers do not
  /// count as pending foreground work.  There is deliberately no cancel:
  /// an environment task ends by not re-arming (the wave does exactly
  /// that), and reset() disarms the whole slab.
  TimerId set_environment_timer(Tick delay, std::function<void()> fn, bool background = true) {
    return arm_timer(kNilId, delay, std::move(fn), background);
  }

  /// Run (at most) until simulated time `t`.
  void run_until(Tick t);

  /// Current simulated time.
  Tick now() const { return now_; }

  /// Earliest queued event time (kNeverTick when nothing is queued).  The
  /// GroupMux cohort scheduler orders runnable groups by this without
  /// popping anything.
  Tick next_event_time() const {
    const Tick q = queue_.empty() ? kNeverTick : queue_.front().time;
    const Tick s = scripts_.empty() ? kNeverTick : scripts_.front().time;
    return q < s ? q : s;
  }

  /// Queued foreground work remains (deliveries of protocol kinds, scripts,
  /// crashes, armed non-background timers).  False means only detector
  /// upkeep is left — a dormancy candidate for multiplexed groups.
  bool foreground_pending() const { return fg_pending_ != 0; }

  /// Total queued events (foreground + background + stale timer entries).
  size_t queued_events() const { return queue_.size() + scripts_.size(); }

  /// Current latency model.
  const DelayModel& delays() const { return delays_; }

  /// Swap the latency model mid-run (scenario "delay storm" events).  Only
  /// affects messages sent after the call; per-channel FIFO still holds.
  void set_delays(DelayModel d) { delays_ = d; }

  /// Message meter (counts protocol sends).
  Meter& meter() { return meter_; }
  const Meter& meter() const { return meter_; }

  /// Subscribe to crash events (trace recorder hook).
  void set_crash_hook(CrashHook hook) { crash_hook_ = std::move(hook); }

  /// Simulation RNG — scripts may draw from it for reproducible randomness.
  Rng& rng() { return rng_; }

  /// The runtime context of a live process (nullptr if crashed/unknown).
  /// Lets external scripts drive actor methods that need a Context (e.g.
  /// injecting oracle failure suspicions).
  Context* context_of(ProcessId id);

 private:
  friend class NodeContext;

  /// Packed ordered-channel id: from in the high 32 bits, to in the low 32.
  /// Numeric order equals lexicographic (from, to) order, which keeps
  /// heal_partition's release order identical to the former std::map walk.
  static constexpr uint64_t channel_key(ProcessId from, ProcessId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  /// Typed event record.  POD: the heap never copies closures, and the
  /// deliver/timer hot paths never touch the allocator.
  enum class EventKind : uint8_t {
    kDeliver,   ///< a = packet slab slot
    kTimer,     ///< a = timer slab slot, gen = generation at arm time
    kCrash,     ///< a = process id
    kScript,    ///< a = script slab slot
    kBgPacket,  ///< a = destination id, gen = (from << 32) | kind
    kBgWave,    ///< a = wave slab slot, gen = (from << 32) | kind
  };
  struct Event {
    Tick time;
    uint64_t seq;  // tie-break: deterministic FIFO among same-time events
    uint64_t gen;  // kTimer: generation that must still be current to fire
    uint32_t a;
    EventKind kind;
  };
  struct EventCmp {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Node;

  /// One armed (or recycled) timer.  A slot is freed by cancel, by firing,
  /// or lazily when its owner turns out to have crashed; each transition
  /// bumps `gen` so stale heap entries and stale TimerIds miss.
  struct TimerSlot {
    uint64_t gen = 1;
    ProcessId owner = kNilId;
    bool armed = false;
    bool background = false;  ///< excluded from foreground-pending tracking
    std::function<void()> fn;
  };

  /// kBgPacket events carry (from << 32) | kind in `gen`; this bit flags a
  /// fault-injected (duplicated or reordered) copy so its delivery can
  /// re-open the protocol-idle settle window.  ProcessIds are < 2^20 and
  /// kinds < 2^32, so bit 63 is always free.
  static constexpr uint64_t kPerturbedBit = 1ull << 63;

  bool background_kind(uint32_t kind) const { return kind >= bg_lo_ && kind <= bg_hi_; }
  /// Shared blocked-channel insert for partition()/partition_oneway().
  void block_channel(ProcessId x, ProcessId y);
  /// Fast-path background send: no Packet, no slab slot — the heap entry
  /// carries (from, to, kind) inline.  Falls back to caller-built packets
  /// when a partition holds the channel (held traffic must survive to heal
  /// in FIFO order, which the Packet deques already implement).
  void send_background_packet(ProcessId from, ProcessId to, uint32_t kind);
  TimerId arm_timer(ProcessId owner, Tick delay, std::function<void()> fn, bool background);
  /// Disarm and recycle an armed slot (gen bump, foreground-counter
  /// release, free-list push); returns the callback for firing sites.
  /// The single owner of the slot-release invariant — cancel, crash
  /// reclamation and firing all go through here.
  std::function<void()> release_timer_slot(uint32_t slot);
  /// True for events that pin the skip frontier: queued protocol
  /// deliveries, scripts, crashes, and *live* non-background timers.
  /// Stale timer entries (cancelled, or their slot recycled) and all
  /// background traffic are elidable.
  bool live_foreground(const Event& e) const;
  /// Release whatever an elided event owns (packet slot + payload buffer,
  /// timer slot, wave fan) without running it.
  void discard_elided(const Event& e);
  /// try_skip() past its guards with the horizon already queried at `now_`
  /// (so each skip attempt walks the background layer once).  Requires the
  /// next event to be on the main heap and not live foreground.
  bool skip_to_horizon(Tick horizon);
  void push_event(Tick time, EventKind kind, uint32_t a, uint64_t gen = 0);
  /// Queue a script or crash on the script heap (same seq counter).
  void push_script(Tick time, EventKind kind, uint32_t a);
  /// The heap holding the (tick, seq)-least queued event; nullptr when
  /// both are empty.
  std::vector<Event>* front_heap();
  uint32_t acquire_packet_slot(Packet&& p);
  void release_packet_slot(uint32_t slot);
  void dispatch(Event ev);
  void deliver(uint32_t slot);
  void send_from(ProcessId from, Packet p);
  /// Delay-draw + FIFO + enqueue, without metering (heal re-routes held
  /// packets through this so they are not counted twice).
  void route(ProcessId from, Packet p);
  bool blocked(ProcessId a, ProcessId b) const;
  void do_crash(ProcessId id);
  Node* node_of(ProcessId id) const;

  Tick now_ = 0;
  uint64_t next_seq_ = 0;
  // The event queue is two explicit binary heaps (std::push_heap/pop_heap
  // with EventCmp — the same algorithm std::priority_queue uses, but
  // clearable with capacity kept, which reset() needs):
  //   * `scripts_` holds kScript and kCrash events.  They are always live
  //     foreground work and never elided, and a soak run queues all its
  //     client ops up front, so they would otherwise make up most of the
  //     heap that every push, pop and skip-frontier scan walks;
  //   * `queue_` holds everything else: deliveries, timers, background
  //     frames and waves.
  // Both draw their tie-break from the one `next_seq_` counter, so
  // (tick, seq) is still a single total order over every queued event:
  // step() dispatches the lesser of the two fronts, exactly the event one
  // merged heap would pop.
  std::vector<Event> queue_;
  std::vector<Event> scripts_;
  // Dense process table indexed by id (ids are small dense integers; the
  // scenario generator allocates joiner ids contiguously after 0..n-1).
  std::vector<std::unique_ptr<Node>> nodes_;
  // Node objects recycled across reset()s (per-run membership varies, the
  // pool holds the high-water count).
  std::vector<std::unique_ptr<Node>> node_pool_;
  // Packet slab: in-flight messages parked here between send and delivery.
  std::vector<Packet> packet_slab_;
  std::vector<uint32_t> packet_free_;
  // Timer slab with generation-counter cancellation.
  std::vector<TimerSlot> timer_slots_;
  std::vector<uint32_t> timer_free_;
  // Script slab (at() closures; cold path, still recycled).
  std::vector<std::function<void()>> script_slab_;
  std::vector<uint32_t> script_free_;
  // Wave slab: target fans of in-flight batched background sends.
  std::vector<std::vector<ProcessId>> wave_slab_;
  std::vector<uint32_t> wave_free_;
  /// Mutable slot for a channel's FIFO front (last scheduled delivery time).
  Tick& channel_front(ProcessId from, ProcessId to);

  // Channel state.  start() sizes dim_ x dim_ flat matrices over the dense
  // id range so the per-send FIFO/partition lookups are array indexing with
  // no hashing and no per-channel node allocation; out-of-range ids (n > 512
  // worlds, sparse joiner ids) fall back to tiled layouts — lazily allocated
  // 64x64 tiles with the same shift/mask access pattern as the flat path,
  // pooled across clear() like every other slab (common/tiled.hpp).
  size_t dim_ = 0;
  std::vector<Tick> channel_front_flat_;   // dim_ * dim_, 0 = untouched
  std::vector<uint8_t> blocked_flat_;      // dim_ * dim_ adjacency bytes
  // FIFO enforcement: last scheduled delivery time per ordered channel.
  common::TiledGrid<Tick> channel_front_tiled_;
  // Held (partitioned) traffic per ordered channel.  Entries persist (with
  // cleared deques) across heal and reset: deque block maps are the one
  // container that allocates even when empty, so they are recycled.
  std::unordered_map<uint64_t, std::deque<Packet>> held_;
  std::vector<uint64_t> heal_keys_;  ///< scratch: sorted non-empty channels
  common::TiledGrid<uint8_t> blocked_tiled_;  // partition cuts beyond dim_
  // Background (detector) packet-kind range; empty [1, 0] by default.
  uint32_t bg_lo_ = 1, bg_hi_ = 0;
  // Fast-path delivery sink for slab-free background packets.
  BackgroundSink bg_sink_;
  // Virtual-time fast-forward wiring + telemetry.
  HorizonFn horizon_fn_;
  SkipHook skip_hook_;
  ElisionSink elision_sink_;
  uint64_t skipped_ticks_ = 0;
  uint64_t skipped_events_ = 0;
  uint64_t skips_ = 0;
  // Pending foreground work: queued deliveries of non-background kinds,
  // queued crash/script events, and armed non-background timers.  Zero
  // means only detector upkeep remains (protocol quiescence candidate).
  uint64_t fg_pending_ = 0;
  // Set by do_crash: a death during a protocol-idle settle window changes
  // what detectors must still notice (the fresh silence needs another full
  // timeout), even when the quit itself produced no foreground event.
  bool quiesce_dirty_ = false;
  DelayModel delays_;
  ChannelFaults faults_;
  Rng rng_;
  Meter meter_;
  CrashHook crash_hook_;
  bool started_ = false;
};

}  // namespace gmpx::sim
