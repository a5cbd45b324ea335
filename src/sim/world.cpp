#include "sim/world.hpp"

#include <algorithm>
#include <cassert>

#include "common/codec.hpp"
#include "common/log.hpp"

namespace gmpx::sim {

/// Per-process runtime state plus the Context implementation handed to the
/// actor's callbacks.
struct SimWorld::Node final : Context {
  SimWorld* world = nullptr;
  ProcessId id = kNilId;
  Actor* actor = nullptr;
  bool is_crashed = false;

  ProcessId self() const override { return id; }
  Tick now() const override { return world->now_; }

  void send(Packet p) override {
    p.from = id;
    world->send_from(id, std::move(p));
  }

  void send_background(ProcessId to, uint32_t kind) override {
    // Fast path only when a sink is registered and the kind really is
    // background; otherwise behave exactly like an ordinary empty packet.
    if (world->bg_sink_ && world->background_kind(kind)) {
      world->send_background_packet(id, to, kind);
    } else {
      world->send_from(id, Packet{id, to, kind, {}});
    }
  }

  TimerId set_timer(Tick delay, std::function<void()> fn) override {
    return world->arm_timer(id, delay, std::move(fn), /*background=*/false);
  }

  TimerId set_background_timer(Tick delay, std::function<void()> fn) override {
    return world->arm_timer(id, delay, std::move(fn), /*background=*/true);
  }

  void cancel_timer(TimerId tid) override {
    uint32_t slot = static_cast<uint32_t>(tid >> 32);
    if (slot >= world->timer_slots_.size()) return;
    TimerSlot& t = world->timer_slots_[slot];
    if (!t.armed || static_cast<uint32_t>(t.gen) != static_cast<uint32_t>(tid) ||
        t.owner != id) {
      return;  // already fired, already cancelled, or not ours
    }
    world->release_timer_slot(slot);
  }

  void quit() override { world->do_crash(id); }
};

SimWorld::SimWorld(uint64_t seed, DelayModel delays) : delays_(delays), rng_(seed) {}

void SimWorld::reset(uint64_t seed, DelayModel delays) {
  now_ = 0;
  next_seq_ = 0;
  queue_.clear();
  scripts_.clear();
  // Recycle the node objects; add_actor re-initializes one per process.
  for (auto& n : nodes_) {
    if (n) node_pool_.push_back(std::move(n));
  }
  nodes_.clear();
  // Packet slab: every slot becomes free again.  Payload buffers still
  // parked in slots go back to the codec pool so the next run's encoders
  // start warm.
  packet_free_.clear();
  for (uint32_t s = 0; s < packet_slab_.size(); ++s) {
    recycle_buffer(std::move(packet_slab_[s].bytes));
    packet_slab_[s].bytes.clear();
    packet_free_.push_back(s);
  }
  // Timer slab: disarm everything (gen bump invalidates any TimerId a
  // previous run may still hold) and rebuild the free list.
  timer_free_.clear();
  for (uint32_t s = 0; s < timer_slots_.size(); ++s) {
    TimerSlot& t = timer_slots_[s];
    if (t.armed) {
      t.armed = false;
      ++t.gen;
    }
    t.fn = nullptr;
    t.owner = kNilId;
    timer_free_.push_back(s);
  }
  script_free_.clear();
  for (uint32_t s = 0; s < script_slab_.size(); ++s) {
    script_slab_[s] = nullptr;
    script_free_.push_back(s);
  }
  wave_free_.clear();
  for (uint32_t s = 0; s < wave_slab_.size(); ++s) {
    wave_slab_[s].clear();
    wave_free_.push_back(s);
  }
  dim_ = 0;
  channel_front_flat_.clear();
  blocked_flat_.clear();
  channel_front_tiled_.clear();
  // Keep the held-traffic map and its deques: partitions on the same dense
  // channels recur across runs, and a deque reallocates its block map even
  // when constructed empty.  The key set is bounded by the channel count.
  for (auto& [chan, q] : held_) {
    for (Packet& p : q) recycle_buffer(std::move(p.bytes));
    q.clear();
  }
  blocked_tiled_.clear();
  bg_lo_ = 1;
  bg_hi_ = 0;
  bg_sink_ = nullptr;
  horizon_fn_ = nullptr;
  skip_hook_ = nullptr;
  elision_sink_ = nullptr;
  skipped_ticks_ = 0;
  skipped_events_ = 0;
  skips_ = 0;
  fg_pending_ = 0;
  quiesce_dirty_ = false;
  delays_ = delays;
  faults_ = {};
  rng_ = Rng(seed);
  meter_.reset();
  meter_.set_detector_range(1, 0);
  crash_hook_ = nullptr;
  started_ = false;
}

TimerId SimWorld::arm_timer(ProcessId owner, Tick delay, std::function<void()> fn,
                            bool background) {
  uint32_t slot;
  if (!timer_free_.empty()) {
    slot = timer_free_.back();
    timer_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(timer_slots_.size());
    timer_slots_.emplace_back();
  }
  TimerSlot& t = timer_slots_[slot];
  t.owner = owner;
  t.armed = true;
  t.background = background;
  t.fn = std::move(fn);
  if (!background) ++fg_pending_;
  push_event(now_ + delay, EventKind::kTimer, slot, t.gen);
  return (static_cast<uint64_t>(slot) << 32) | static_cast<uint32_t>(t.gen);
}

std::function<void()> SimWorld::release_timer_slot(uint32_t slot) {
  TimerSlot& t = timer_slots_[slot];
  t.armed = false;
  ++t.gen;  // stale heap entries (and stale TimerIds) now miss
  if (!t.background) --fg_pending_;
  auto fn = std::move(t.fn);
  t.fn = nullptr;
  timer_free_.push_back(slot);
  return fn;
}

SimWorld::~SimWorld() = default;

SimWorld::Node* SimWorld::node_of(ProcessId id) const {
  return id < nodes_.size() ? nodes_[id].get() : nullptr;
}

void SimWorld::add_actor(ProcessId id, Actor* actor) {
  assert(!started_ && "add_actor after start()");
  assert(id < (1u << 20) && "process ids must be small dense integers");
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  assert(!nodes_[id] && "duplicate process id");
  std::unique_ptr<Node> node;
  if (!node_pool_.empty()) {
    node = std::move(node_pool_.back());
    node_pool_.pop_back();
  } else {
    node = std::make_unique<Node>();
  }
  node->world = this;
  node->id = id;
  node->actor = actor;
  node->is_crashed = false;
  nodes_[id] = std::move(node);
}

void SimWorld::start() {
  started_ = true;
  // Size the flat channel matrices over the dense id range (skip for very
  // sparse/large worlds, where the hash fallbacks serve instead).
  constexpr size_t kFlatDimLimit = 512;
  dim_ = nodes_.size() <= kFlatDimLimit ? nodes_.size() : 0;
  if (dim_ > 0) {
    channel_front_flat_.assign(dim_ * dim_, 0);
    blocked_flat_.assign(dim_ * dim_, 0);
    // Partitions declared before start() migrate into the matrix; cuts on
    // out-of-range ids stay in the tiled overlay.
    if (blocked_tiled_.any_tile()) {
      blocked_tiled_.for_each_cell([&](uint32_t f, uint32_t t, uint8_t& cut) {
        if (cut && f < dim_ && t < dim_) {
          blocked_flat_[f * dim_ + t] = 1;
          cut = 0;
        }
      });
    }
  }
  // Deterministic start order: ascending id (the table is id-indexed).
  for (auto& n : nodes_) {
    if (n && !n->is_crashed) n->actor->on_start(*n);
  }
}

void SimWorld::crash(ProcessId id) { do_crash(id); }

void SimWorld::crash_at(Tick t, ProcessId id) {
  ++fg_pending_;
  push_script(t, EventKind::kCrash, id);
}

void SimWorld::do_crash(ProcessId id) {
  Node* n = node_of(id);
  if (!n || n->is_crashed) return;
  n->is_crashed = true;
  quiesce_dirty_ = true;
  // Reclaim the victim's armed timers eagerly (their callbacks can never
  // run): a stale armed timer would otherwise hold protocol-idle detection
  // open until its deadline surfaced in dispatch().  The gen bump makes the
  // already-queued heap entries miss; slot reuse order does not affect
  // event ordering, so determinism is preserved.
  for (uint32_t slot = 0; slot < timer_slots_.size(); ++slot) {
    TimerSlot& t = timer_slots_[slot];
    if (t.armed && t.owner == id) release_timer_slot(slot);
  }
  GMPX_LOG_DEBUG() << "t=" << now_ << " crash(" << id << ")";
  if (crash_hook_) crash_hook_(id, now_);
}

Context* SimWorld::context_of(ProcessId id) {
  Node* n = node_of(id);
  return (!n || n->is_crashed) ? nullptr : n;
}

bool SimWorld::crashed(ProcessId id) const {
  Node* n = node_of(id);
  return !n || n->is_crashed;
}

std::vector<ProcessId> SimWorld::alive() const {
  std::vector<ProcessId> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_)
    if (n && !n->is_crashed) out.push_back(n->id);
  return out;  // ascending by construction
}

void SimWorld::at(Tick t, std::function<void()> fn) {
  uint32_t slot;
  if (!script_free_.empty()) {
    slot = script_free_.back();
    script_free_.pop_back();
    script_slab_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(script_slab_.size());
    script_slab_.push_back(std::move(fn));
  }
  ++fg_pending_;
  push_script(t, EventKind::kScript, slot);
}

void SimWorld::block_channel(ProcessId x, ProcessId y) {
  if (dim_ > 0 && x < dim_ && y < dim_) {
    blocked_flat_[x * dim_ + y] = 1;
  } else {
    blocked_tiled_.at(x, y) = 1;
  }
}

void SimWorld::partition(const std::vector<ProcessId>& a, const std::vector<ProcessId>& b) {
  for (ProcessId x : a)
    for (ProcessId y : b) {
      block_channel(x, y);
      block_channel(y, x);
    }
}

void SimWorld::partition_oneway(const std::vector<ProcessId>& a,
                                const std::vector<ProcessId>& b) {
  for (ProcessId x : a)
    for (ProcessId y : b) block_channel(x, y);
}

void SimWorld::heal_partition() {
  blocked_tiled_.clear();
  std::fill(blocked_flat_.begin(), blocked_flat_.end(), 0);
  // Release held traffic channel by channel in (from, to) order, preserving
  // FIFO within each channel.  Held packets were metered when first sent,
  // so they re-enter via route(), not send_from() — no double counting.
  // The deques drain in place (blocking was cleared above, so route() never
  // re-holds) and stay allocated for the next partition on the channel.
  heal_keys_.clear();
  for (const auto& [chan, q] : held_) {
    if (!q.empty()) heal_keys_.push_back(chan);
  }
  std::sort(heal_keys_.begin(), heal_keys_.end());
  for (uint64_t chan : heal_keys_) {
    std::deque<Packet>& q = held_[chan];
    for (Packet& p : q) {
      route(static_cast<ProcessId>(chan >> 32), std::move(p));
    }
    q.clear();
  }
}

bool SimWorld::blocked(ProcessId a, ProcessId b) const {
  if (dim_ > 0 && a < dim_ && b < dim_) return blocked_flat_[a * dim_ + b] != 0;
  return blocked_tiled_.get(a, b) != 0;
}

Tick& SimWorld::channel_front(ProcessId from, ProcessId to) {
  if (dim_ > 0 && from < dim_ && to < dim_) return channel_front_flat_[from * dim_ + to];
  return channel_front_tiled_.at(from, to);
}

void SimWorld::push_event(Tick time, EventKind kind, uint32_t a, uint64_t gen) {
  queue_.push_back(Event{time, next_seq_++, gen, a, kind});
  std::push_heap(queue_.begin(), queue_.end(), EventCmp{});
}

void SimWorld::push_script(Tick time, EventKind kind, uint32_t a) {
  scripts_.push_back(Event{time, next_seq_++, 0, a, kind});
  std::push_heap(scripts_.begin(), scripts_.end(), EventCmp{});
}

std::vector<SimWorld::Event>* SimWorld::front_heap() {
  if (scripts_.empty()) return queue_.empty() ? nullptr : &queue_;
  if (queue_.empty() || EventCmp{}(queue_.front(), scripts_.front())) return &scripts_;
  return &queue_;
}

uint32_t SimWorld::acquire_packet_slot(Packet&& p) {
  if (!packet_free_.empty()) {
    uint32_t slot = packet_free_.back();
    packet_free_.pop_back();
    packet_slab_[slot] = std::move(p);
    return slot;
  }
  packet_slab_.push_back(std::move(p));
  return static_cast<uint32_t>(packet_slab_.size() - 1);
}

void SimWorld::release_packet_slot(uint32_t slot) { packet_free_.push_back(slot); }

void SimWorld::send_from(ProcessId from, Packet p) {
  assert(p.to != kNilId && "send without destination");
  meter_.count(p.kind);
  if (blocked(from, p.to)) {
    held_[channel_key(from, p.to)].push_back(std::move(p));
    return;
  }
  route(from, std::move(p));
}

void SimWorld::send_background_wave(ProcessId from, const std::vector<ProcessId>& targets,
                                    uint32_t kind) {
  assert(bg_sink_ && background_kind(kind) && "wave needs a sink and a background kind");
  // One batched meter update for the whole fan (every target is metered,
  // held and fault-dropped ones included, exactly as the per-target loop
  // did).
  meter_.count_n(kind, targets.size());
  uint32_t slot = UINT32_MAX;
  for (ProcessId to : targets) {
    if (blocked(from, to)) {
      // Held traffic re-enters the ordinary packet path on heal.
      held_[channel_key(from, to)].push_back(Packet{from, to, kind, {}});
      continue;
    }
    if (faults_.any()) {
      // Per-target draws, same (loss, reorder, dup) order as the unary
      // fast path.  A reordered target detaches from the shared wave and
      // gets its own jittered arrival; a duplicated one rides the wave
      // and additionally lands a late extra copy.
      if (faults_.loss_permille && rng_.chance(faults_.loss_permille, 1000)) continue;
      if (faults_.reorder_permille && rng_.chance(faults_.reorder_permille, 1000)) {
        Tick d = delays_.min_delay +
                 rng_.below(delays_.max_delay - delays_.min_delay + 1) + 1 +
                 rng_.below(faults_.reorder_slack);
        push_event(now_ + d, EventKind::kBgPacket, to,
                   (static_cast<uint64_t>(from) << 32) | kind | kPerturbedBit);
        continue;
      }
      if (faults_.dup_permille && rng_.chance(faults_.dup_permille, 1000)) {
        Tick d = delays_.min_delay +
                 rng_.below(delays_.max_delay - delays_.min_delay + 1) + 1 +
                 rng_.below(faults_.reorder_slack + 1);
        push_event(now_ + d, EventKind::kBgPacket, to,
                   (static_cast<uint64_t>(from) << 32) | kind | kPerturbedBit);
      }
    }
    if (slot == UINT32_MAX) {
      if (!wave_free_.empty()) {
        slot = wave_free_.back();
        wave_free_.pop_back();
        wave_slab_[slot].clear();
      } else {
        slot = static_cast<uint32_t>(wave_slab_.size());
        wave_slab_.emplace_back();
      }
    }
    wave_slab_[slot].push_back(to);
  }
  if (slot == UINT32_MAX) return;  // everything held (or no targets)
  Tick delay = delays_.min_delay + rng_.below(delays_.max_delay - delays_.min_delay + 1);
  push_event(now_ + delay, EventKind::kBgWave, slot,
             (static_cast<uint64_t>(from) << 32) | kind);
}

void SimWorld::send_background_packet(ProcessId from, ProcessId to, uint32_t kind) {
  assert(background_kind(kind) && "fast path is for background kinds only");
  meter_.count(kind);
  if (blocked(from, to)) {
    // Held traffic must survive to heal in FIFO order alongside protocol
    // packets; the Packet deque already does that, and an empty payload
    // keeps this allocation-free modulo deque growth.
    held_[channel_key(from, to)].push_back(Packet{from, to, kind, {}});
    return;
  }
  Tick delay = delays_.min_delay + rng_.below(delays_.max_delay - delays_.min_delay + 1);
  bool reordered = false;
  bool dup = false;
  if (faults_.any()) {
    // Fixed draw order (loss, reorder, dup) so one seed names one fault
    // pattern; with the model all-zero no draw happens and the RNG stream
    // is identical to a fault-free build.
    if (faults_.loss_permille && rng_.chance(faults_.loss_permille, 1000)) return;
    if (faults_.reorder_permille && rng_.chance(faults_.reorder_permille, 1000)) {
      reordered = true;
      delay += 1 + rng_.below(faults_.reorder_slack);
    }
    dup = faults_.dup_permille != 0 && rng_.chance(faults_.dup_permille, 1000);
  }
  Tick when = now_ + delay;
  if (!reordered) {
    // Reordered frames skip the FIFO clamp (that is the reorder) and do
    // not advance the channel front, so later frames can overtake them.
    Tick& front = channel_front(from, to);
    if (when <= front) when = front + 1;
    front = when;
  }
  push_event(when, EventKind::kBgPacket, to,
             (static_cast<uint64_t>(from) << 32) | kind |
                 (reordered ? kPerturbedBit : 0));
  if (dup) {
    Tick extra = delays_.min_delay +
                 rng_.below(delays_.max_delay - delays_.min_delay + 1) + 1 +
                 rng_.below(faults_.reorder_slack + 1);
    push_event(now_ + extra, EventKind::kBgPacket, to,
               (static_cast<uint64_t>(from) << 32) | kind | kPerturbedBit);
  }
}

void SimWorld::route(ProcessId from, Packet p) {
  Tick delay = delays_.min_delay + rng_.below(delays_.max_delay - delays_.min_delay + 1);
  Tick when = now_ + delay;
  // FIFO per channel: never deliver before a previously sent message.
  Tick& front = channel_front(from, p.to);
  if (when <= front) when = front + 1;
  front = when;
  if (!background_kind(p.kind)) ++fg_pending_;
  push_event(when, EventKind::kDeliver, acquire_packet_slot(std::move(p)));
}

void SimWorld::deliver(uint32_t slot) {
  Packet p = std::move(packet_slab_[slot]);
  release_packet_slot(slot);  // before on_packet: nested sends may reuse it
  Node* n = node_of(p.to);
  if (n && !n->is_crashed) {  // quit_p: messages to a crashed process vanish
    n->actor->on_packet(*n, p);
  }
  // Hand the payload back to the codec pool: decode produced views into it,
  // never owning copies, so nothing references these bytes past on_packet.
  recycle_buffer(std::move(p.bytes));
}

void SimWorld::dispatch(Event ev) {
  switch (ev.kind) {
    case EventKind::kDeliver:
      if (!background_kind(packet_slab_[ev.a].kind)) --fg_pending_;
      deliver(ev.a);
      break;
    case EventKind::kTimer: {
      TimerSlot& t = timer_slots_[ev.a];
      if (!t.armed || t.gen != ev.gen) return;  // cancelled (or slot recycled)
      const ProcessId owner = t.owner;
      Node* n = node_of(owner);
      auto fn = release_timer_slot(ev.a);
      // Crashed owners take no further steps; the slot is reclaimed either
      // way, so cancelled-then-crashed timers cannot accumulate state.
      // Environment timers (owner == kNilId) have no process to crash and
      // always fire.
      if (owner == kNilId || (n && !n->is_crashed)) fn();
      break;
    }
    case EventKind::kCrash:
      --fg_pending_;
      do_crash(ev.a);
      break;
    case EventKind::kScript: {
      --fg_pending_;
      auto fn = std::move(script_slab_[ev.a]);
      script_slab_[ev.a] = nullptr;
      script_free_.push_back(ev.a);
      fn();
      break;
    }
    case EventKind::kBgPacket: {
      Node* n = node_of(ev.a);
      if (!n || n->is_crashed) return;  // destination quit: traffic vanishes
      // A fault-injected copy landing after apparent quiescence is
      // foreground work for the quiescence question: it re-opens the
      // protocol-idle settle window (see run_until_protocol_idle).
      if (ev.gen & kPerturbedBit) quiesce_dirty_ = true;
      bg_sink_(static_cast<ProcessId>((ev.gen & ~kPerturbedBit) >> 32), ev.a,
               static_cast<uint32_t>(ev.gen));
      break;
    }
    case EventKind::kBgWave: {
      const ProcessId from = static_cast<ProcessId>(ev.gen >> 32);
      const uint32_t kind = static_cast<uint32_t>(ev.gen);
      // Re-index per iteration instead of caching a reference: a sink may
      // send (a nested send_background_wave can grow the slab and move it).
      // The slot is only released after the walk, so a nested wave always
      // lands in a different slot.
      const size_t fan_size = wave_slab_[ev.a].size();
      for (size_t i = 0; i < fan_size; ++i) {
        const ProcessId to = wave_slab_[ev.a][i];
        Node* n = node_of(to);
        if (!n || n->is_crashed) continue;  // destination quit: vanishes
        bg_sink_(from, to, kind);
      }
      wave_free_.push_back(ev.a);
      break;
    }
  }
}

bool SimWorld::live_foreground(const Event& e) const {
  switch (e.kind) {
    case EventKind::kDeliver:
      return !background_kind(packet_slab_[e.a].kind);
    case EventKind::kTimer: {
      const TimerSlot& t = timer_slots_[e.a];
      return t.armed && t.gen == e.gen && !t.background;
    }
    case EventKind::kCrash:
    case EventKind::kScript:
      return true;
    case EventKind::kBgPacket:
    case EventKind::kBgWave:
      return false;
  }
  return true;
}

void SimWorld::discard_elided(const Event& e) {
  switch (e.kind) {
    case EventKind::kDeliver: {
      // A background-kind packet that went through the ordinary slab path
      // (held across a partition, then healed): replay its in-flight
      // arrival, then recycle the payload and free the slot, exactly as a
      // delivery would.
      Packet& p = packet_slab_[e.a];
      if (elision_sink_) elision_sink_(p.from, p.to, p.kind, e.time);
      recycle_buffer(std::move(p.bytes));
      p.bytes.clear();
      release_packet_slot(e.a);
      break;
    }
    case EventKind::kTimer: {
      TimerSlot& t = timer_slots_[e.a];
      // Live background timers are released without firing — the skip hook
      // owns re-establishing any cadence they carried.  Stale entries
      // (cancelled, or slot recycled) own nothing.
      if (t.armed && t.gen == e.gen) release_timer_slot(e.a);
      break;
    }
    case EventKind::kBgPacket:
      if (elision_sink_) {
        elision_sink_(static_cast<ProcessId>((e.gen & ~kPerturbedBit) >> 32), e.a,
                      static_cast<uint32_t>(e.gen), e.time);
      }
      break;
    case EventKind::kBgWave: {
      if (elision_sink_) {
        const ProcessId from = static_cast<ProcessId>(e.gen >> 32);
        const uint32_t kind = static_cast<uint32_t>(e.gen);
        for (ProcessId to : wave_slab_[e.a]) elision_sink_(from, to, kind, e.time);
      }
      wave_free_.push_back(e.a);
      break;
    }
    case EventKind::kCrash:
    case EventKind::kScript:
      break;  // foreground kinds never reach here
  }
}

bool SimWorld::try_skip() {
  if (!horizon_fn_ || front_heap() != &queue_) return false;
  if (live_foreground(queue_.front())) return false;
  const Tick front_time = queue_.front().time;
  // The skip frontier: the background layer's earliest-effect horizon caps
  // it, and scripted faults / live protocol work pin it.  Scripts and
  // crashes are all live, so the script heap's front is their earliest
  // deadline; the main heap is scanned for the earliest live delivery or
  // timer.  The horizon is queried first, so an answer at or before the
  // queue front fails out before paying the O(queue) scan.  A timeout
  // detector never answers below its next wave tick, and returns that
  // floor as soon as one pair pins it — as unsteady pairs do under storm
  // delays or a live fault axis — so such spans still take small skips up
  // to the next wave rather than failing out.
  Tick target = horizon_fn_(now_);
  if (target <= front_time) return false;
  Tick fg_next = scripts_.empty() ? kNeverTick : scripts_.front().time;
  for (const Event& e : queue_) {
    if (e.time < fg_next && live_foreground(e)) fg_next = e.time;
  }
  if (fg_next < target) target = fg_next;
  if (target <= front_time || target == kNeverTick) return false;
  // Elide every event strictly before the frontier.  target <= fg_next, so
  // none of them is live foreground: pop them off the heap front in (tick,
  // seq) order — the order a skip-free run would dispatch them in, which
  // the elision sink's replays rely on — at O(elided · log q), leaving the
  // rest of the heap untouched.  Events *at* the frontier keep their seq
  // order with whatever fires there.
  const Tick from = now_;
  uint64_t elided = 0;
  while (!queue_.empty() && queue_.front().time < target) {
    const Event e = queue_.front();
    std::pop_heap(queue_.begin(), queue_.end(), EventCmp{});
    queue_.pop_back();
    assert(!live_foreground(e) && "a skip never elides foreground work");
    // Stale cancelled-timer entries are dropped too but not counted:
    // skipped_events() reports *background events elided*, and a stale
    // entry would have been a no-op pop either way.
    const bool stale_timer =
        e.kind == EventKind::kTimer &&
        !(timer_slots_[e.a].armed && timer_slots_[e.a].gen == e.gen);
    discard_elided(e);
    if (!stale_timer) ++elided;
  }
  now_ = target;
  ++skips_;
  skipped_events_ += elided;
  skipped_ticks_ += target - from;
  if (skip_hook_) skip_hook_(from, target);
  return true;
}

std::string SimWorld::pending_summary() const {
  size_t fg_deliver = 0, bg_events = 0, crashes = 0, scripts = 0, stale = 0;
  size_t live_timers = 0;
  for (const Event& e : scripts_) {
    if (e.kind == EventKind::kCrash) ++crashes;
    else ++scripts;
  }
  for (const Event& e : queue_) {
    switch (e.kind) {
      case EventKind::kDeliver:
        if (background_kind(packet_slab_[e.a].kind)) ++bg_events;
        else ++fg_deliver;
        break;
      case EventKind::kTimer: {
        const TimerSlot& t = timer_slots_[e.a];
        if (t.armed && t.gen == e.gen) ++live_timers;
        else ++stale;
        break;
      }
      case EventKind::kCrash:
      case EventKind::kScript: break;  // on the script heap
      case EventKind::kBgPacket:
      case EventKind::kBgWave: ++bg_events; break;
    }
  }
  std::string out = "pending at t=" + std::to_string(now_) + ": " +
                    std::to_string(fg_deliver) + " protocol deliveries, " +
                    std::to_string(scripts) + " scripts, " + std::to_string(crashes) +
                    " crashes, " + std::to_string(live_timers) + " live timers, " +
                    std::to_string(bg_events) + " background events, " +
                    std::to_string(stale) + " stale timer entries";
  for (uint32_t slot = 0; slot < timer_slots_.size(); ++slot) {
    const TimerSlot& t = timer_slots_[slot];
    if (!t.armed) continue;
    out += "; armed ";
    out += t.background ? "background" : "foreground";
    out += " timer owner=";
    out += t.owner == kNilId ? "environment" : std::to_string(t.owner);
  }
  return out;
}

bool SimWorld::step() {
  std::vector<Event>* heap = front_heap();
  if (!heap) return false;
  Event ev = heap->front();
  std::pop_heap(heap->begin(), heap->end(), EventCmp{});
  heap->pop_back();
  assert(ev.time >= now_ && "time went backwards");
  now_ = ev.time;
  dispatch(ev);
  return true;
}

bool SimWorld::run_until_idle(uint64_t max_events) {
  for (uint64_t i = 0; i < max_events; ++i) {
    if (!step()) return true;
  }
  return queue_.empty() && scripts_.empty();
}

bool SimWorld::run_until_protocol_idle(Tick settle, uint64_t max_events) {
  uint64_t steps = 0;
  for (;;) {
    // Drain foreground work (protocol deliveries, scripts, crashes, plain
    // timers), fast-forwarding across pure-background spans between them —
    // a scripted fault thousands of ticks out no longer costs every ping
    // wave in between.  Stale cancelled-timer heap entries are not counted
    // in fg_pending_, so the counter reaching zero really means only
    // detector upkeep is left.
    while (fg_pending_ > 0) {
      if (steps >= max_events) return false;
      if (try_skip()) continue;
      ++steps;
      if (!step()) return true;
    }
    if (queue_.empty() && scripts_.empty()) return true;
    // Only background events remain.  A horizon-capable background layer
    // answers the quiescence question exactly: kNeverTick certifies that
    // no detection can ever fire (protocol idle now — the remaining upkeep
    // is noise), and a finite future horizon is jumped to and stepped,
    // whereupon the detection either fires (fresh foreground work re-opens
    // the drain) or the horizon moves out.  Under storm delays the timeout
    // detectors answer their next wave tick, so this loop advances wave by
    // wave.  A horizon at `now` means "unknown; anything could fire" (the
    // default implementation, or a timeout detector whose wave is due this
    // very tick) — fall through to the legacy settle window, which is
    // exactly how skip-free runs conclude.
    if (horizon_fn_) {
      const Tick h = horizon_fn_(now_);
      if (h == kNeverTick) return true;
      if (h > now_) {
        if (try_skip()) continue;
        if (steps >= max_events) return false;
        ++steps;
        step();
        continue;
      }
    }
    // Settle-window criterion: advance through background events for a
    // full settle window; any detection that is already inevitable (a peer
    // whose silence exceeds the timeout) fires within it and re-opens the
    // drain.  A *death* inside the window also re-opens it — a process can
    // quit from a background timeout (lost majority) without emitting a
    // single foreground event, and noticing the fresh silence takes
    // detectors another full timeout.
    quiesce_dirty_ = false;
    const Tick deadline = now_ + settle;
    bool busy = false;
    while (next_event_time() <= deadline && !busy) {
      if (steps++ >= max_events) return false;
      step();
      busy = fg_pending_ > 0 || quiesce_dirty_;
    }
    if (!busy) return true;
  }
}

void SimWorld::run_until(Tick t) {
  while (next_event_time() <= t && step()) {
  }
  if (now_ < t) now_ = t;
}

}  // namespace gmpx::sim
