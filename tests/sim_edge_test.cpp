// SimWorld edge-semantics coverage beyond sim_test.cpp: interactions of
// crashes with partitions (held traffic), deterministic same-tick FIFO
// tie-breaking, crash_at racing at() scripts, and mid-run delay swaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "harness/cluster.hpp"
#include "sim/world.hpp"

using namespace gmpx;
using sim::DelayModel;
using sim::SimWorld;

namespace {

struct Probe : Actor {
  std::vector<Packet> received;
  std::function<void(Context&, const Packet&)> on_recv;
  void on_packet(Context& ctx, const Packet& p) override {
    received.push_back(p);
    if (on_recv) on_recv(ctx, p);
  }
};

Packet make(ProcessId to, uint8_t tag = 0) { return Packet{kNilId, to, 9, {tag}}; }

}  // namespace

// ---------------------------------------------------------------------------
// Crash x partition interactions
// ---------------------------------------------------------------------------

TEST(SimEdge, HeldMessagesToProcessCrashedDuringPartitionVanishOnHeal) {
  // quit_p: messages to a crashed process vanish — even messages that were
  // sitting in a partitioned channel when the crash happened.
  SimWorld w(1, DelayModel{1, 4});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  w.partition({0}, {1});
  w.at(1, [&] {
    for (uint8_t i = 0; i < 3; ++i) w.context_of(0)->send(make(1, i));
  });
  w.crash_at(50, 1);  // destination dies while the traffic is held
  w.at(100, [&] { w.heal_partition(); });
  ASSERT_TRUE(w.run_until_idle());
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(w.crashed(1));
}

TEST(SimEdge, HeldMessagesFromProcessCrashedDuringPartitionStillDeliver) {
  // The dual: a sender's crash never retracts its past sends.  Traffic held
  // by the cut outlives the sender and lands after healing.
  SimWorld w(1, DelayModel{1, 4});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  w.partition({0}, {1});
  w.at(1, [&] {
    for (uint8_t i = 0; i < 3; ++i) w.context_of(0)->send(make(1, i));
  });
  w.crash_at(50, 0);  // sender dies; its held messages must survive
  w.at(100, [&] { w.heal_partition(); });
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(b.received.size(), 3u);
  for (uint8_t i = 0; i < 3; ++i) EXPECT_EQ(b.received[i].bytes[0], i);
}

TEST(SimEdge, CrashInsidePartitionDropsPendingTimers) {
  SimWorld w(1);
  Probe a, b;
  int fired = 0;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  w.at(1, [&] { w.context_of(0)->set_timer(500, [&] { ++fired; }); });
  w.partition({0}, {1});
  w.crash_at(100, 0);  // crash while cut off: local timers still die with it
  ASSERT_TRUE(w.run_until_idle());
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(w.alive(), (std::vector<ProcessId>{1}));
}

// ---------------------------------------------------------------------------
// Same-tick event ordering
// ---------------------------------------------------------------------------

TEST(SimEdge, SameTickEventsRunInSchedulingOrder) {
  // Events with equal timestamps execute in the order they were scheduled
  // (seq tie-break), not in any container-dependent order.
  SimWorld w(1);
  Probe a;
  w.add_actor(0, &a);
  w.start();
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    w.at(42, [&order, i] { order.push_back(i); });
  }
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimEdge, ZeroDelayChannelPreservesSendOrder) {
  // DelayModel{0,0} can deliver in the sending tick; FIFO must still hold.
  SimWorld w(1, DelayModel{0, 0});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  w.at(5, [&] {
    for (uint8_t i = 0; i < 20; ++i) w.context_of(0)->send(make(1, i));
  });
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(b.received.size(), 20u);
  for (uint8_t i = 0; i < 20; ++i) EXPECT_EQ(b.received[i].bytes[0], i);
}

// ---------------------------------------------------------------------------
// crash_at racing at()
// ---------------------------------------------------------------------------

TEST(SimEdge, CrashAtBeforeScriptAtSameTickWinsTheRace) {
  // crash_at(t) scheduled before at(t): the crash executes first (seq
  // order), so the script observes a dead process.
  SimWorld w(1);
  Probe a;
  w.add_actor(0, &a);
  w.start();
  bool script_saw_alive = false;
  w.crash_at(10, 0);
  w.at(10, [&] { script_saw_alive = w.context_of(0) != nullptr; });
  ASSERT_TRUE(w.run_until_idle());
  EXPECT_FALSE(script_saw_alive);
  EXPECT_TRUE(w.crashed(0));
}

TEST(SimEdge, ScriptAtBeforeCrashAtSameTickSendsSuccessfully) {
  // The reverse registration order: the script runs first and its send is
  // already in flight when the crash lands — so it still delivers (message
  // *from* a crashed process).
  SimWorld w(1, DelayModel{5, 5});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  w.at(10, [&] {
    if (Context* c = w.context_of(0)) c->send(make(1, 7));
  });
  w.crash_at(10, 0);
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].bytes[0], 7);
}

// ---------------------------------------------------------------------------
// Mid-run delay swaps (scenario delay storms)
// ---------------------------------------------------------------------------

TEST(SimEdge, SetDelaysAffectsOnlySubsequentSends) {
  SimWorld w(1, DelayModel{1, 1});
  Probe a, b;
  std::vector<Tick> recv_at;
  struct Recorder : Actor {
    std::vector<Tick>* out;
    void on_packet(Context& ctx, const Packet&) override { out->push_back(ctx.now()); }
  } rec;
  rec.out = &recv_at;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.add_actor(2, &rec);
  w.start();
  w.at(10, [&] { w.context_of(0)->send(make(2, 0)); });   // 1-tick delay
  w.at(20, [&] { w.set_delays(DelayModel{100, 100}); });
  w.at(30, [&] { w.context_of(0)->send(make(2, 1)); });   // 100-tick delay
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(recv_at.size(), 2u);
  EXPECT_EQ(recv_at[0], 11u);
  EXPECT_EQ(recv_at[1], 130u);
  EXPECT_EQ(w.delays().min_delay, 100u);
}

TEST(SimEdge, DelaySwapKeepsChannelFifo) {
  // A slow message sent under storm delays must not be overtaken by a fast
  // message sent after the storm ends (FIFO per channel).
  SimWorld w(1, DelayModel{200, 200});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  w.at(10, [&] { w.context_of(0)->send(make(1, 0)); });  // lands ~210
  w.at(20, [&] { w.set_delays(DelayModel{1, 1}); });
  w.at(30, [&] { w.context_of(0)->send(make(1, 1)); });  // would land ~31
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].bytes[0], 0);
  EXPECT_EQ(b.received[1].bytes[0], 1);
}

TEST(SimEdge, RepeatedDelaySwapsMidFlightKeepFifoPerChannel) {
  // A full storm schedule: the delay model flips several times while a
  // burst is in flight on the same channel.  Whatever the draws, arrival
  // order must equal send order.
  SimWorld w(99, DelayModel{1, 8});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  const DelayModel storms[] = {{300, 300}, {1, 1}, {50, 120}, {0, 0}, {7, 7}};
  for (uint8_t i = 0; i < 20; ++i) {
    w.at(10 + 5 * i, [&w, i, &storms] {
      w.set_delays(storms[i % 5]);
      w.context_of(0)->send(make(1, i));
    });
  }
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(b.received.size(), 20u);
  for (uint8_t i = 0; i < 20; ++i) EXPECT_EQ(b.received[i].bytes[0], i);
}

// ---------------------------------------------------------------------------
// Partition hold / heal ordering
// ---------------------------------------------------------------------------

TEST(SimEdge, HealReleasesChannelsInFromToOrder) {
  // Held traffic releases channel by channel in ascending (from, to) order
  // — the documented deterministic heal order.  With a zero-delay model the
  // FIFO bump schedules each channel's packets at heal, heal+1, ...; ties
  // resolve by scheduling seq, so (0,1)'s k-th packet always lands before
  // (0,2)'s k-th packet — even though the sends happened in the opposite
  // order.
  SimWorld w(5, DelayModel{0, 0});
  Probe a, b, c;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.add_actor(2, &c);
  std::vector<std::pair<ProcessId, uint8_t>> arrivals;
  b.on_recv = [&](Context&, const Packet& p) { arrivals.push_back({1, p.bytes[0]}); };
  c.on_recv = [&](Context&, const Packet& p) { arrivals.push_back({2, p.bytes[0]}); };
  w.start();
  w.partition({0}, {1, 2});
  w.at(1, [&] {
    Context* ctx = w.context_of(0);
    ctx->send(make(2, 20));  // held on (0,2) first...
    ctx->send(make(2, 21));
    ctx->send(make(1, 10));  // ...then (0,1)
    ctx->send(make(1, 11));
  });
  w.at(50, [&] { w.heal_partition(); });
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(arrivals.size(), 4u);
  // Per delivery wave, channel (0,1) precedes (0,2); FIFO holds per channel.
  EXPECT_EQ(arrivals[0], (std::pair<ProcessId, uint8_t>{1, 10}));
  EXPECT_EQ(arrivals[1], (std::pair<ProcessId, uint8_t>{2, 20}));
  EXPECT_EQ(arrivals[2], (std::pair<ProcessId, uint8_t>{1, 11}));
  EXPECT_EQ(arrivals[3], (std::pair<ProcessId, uint8_t>{2, 21}));
}

TEST(SimEdge, HeldPacketsAreMeteredExactlyOnce) {
  // Held traffic was metered at send time; healing must not re-count it
  // (the double-metering would skew every complexity bench run under
  // partitions).
  SimWorld w(1, DelayModel{1, 4});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  w.partition({0}, {1});
  w.at(1, [&] {
    for (uint8_t i = 0; i < 5; ++i) w.context_of(0)->send(make(1, i));
  });
  w.at(100, [&] { w.heal_partition(); });
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(b.received.size(), 5u);  // all delivered...
  EXPECT_EQ(w.meter().total(), 5u);  // ...and counted once each
  EXPECT_EQ(w.meter().of_kind(9), 5u);
}

TEST(SimEdge, PartitionDeclaredBeforeStartStillBlocks) {
  // The flat channel matrices are sized at start(); cuts declared earlier
  // must survive that transition.
  SimWorld w(1, DelayModel{1, 2});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.partition({0}, {1});  // before start()
  w.start();
  w.at(1, [&] { w.context_of(0)->send(make(1, 3)); });
  w.run_until(500);
  EXPECT_TRUE(b.received.empty());  // held
  w.at(501, [&] { w.heal_partition(); });
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].bytes[0], 3);
}

// ---------------------------------------------------------------------------
// Timer cancel / crash interleavings (generation-counter slab)
// ---------------------------------------------------------------------------

TEST(SimEdge, CancelThenCrashLeavesNoPendingWork) {
  // A timer cancelled before its owner crashes must be fully reclaimed:
  // the world still quiesces and nothing fires.
  SimWorld w(1);
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  int fired = 0;
  w.at(1, [&] {
    Context* c = w.context_of(0);
    TimerId t = c->set_timer(10'000, [&] { ++fired; });
    c->cancel_timer(t);
  });
  w.crash_at(5, 0);
  ASSERT_TRUE(w.run_until_idle());
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(w.crashed(0));
}

TEST(SimEdge, StaleTimerIdNeverCancelsARecycledSlot) {
  // cancel(t1) after t1 already resolved must not kill an unrelated,
  // later-armed timer even if the slab recycled t1's slot.
  SimWorld w(1);
  Probe a;
  w.add_actor(0, &a);
  w.start();
  int first = 0, second = 0;
  TimerId t1 = 0;
  w.at(1, [&] {
    Context* c = w.context_of(0);
    t1 = c->set_timer(5, [&] { ++first; });
    c->cancel_timer(t1);  // slot freed, generation bumped
  });
  w.at(10, [&] {
    Context* c = w.context_of(0);
    c->set_timer(5, [&] { ++second; });  // may reuse t1's slot
    c->cancel_timer(t1);                 // stale id: must be a no-op
  });
  ASSERT_TRUE(w.run_until_idle());
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(SimEdge, CancelInsideTimerCallbackAffectsOnlyPendingTimers) {
  // A firing callback cancelling (a) itself — no-op — and (b) a sibling
  // armed for later — effective.
  SimWorld w(1);
  Probe a;
  w.add_actor(0, &a);
  w.start();
  int self_fired = 0, sibling_fired = 0;
  TimerId self_id = 0, sibling_id = 0;
  w.at(1, [&] {
    Context* c = w.context_of(0);
    sibling_id = c->set_timer(100, [&] { ++sibling_fired; });
    self_id = c->set_timer(10, [&] {
      ++self_fired;
      Context* cc = w.context_of(0);
      cc->cancel_timer(self_id);     // already fired: no-op
      cc->cancel_timer(sibling_id);  // pending: cancelled
    });
  });
  ASSERT_TRUE(w.run_until_idle());
  EXPECT_EQ(self_fired, 1);
  EXPECT_EQ(sibling_fired, 0);
}

TEST(SimEdge, CrashBetweenArmAndFireSwallowsTimer) {
  // crash(t) lands between arm and expiry (same slot still armed): the
  // callback must not run, and re-registered processes are unaffected.
  SimWorld w(1);
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  int fired0 = 0, fired1 = 0;
  w.at(1, [&] { w.context_of(0)->set_timer(100, [&] { ++fired0; }); });
  w.at(2, [&] { w.context_of(1)->set_timer(100, [&] { ++fired1; }); });
  w.crash_at(50, 0);
  ASSERT_TRUE(w.run_until_idle());
  EXPECT_EQ(fired0, 0);
  EXPECT_EQ(fired1, 1);
}

// ---------------------------------------------------------------------------
// Meter flat array + overflow
// ---------------------------------------------------------------------------

TEST(SimEdge, MeterCountsOutOfRangeKindsViaOverflow) {
  SimWorld w(1);
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  w.at(1, [&] {
    Context* c = w.context_of(0);
    c->send(Packet{0, 1, 63, {0}});    // last inline kind
    c->send(Packet{0, 1, 64, {0}});    // first overflow kind
    c->send(Packet{0, 1, 9000, {0}});  // far overflow
    c->send(Packet{0, 1, 9000, {0}});
  });
  ASSERT_TRUE(w.run_until_idle());
  EXPECT_EQ(w.meter().total(), 4u);
  EXPECT_EQ(w.meter().of_kind(63), 1u);
  EXPECT_EQ(w.meter().of_kind(64), 1u);
  EXPECT_EQ(w.meter().of_kind(9000), 2u);
  EXPECT_EQ(w.meter().in_kind_range(60, 70), 2u);    // straddles the boundary
  EXPECT_EQ(w.meter().in_kind_range(0, 10'000), 4u);
  w.meter().reset();
  EXPECT_EQ(w.meter().of_kind(9000), 0u);
  EXPECT_EQ(w.meter().total(), 0u);
}

// ---------------------------------------------------------------------------
// Virtual-time fast-forward (the skip engine)
//
// These tests drive try_skip()/run_until_protocol_idle with a hand-rolled
// background layer (an environment cadence timer + a horizon provider +
// a skip hook), pinning the contract each production layer must honor:
// foreground events pin the frontier exactly, elided cadences are the
// hook's to re-establish, and held (partitioned) traffic survives skips.
// ---------------------------------------------------------------------------

namespace {

/// Minimal background layer for skip tests: an environment-owned cadence
/// timer that sends one background ping 0 -> 1 per period, re-arming
/// itself; the skip hook re-establishes the cadence phase-preserved, as
/// the heartbeat detector does.
struct TestCadence {
  SimWorld* w;
  Tick period;
  Tick next = 0;
  std::vector<Tick> fired{};  ///< tick of every cadence beat that really ran
  std::function<void()> on_beat{};  ///< optional per-beat extra (a "detection")

  void arm(Tick delay) {
    next = w->now() + delay;
    w->set_environment_timer(delay, [this] { beat(); });
  }
  void beat() {
    fired.push_back(w->now());
    if (Context* c = w->context_of(0)) c->send_background(1, 20);
    if (on_beat) on_beat();
    arm(period);
  }
  /// Skip-hook body: phase-preserving re-arm if the pending beat was elided.
  void on_skip(Tick to) {
    if (next < to) {
      next += ((to - next + period - 1) / period) * period;
      w->set_environment_timer(next - to, [this] { beat(); });
    }
  }
};

}  // namespace

TEST(SimEdge, ScriptedCrashLandingOnSkipTargetStillFires) {
  // A scripted crash is the only foreground event; everything background
  // before it is elided in one jump and the crash still runs exactly at
  // its tick — the frontier pin is precise, not approximate.
  SimWorld w(1, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  int pings = 0;
  w.set_background_sink([&](ProcessId, ProcessId, uint32_t) { ++pings; });
  w.start();
  TestCadence cadence{&w, 50};
  cadence.arm(50);
  w.set_horizon_provider([](Tick) { return kNeverTick; });
  w.set_skip_hook([&](Tick, Tick to) { cadence.on_skip(to); });
  w.crash_at(1000, 1);
  ASSERT_TRUE(w.run_until_protocol_idle(/*settle=*/500));
  EXPECT_TRUE(w.crashed(1));
  EXPECT_EQ(w.now(), 1000u);        // landed exactly on the crash tick
  EXPECT_EQ(pings, 0);              // every pre-crash beat was elided
  EXPECT_TRUE(cadence.fired.empty());
  EXPECT_GE(w.skipped_ticks(), 950u);
  EXPECT_GE(w.skips(), 1u);
}

TEST(SimEdge, EnvironmentCadenceStraddlingSkipIsRearmedPhasePreserved) {
  // A cadence timer pending before the skip target is elided; the hook
  // re-arms it on the original phase, so the first post-skip beat lands on
  // a cadence tick, not an arbitrary offset.
  SimWorld w(1, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  w.set_background_sink([](ProcessId, ProcessId, uint32_t) {});
  w.start();
  TestCadence cadence{&w, 100};
  cadence.arm(100);  // beats at 100, 200, 300, ...
  w.set_horizon_provider([](Tick) { return kNeverTick; });
  w.set_skip_hook([&](Tick, Tick to) { cadence.on_skip(to); });
  w.at(250, [] {});  // the only foreground event, mid-phase
  ASSERT_TRUE(w.try_skip());
  EXPECT_EQ(w.now(), 250u);  // jumped to the script, not past it
  w.run_until(460);
  // The elided beats at 100 and 200 never ran; the cadence resumed at 300.
  ASSERT_EQ(cadence.fired.size(), 2u);
  EXPECT_EQ(cadence.fired[0], 300u);
  EXPECT_EQ(cadence.fired[1], 400u);
}

TEST(SimEdge, PartitionHealAsOnlyPreHorizonEventReleasesHeldBackground) {
  // Background traffic held by a partition lives outside the event queue,
  // so a skip over the cut must not discard it: the heal script (the only
  // foreground event) still releases it in FIFO order afterwards.
  SimWorld w(1, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  int fast_path = 0;
  w.set_background_sink([&](ProcessId, ProcessId, uint32_t) { ++fast_path; });
  w.start();
  w.partition({0}, {1});
  // Three pings into the cut: held as ordinary packets, not heap events.
  for (int i = 0; i < 3; ++i) w.context_of(0)->send_background(1, 20);
  w.set_horizon_provider([](Tick) { return kNeverTick; });
  w.set_environment_timer(100, [] {});  // a queued bg event to elide
  w.at(500, [&] { w.heal_partition(); });
  ASSERT_TRUE(w.try_skip());
  EXPECT_EQ(w.now(), 500u);
  EXPECT_EQ(fast_path, 0);
  w.run_until(600);  // heal runs at 500; releases the held pings
  ASSERT_EQ(b.received.size(), 3u);  // delivered as ordinary bg-kind packets
  for (const Packet& p : b.received) EXPECT_EQ(p.kind, 20u);
}

TEST(SimEdge, ProtocolIdleConcludesImmediatelyOnNeverHorizon) {
  // With a horizon provider certifying "nothing can ever fire", protocol
  // quiescence needs no settle window at all: the run concludes at the
  // last foreground event even though background events are still queued.
  SimWorld w(1, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  w.set_background_sink([](ProcessId, ProcessId, uint32_t) {});
  w.start();
  TestCadence cadence{&w, 100};
  cadence.arm(100);
  w.set_horizon_provider([](Tick) { return kNeverTick; });
  w.set_skip_hook([&](Tick, Tick to) { cadence.on_skip(to); });
  ASSERT_TRUE(w.run_until_protocol_idle(/*settle=*/10'000));
  EXPECT_EQ(w.now(), 0u);  // no settle grind: concluded before any beat
}

TEST(SimEdge, FiniteHorizonIsSteppedNotSkippedPast) {
  // A finite horizon is a detection candidate: the engine may elide up to
  // it but must execute the event that lands there (here the cadence beat
  // the horizon names), never jump beyond it.
  SimWorld w(1, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  w.set_background_sink([](ProcessId, ProcessId, uint32_t) {});
  w.start();
  TestCadence cadence{&w, 100};
  bool detected = false;
  // A real detection produces foreground work (the suspicion report); the
  // beat at the promised horizon models that with a script.
  cadence.on_beat = [&] {
    if (w.now() >= 1000 && !detected) {
      detected = true;
      w.at(w.now(), [] {});
    }
  };
  cadence.arm(100);
  // "Detection" possible at tick 1000; once it fired, the layer certifies
  // nothing can ever fire again.
  w.set_horizon_provider([&](Tick) -> Tick { return detected ? kNeverTick : 1000; });
  w.set_skip_hook([&](Tick, Tick to) { cadence.on_skip(to); });
  ASSERT_TRUE(w.run_until_protocol_idle(/*settle=*/10'000, /*max_events=*/100));
  // The beats at 100..900 were elided; the one at exactly 1000 — the
  // promised horizon — really ran and its detection concluded the run.
  EXPECT_TRUE(detected);
  ASSERT_EQ(cadence.fired.size(), 1u);
  EXPECT_EQ(cadence.fired.front(), 1000u);
  EXPECT_EQ(w.now(), 1000u);
}

TEST(SimEdge, SkipStateResetsWithTheWorld) {
  SimWorld w(1, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  w.set_background_sink([](ProcessId, ProcessId, uint32_t) {});
  w.start();
  TestCadence cadence{&w, 50};
  cadence.arm(50);
  w.set_horizon_provider([](Tick) { return kNeverTick; });
  w.at(400, [] {});
  ASSERT_TRUE(w.try_skip());
  EXPECT_GT(w.skipped_ticks(), 0u);
  EXPECT_GT(w.skipped_events(), 0u);
  w.reset(1);
  EXPECT_EQ(w.skipped_ticks(), 0u);
  EXPECT_EQ(w.skipped_events(), 0u);
  EXPECT_EQ(w.skips(), 0u);
  // The provider and hook were cleared too: with no horizon the engine
  // refuses to skip (legacy settle behaviour for unknown detectors).
  Probe c, d;
  w.add_actor(0, &c);
  w.add_actor(1, &d);
  w.start();
  w.at(300, [] {});
  EXPECT_FALSE(w.try_skip());
}

TEST(SimEdge, ElidedInFlightBackgroundArrivalsAreReplayedToTheSink) {
  // A background frame already in flight when a skip elides it was sent
  // before the span — a skip-free run still delivers it even if its
  // channel is cut (or its sender dies) after the send.  The elision sink
  // must therefore see every elided in-flight arrival with its original
  // arrival tick, so the background layer can replay the proof-of-life
  // refresh instead of firing a detection a skip-free run never fires.
  SimWorld w(1, DelayModel{10, 10});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  w.set_background_sink([](ProcessId, ProcessId, uint32_t) {});
  w.start();
  w.context_of(0)->send_background(1, 20);  // in flight, arrives at tick 10
  w.partition({0}, {1});                    // cut AFTER the send
  std::vector<std::tuple<ProcessId, ProcessId, uint32_t, Tick>> replayed;
  w.set_elision_sink([&](ProcessId from, ProcessId to, uint32_t kind, Tick when) {
    replayed.emplace_back(from, to, kind, when);
  });
  w.set_horizon_provider([](Tick) { return kNeverTick; });
  w.at(500, [] {});  // the only foreground event
  ASSERT_TRUE(w.try_skip());
  EXPECT_EQ(w.now(), 500u);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], (std::tuple<ProcessId, ProcessId, uint32_t, Tick>{0, 1, 20, 10}));
}

TEST(SimEdge, SkipReplaysElidedArrivalsInTickSeqOrderAndKeepsTheHeapOrdered) {
  // Batched waves ride outside the channel FIFO clamp, so sending them
  // under shrinking delays queues one pair's arrivals latest-first and
  // leaves the heap array out of time order.  A skip must still replay
  // them in (tick, seq) order — the order a skip-free run delivers them
  // in, which the φ inter-arrival ring depends on — and leave the events
  // past the frontier dispatching in (tick, seq) order.
  SimWorld w(1, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  std::vector<std::pair<Tick, int>> log;  ///< (tick, tag) of every dispatch
  w.set_background_sink(
      [&](ProcessId, ProcessId, uint32_t kind) { log.emplace_back(w.now(), kind); });
  w.start();
  const std::vector<ProcessId> fan{1};
  auto wave_in = [&](Tick delay, uint32_t kind) {
    w.set_delays(DelayModel{delay, delay});
    w.send_background_wave(0, fan, kind);
  };
  wave_in(650, 20);  // past the frontier
  wave_in(100, 20);
  wave_in(60, 20);
  wave_in(550, 20);  // past the frontier
  wave_in(20, 20);
  wave_in(30, 21);  // same tick as the next: seq decides
  wave_in(30, 20);
  Context& ctx0 = *w.context_of(0);
  ctx0.cancel_timer(ctx0.set_timer(40, [] { FAIL() << "cancelled timer fired"; }));
  w.set_environment_timer(70, [] { FAIL() << "elided background timer fired"; });
  for (Tick t : {700, 500, 600}) w.at(t, [&] { log.emplace_back(w.now(), 0); });
  std::vector<std::pair<Tick, uint32_t>> replayed;
  w.set_elision_sink([&](ProcessId from, ProcessId to, uint32_t kind, Tick when) {
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(to, 1u);
    replayed.emplace_back(when, kind);
  });
  w.set_horizon_provider([](Tick) { return kNeverTick; });

  ASSERT_TRUE(w.try_skip());
  EXPECT_EQ(w.now(), 500u);  // the first script pins the frontier
  const std::vector<std::pair<Tick, uint32_t>> want_replay{
      {20, 20}, {30, 21}, {30, 20}, {60, 20}, {100, 20}};
  EXPECT_EQ(replayed, want_replay);
  // Five waves and the live environment timer; the cancelled timer's stale
  // entry is dropped without counting.
  EXPECT_EQ(w.skipped_events(), 6u);
  EXPECT_TRUE(log.empty());

  w.run_until(1000);
  const std::vector<std::pair<Tick, int>> want_dispatch{
      {500, 0}, {550, 20}, {600, 0}, {650, 20}, {700, 0}};
  EXPECT_EQ(log, want_dispatch);
  EXPECT_EQ(w.queued_events(), 0u);
}

// ---------------------------------------------------------------------------
// Channel faults (loss / duplication / reordering) on background traffic
// ---------------------------------------------------------------------------

TEST(SimEdge, LossyChannelDropsBackgroundFramesButMetersThem) {
  // Lost frames vanish in flight, not at the sender: they are metered at
  // send time (the paper's model loses messages, not send operations).
  SimWorld w(5, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  int delivered = 0;
  w.set_background_sink([&](ProcessId, ProcessId, uint32_t) { ++delivered; });
  w.start();
  w.at(5, [&] {
    w.set_channel_faults({.loss_permille = 1000});
    for (int i = 0; i < 5; ++i) w.context_of(0)->send_background(1, 20);
  });
  ASSERT_TRUE(w.run_until_idle());
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(w.meter().of_kind(20), 5u);
}

TEST(SimEdge, ReorderedBackgroundFrameIsOvertakenByALaterSend) {
  // A reordered frame detaches from the channel FIFO: it neither advances
  // the channel front nor is clamped by it, so a frame sent *afterwards*
  // (fault-free) can land first — the one ordering violation the fault
  // model is allowed to produce, and only on background traffic.
  SimWorld w(3, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  std::vector<uint32_t> kinds;
  w.set_background_sink([&](ProcessId, ProcessId, uint32_t k) { kinds.push_back(k); });
  w.start();
  w.at(5, [&] {
    w.set_channel_faults({.reorder_permille = 1000, .reorder_slack = 300});
    w.context_of(0)->send_background(1, 20);  // reordered: lands at >= 7
    w.set_channel_faults({});
    w.context_of(0)->send_background(1, 21);  // FIFO path: lands at 6
  });
  ASSERT_TRUE(w.run_until_idle());
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], 21u);  // overtook the reordered frame
  EXPECT_EQ(kinds[1], 20u);
}

TEST(SimEdge, PerturbedDeliveriesReopenTheSettleWindow) {
  // run_until_protocol_idle's settle criterion declares quiescence after a
  // full window with no foreground work.  Duplicated/reordered background
  // copies are scheduled *outside* the channel FIFO, so a late copy can
  // land long after the original traffic went quiet — and its delivery can
  // still change detector state.  Every perturbed delivery must therefore
  // restart the window; without that, the run below concludes at the end
  // of the first window (<= 410) with late duplicates still in flight.
  SimWorld w(7, DelayModel{1, 1});
  Probe a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  std::vector<Tick> arrivals;
  w.set_background_sink([&](ProcessId, ProcessId, uint32_t) { arrivals.push_back(w.now()); });
  w.start();
  // A no-op upkeep cadence keeps the queue busy so the run concludes via
  // the settle criterion, as a detector-driven run does.
  std::function<void()> keepalive = [&] { w.set_environment_timer(100, keepalive); };
  w.set_environment_timer(100, keepalive);
  w.at(10, [&] {
    w.set_channel_faults({.dup_permille = 1000, .reorder_slack = 360});
    for (int i = 0; i < 8; ++i) w.context_of(0)->send_background(1, 20);
  });
  ASSERT_TRUE(w.run_until_protocol_idle(/*settle=*/400, /*max_events=*/10'000));
  // Every frame landed twice: the FIFO original plus a perturbed late copy.
  ASSERT_EQ(arrivals.size(), 16u);
  const Tick last = *std::max_element(arrivals.begin(), arrivals.end());
  ASSERT_GT(last, 110u);  // seed sanity: the latest copy outlives window one
  EXPECT_GT(w.now(), 410u);                 // did not conclude at window one
  EXPECT_GE(w.now(), last + 400 - 100);     // a full window after the last copy
}

// ---------------------------------------------------------------------------
// Per-pair storm horizons (heartbeat detector x skip engine)
// ---------------------------------------------------------------------------

TEST(SimEdge, BenignDelayStormSpanStillSkipsUnderPerPairHorizons) {
  // Regression for the storm-horizon collapse: the heartbeat layer used to
  // bail out globally ("horizon = now") whenever the ambient delay model
  // could make *some* refresh chain miss the timeout — so a long delayed-
  // but-benign span tick-ground even though no pair could ever be
  // suspected.  Steadiness is per pair now: with max_delay = 400 every
  // admitted pair's refresh chain (ceil(400/200)*200 = 400 <= 800) still
  // provably outpaces the timeout, so the span must fast-forward, and the
  // crash after the storm must still be detected normally.
  harness::ClusterOptions co;
  co.n = 5;
  co.seed = 4242;
  co.detector = fd::DetectorKind::kHeartbeat;
  harness::Cluster c(co);
  sim::SimWorld& w = c.world();
  w.at(100, [&w] { w.set_delays({1, 400}); });    // benign storm...
  w.at(20'000, [&w] { w.set_delays({1, 16}); });  // ...spanning 19'900 ticks
  c.crash_at(22'000, 4);
  c.start();
  ASSERT_TRUE(c.run_to_protocol_quiescence(5'000'000, /*worst_delay=*/400));
  auto res = c.check();
  EXPECT_TRUE(res.ok()) << res.message();
  EXPECT_EQ(c.node(0).view().size(), 4u);
  // The skip telemetry is the point: most of the storm span was elided.
  EXPECT_GT(w.skipped_ticks(), 15'000u);
  EXPECT_GT(w.skips(), 0u);
}
