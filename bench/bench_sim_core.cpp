// Micro-benchmarks for the layers perfbench's end-to-end workloads do not
// isolate: the raw throughput floor of SimWorld itself, apart from protocol
// logic — events/s through the heap, sends/s through the channel/packet
// machinery, timer arm/cancel churn, deep-queue skips — plus the codec and
// the schedule minimizer.  A regression in the event core stays visible
// here even when protocol costs move.  Not committed results: run locally,
// e.g. `./bench_sim_core --benchmark_min_time=0.05`.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "gmp/messages.hpp"
#include "scenario/executor.hpp"
#include "scenario/generator.hpp"
#include "scenario/minimizer.hpp"
#include "sim/world.hpp"

using namespace gmpx;
using sim::DelayModel;
using sim::SimWorld;

namespace {

/// Bounces every packet straight back until a hop budget runs out.  All
/// traffic is sim machinery: one send + one delivery per hop.
struct PingPong : Actor {
  uint64_t hops = 0;
  void on_packet(Context& ctx, const Packet& p) override {
    ++hops;
    if (p.bytes[0] == 0) return;
    ctx.send(Packet{ctx.self(), p.from, 9, {static_cast<uint8_t>(p.bytes[0] - 1)}});
  }
};

/// Re-arms a fresh timer every time one fires.
struct TimerChurn : Actor {
  uint64_t fired = 0;
  uint64_t rounds = 0;
  void on_start(Context& ctx) override { arm(ctx); }
  void on_packet(Context&, const Packet&) override {}
  void arm(Context& ctx) {
    if (fired >= rounds) return;
    ctx.set_timer(1, [this, &ctx] {
      ++fired;
      arm(ctx);
    });
  }
};

}  // namespace

/// Pure event-loop throughput: packets bouncing between n processes.
static void BM_SimCore_Events(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  uint64_t events = 0;
  for (auto _ : state) {
    SimWorld w(7, DelayModel{1, 16});
    std::vector<PingPong> actors(n);
    for (size_t i = 0; i < n; ++i) w.add_actor(static_cast<ProcessId>(i), &actors[i]);
    w.start();
    w.at(1, [&] {
      // 64 hops outstanding on every ordered pair, all racing.
      for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          w.context_of(static_cast<ProcessId>(i))
              ->send(Packet{static_cast<ProcessId>(i), static_cast<ProcessId>(j), 9, {64}});
        }
    });
    w.run_until_idle();
    for (const PingPong& a : actors) events += a.hops;
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimCore_Events)->Arg(4)->Arg(16);

/// Send-side machinery: metering, FIFO bookkeeping, packet slab recycling.
static void BM_SimCore_Sends(benchmark::State& state) {
  SimWorld w(7, DelayModel{1, 4});
  PingPong a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.start();
  uint64_t sends = 0;
  for (auto _ : state) {
    w.at(w.now() + 1, [&] {
      for (int i = 0; i < 256; ++i)
        w.context_of(0)->send(Packet{0, 1, 9, {0}});
    });
    w.run_until_idle();
    sends += 256;
  }
  state.counters["sends/s"] =
      benchmark::Counter(static_cast<double>(sends), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimCore_Sends);

/// Timer slab: arm -> fire -> re-arm chains (generation-counter path).
static void BM_SimCore_TimerChurn(benchmark::State& state) {
  uint64_t fired = 0;
  for (auto _ : state) {
    SimWorld w(7);
    TimerChurn t;
    t.rounds = 4096;
    w.add_actor(0, &t);
    w.start();
    w.run_until_idle();
    fired += t.fired;
  }
  state.counters["timers/s"] =
      benchmark::Counter(static_cast<double>(fired), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimCore_TimerChurn);

/// Timer cancellation: every timer armed is cancelled before it fires, so
/// the heap drains stale generation entries without running any callback.
static void BM_SimCore_TimerCancel(benchmark::State& state) {
  SimWorld w(7);
  PingPong a;
  w.add_actor(0, &a);
  w.start();
  uint64_t cancelled = 0;
  for (auto _ : state) {
    w.at(w.now() + 1, [&] {
      Context* c = w.context_of(0);
      for (int i = 0; i < 256; ++i) {
        TimerId t = c->set_timer(1000, [] {});
        c->cancel_timer(t);
      }
    });
    w.run_until_idle();
    cancelled += 256;
  }
  state.counters["cancels/s"] =
      benchmark::Counter(static_cast<double>(cancelled), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimCore_TimerCancel);

/// Skip engine cost per skip with N foreground scripts parked far past the
/// frontier (a soak run's queued client ops) and a background cadence each
/// skip elides: one environment beat timer plus one in-flight ping.  The
/// skip pops those two off the heap front, so the N-deep queue only enters
/// through the foreground-deadline scan; a rebuild of the whole heap per
/// skip would make the cost grow with N at a much steeper slope.
static void BM_SimCore_SkipDeepQueue(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SimWorld w(7, DelayModel{1, 1});
  PingPong a, b;
  w.add_actor(0, &a);
  w.add_actor(1, &b);
  w.set_background_kinds(20, 21);
  w.set_background_sink([](ProcessId, ProcessId, uint32_t) {});
  w.start();
  constexpr Tick kPeriod = 10;
  constexpr Tick kParked = Tick{1} << 50;  // far beyond any skip target
  for (size_t i = 0; i < n; ++i) w.at(kParked + i, [] {});
  const std::vector<ProcessId> fan{1};
  Tick next = kPeriod;
  std::function<void()> beat = [&] {
    w.send_background_wave(0, fan, 20);
    next = w.now() + kPeriod;
    w.set_environment_timer(kPeriod, beat);
  };
  w.set_environment_timer(kPeriod, beat);
  // Each skip jumps two and a half periods; the hook re-arms the beat on
  // its phase and puts a fresh ping in flight for the next skip to elide.
  w.set_horizon_provider([](Tick now) { return now + 2 * kPeriod + kPeriod / 2; });
  w.set_skip_hook([&](Tick, Tick to) {
    next += ((to - next + kPeriod - 1) / kPeriod) * kPeriod;
    w.set_environment_timer(next - to, beat);
    w.send_background_wave(0, fan, 20);
  });
  for (auto _ : state) {
    if (!w.try_skip()) {
      state.SkipWithError("skip refused");
      break;
    }
  }
  state.counters["queued"] = static_cast<double>(w.queued_events());
  state.counters["skips/s"] = benchmark::Counter(static_cast<double>(state.iterations()),
                                                 benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimCore_SkipDeepQueue)->Arg(64)->Arg(256)->Arg(1024);

/// Codec round-trip for the largest GMP message: a ViewTransfer carrying a
/// 16-member view and a 32-operation committed history (a joiner bootstrap
/// late in a churn-heavy run).  Exercises the arena-backed Writer (pooled
/// payload buffers) and the WireList decode views — the steady-state cycle
/// performs no allocation, and `bytes/s` prices the wire work itself.
static void BM_Codec_ViewTransferRoundTrip(benchmark::State& state) {
  gmp::ViewTransfer vt;
  for (ProcessId p = 0; p < 16; ++p) vt.members.push_back(p);
  vt.version = 32;
  for (uint32_t i = 0; i < 32; ++i) {
    vt.seq.push_back(SeqEntry{i % 3 ? Op::kRemove : Op::kAdd, i, i + 1});
  }
  vt.next_op = Op::kRemove;
  vt.next_target = 3;
  vt.faulty = {2, 5, 7};
  vt.recovered = {40, 41};
  uint64_t bytes = 0;
  for (auto _ : state) {
    Packet p = vt.to_packet(9);
    gmp::ViewTransferView v = gmp::ViewTransferView::decode(p);
    // Consume every field the joiner's handler would.
    uint64_t sum = v.version + v.members.size();
    for (ProcessId q : v.members) sum += q;
    for (const SeqEntry e : v.seq) sum += e.target + e.resulting_version;
    for (ProcessId q : v.faulty) sum += q;
    for (ProcessId q : v.recovered) sum += q;
    benchmark::DoNotOptimize(sum);
    bytes += p.bytes.size();
    recycle_buffer(std::move(p.bytes));  // what SimWorld::deliver does
  }
  state.counters["bytes/s"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Codec_ViewTransferRoundTrip);

/// Codec cost of a heartbeat ping: the empty-payload background frame.
/// Encode builds the packet the portable path ships (the simulator's wave
/// fast path skips even this); decode is the receiver's kind dispatch.
static void BM_Codec_HeartbeatPing(benchmark::State& state) {
  uint64_t pings = 0;
  for (auto _ : state) {
    Packet p{1, 2, gmp::kind::kHeartbeat, {}};
    Reader r(p.bytes);
    r.expect_done();
    benchmark::DoNotOptimize(p.kind);
    ++pings;
  }
  state.counters["pings/s"] =
      benchmark::Counter(static_cast<double>(pings), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Codec_HeartbeatPing);

/// Encode-once fan-out A/B: a Commit broadcast to a 16-member view encoded
/// field-by-field per destination (Arg(0)) vs encoded once and shipped as
/// pooled memcpy copies (Arg(1), what gmp::fan_out does).  The payload is
/// destination-independent, so the copies are bit-identical to the
/// re-encodes; `packets/s` prices the wire work fan_out saves per
/// broadcast.
static void BM_Burst_DecodeOnce(benchmark::State& state) {
  const bool once = state.range(0) != 0;
  gmp::Commit c;
  c.op = Op::kRemove;
  c.target = 3;
  c.version = 17;
  c.next_op = Op::kAdd;
  c.next_target = 19;
  c.faulty = {2, 5, 7};
  c.recovered = {40, 41};
  uint64_t packets = 0;
  std::vector<Packet> out;
  out.reserve(16);
  for (auto _ : state) {
    out.clear();
    if (once) {
      Packet proto = c.to_packet(1);
      for (ProcessId q = 2; q < 16; ++q) {
        out.push_back(Packet{proto.from, q, proto.kind, copy_buffer_pooled(proto.bytes)});
      }
      out.push_back(std::move(proto));
    } else {
      for (ProcessId q = 1; q < 16; ++q) out.push_back(c.to_packet(q));
    }
    packets += out.size();
    for (Packet& p : out) recycle_buffer(std::move(p.bytes));
  }
  state.counters["packets/s"] =
      benchmark::Counter(static_cast<double>(packets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Burst_DecodeOnce)->Arg(0)->Arg(1);

/// Partition hold + heal: channel matrix writes and held-traffic release.
static void BM_SimCore_PartitionHeal(benchmark::State& state) {
  uint64_t healed = 0;
  for (auto _ : state) {
    SimWorld w(7, DelayModel{1, 4});
    PingPong a, b;
    w.add_actor(0, &a);
    w.add_actor(1, &b);
    w.start();
    w.partition({0}, {1});
    w.at(1, [&] {
      for (int i = 0; i < 64; ++i) w.context_of(0)->send(Packet{0, 1, 9, {0}});
    });
    w.at(2, [&] { w.heal_partition(); });
    w.run_until_idle();
    healed += b.hops;
  }
  state.counters["held_msgs/s"] =
      benchmark::Counter(static_cast<double>(healed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimCore_PartitionHeal);

/// Minimization cost on a guaranteed failure (the injected GMP-1 bug).
static void BM_Scenario_Minimize(benchmark::State& state) {
  scenario::ExecOptions bug;
  bug.inject_bug_unrecorded_suspicion = true;
  scenario::GeneratorOptions gen;
  gen.profile = scenario::Profile::kChurnHeavy;
  gen.max_events = 12;
  // Pick one failing schedule up front so iterations are comparable.
  scenario::Schedule failing;
  for (uint64_t seed = 0;; ++seed) {
    failing = scenario::generate(seed, gen);
    if (!scenario::execute(failing, bug).check.ok()) break;
  }
  auto fails = [&bug](const scenario::Schedule& c) {
    return !scenario::execute(c, bug).check.ok();
  };
  size_t events_after = 0, probes = 0;
  for (auto _ : state) {
    scenario::MinimizeStats stats;
    scenario::Schedule m = scenario::minimize(failing, fails, {}, &stats);
    events_after = stats.events_after;
    probes = stats.probes;
    benchmark::DoNotOptimize(m.events.size());
  }
  state.counters["events_after"] = benchmark::Counter(static_cast<double>(events_after));
  state.counters["probes"] = benchmark::Counter(static_cast<double>(probes));
}
BENCHMARK(BM_Scenario_Minimize);
