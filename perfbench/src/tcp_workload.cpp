// tcp-failover: crash-to-exclusion over real sockets, a closed loop of
// sequential trials.
//
// Each trial starts an in-process n=3 group — three net::TcpRuntime
// endpoints on localhost, each a GmpNode under a self-armed HeartbeatFd —
// waits until every detector watches both peers, then, at a seeded phase of
// the heartbeat wave, stops one endpoint's runtime (a crash: its sockets
// close, its heartbeats stop).
// Trials alternate between crashing the Mgr (the reconfiguration path) and
// crashing a member (Mgr-driven exclusion).  ProcessGroup::on_view_change
// timestamps each survivor's install of the view without the victim.
//
// Threads: three event loops plus this driver, within the 4-core budget.
// Ports come from a window no test uses, below the ephemeral range.  A bind
// failure, a group that never gets ready, or survivors that do not agree in
// time is a failed trial, never a hang.  GMP safety (check_gmp) is judged
// on every trial's merged trace; a violation fails the run's check, and so
// does more than one failed trial in ten.
#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "fd/heartbeat.hpp"
#include "gmp/node.hpp"
#include "group/process_group.hpp"
#include "net/tcp_runtime.hpp"
#include "trace/checker.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

using namespace gmpx;
using namespace std::chrono_literals;

namespace {

constexpr size_t kN = 3;
constexpr uint16_t kPortLo = 28000;  ///< window [28000, 29998): clear of every test
constexpr uint16_t kPortSlots = 666;  ///< trials before the window wraps
/// Heartbeat tuning in runtime ticks (microseconds): ping every 20 ms,
/// suspect after 120 ms of silence — the tuning the repository's own
/// crash-exclusion test over localhost uses (tests/net_test.cpp,
/// Net.FullGroupOverLocalhost).
constexpr Tick kInterval = 20'000;
constexpr Tick kTimeout = 120'000;
constexpr auto kReadyTimeout = 2s;
constexpr auto kFailoverTimeout = 3s;

/// What the survivors' view callbacks report back to the driver.
struct Installs {
  std::mutex mu;
  std::condition_variable cv;
  ProcessId victim = kNilId;
  uint64_t at_ns[kN] = {};              ///< first install without the victim
  std::vector<ProcessId> members[kN];   ///< that view's members
};

/// One group member: protocol node, application handle, detector, runtime.
/// Declared in dependency order so the runtime (whose loop thread uses the
/// others) is destroyed — stopped and joined — first.
struct Endpoint {
  std::unique_ptr<gmp::GmpNode> node;
  std::unique_ptr<group::ProcessGroup> group;
  std::unique_ptr<fd::HeartbeatFd> fd;
  std::unique_ptr<net::TcpRuntime> rt;
};

struct TrialResult {
  bool ok = false;
  bool unsafe = false;  ///< the merged trace violates GMP safety: a protocol bug
  bool mgr_crash = false;
  std::string why;
  double start_ms = 0;
  double first_ms = 0;  ///< crash -> first survivor installs the exclusion view
  double last_ms = 0;   ///< crash -> last survivor installs it
  double wall_ms = 0;
  std::vector<double> post_rtt_us;
};

/// Run `fn` on an endpoint's loop thread and wait for it; returns the round
/// trip in microseconds (and fn's answer in `answer`), or a negative value
/// on timeout.  The shared state outlives a timed-out wait, so a late run of
/// `fn` never touches the driver's stack.
double post_and_wait(net::TcpRuntime& rt, std::function<bool()> fn, bool* answer = nullptr) {
  struct Done {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool answer = false;
  };
  auto done = std::make_shared<Done>();
  const uint64_t t0 = now_ns();
  rt.post([done, fn = std::move(fn)] {
    const bool a = fn();
    std::lock_guard lock(done->mu);
    done->done = true;
    done->answer = a;
    done->cv.notify_one();
  });
  std::unique_lock lock(done->mu);
  if (!done->cv.wait_for(lock, 500ms, [&] { return done->done; })) return -1.0;
  const double rtt_us = static_cast<double>(now_ns() - t0) * 1e-3;
  if (answer) *answer = done->answer;
  return rtt_us;
}

class Trial {
 public:
  Trial(uint16_t base_port, ProcessId victim) {
    installs_.victim = victim;
    std::vector<ProcessId> everyone;
    for (ProcessId p = 0; p < kN; ++p) {
      peers_[p] = net::PeerAddress{"127.0.0.1", static_cast<uint16_t>(base_port + p)};
      everyone.push_back(p);
    }
    rec_.set_initial_membership(everyone);
    net::TcpOptions topts;
    topts.epoch_us = net::monotonic_now_us();  // one clock for the merged trace
    for (ProcessId p = 0; p < kN; ++p) {
      Endpoint& e = eps_[p];
      gmp::Config cfg;
      cfg.initial_members = everyone;
      cfg.recorder = &rec_;
      e.node = std::make_unique<gmp::GmpNode>(p, cfg);
      e.group = std::make_unique<group::ProcessGroup>(e.node.get());
      e.group->on_view_change([this, p](const gmp::View& v) {
        std::lock_guard lock(installs_.mu);
        if (installs_.at_ns[p] == 0 && !v.contains(installs_.victim)) {
          installs_.at_ns[p] = now_ns();
          installs_.members[p] = v.sorted_members();
          installs_.cv.notify_all();
        }
      });
      e.fd = std::make_unique<fd::HeartbeatFd>(e.node.get(),
                                               fd::HeartbeatOptions{kInterval, kTimeout});
      e.rt = std::make_unique<net::TcpRuntime>(p, peers_, e.fd.get(), &rec_, topts);
    }
  }

  ~Trial() {
    for (Endpoint& e : eps_) e.rt->stop();
  }

  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;

  /// Start every endpoint and wait until each has heard from both peers.
  /// Returns why the group could not get ready ("" on success).
  std::string start(SpanLog* log, uint32_t unit) {
    SpanLog::Scope s(log, "tcp.start", unit);
    for (Endpoint& e : eps_) {
      if (!e.rt->start()) {
        return "bind failure on port " + std::to_string(peers_[e.rt->self()].port);
      }
    }
    return wait_ready() ? "" : "group not ready within 2 s";
  }

  /// `phase_us` delays the crash past readiness, so crashes land at seeded
  /// phases of the heartbeat wave instead of one fixed phase.
  TrialResult run(SpanLog* log, uint32_t unit, bool probe_rtt, Tick phase_us) {
    TrialResult r;
    const uint64_t t0 = now_ns();
    const ProcessId victim = installs_.victim;
    r.mgr_crash = victim == 0;
    r.why = start(log, unit);
    if (!r.why.empty()) return r;
    r.start_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    std::this_thread::sleep_for(std::chrono::microseconds(phase_us));

    const uint64_t crash = now_ns();
    {
      SpanLog::Scope s(log, "tcp.stop", unit);
      eps_[victim].rt->stop();
    }
    {
      SpanLog::Scope s(log, "tcp.failover", unit);
      std::unique_lock lock(installs_.mu);
      const bool agreed = installs_.cv.wait_for(lock, kFailoverTimeout, [&] {
        for (ProcessId p = 0; p < kN; ++p) {
          if (p != victim && installs_.at_ns[p] == 0) return false;
        }
        return true;
      });
      if (!agreed) {
        r.why = "survivors did not exclude the victim within 3 s";
        return r;
      }
      uint64_t first = UINT64_MAX, last = 0;
      std::vector<ProcessId> expect;
      for (ProcessId p = 0; p < kN; ++p) {
        if (p != victim) expect.push_back(p);
      }
      for (ProcessId p = 0; p < kN; ++p) {
        if (p == victim) continue;
        first = std::min(first, installs_.at_ns[p]);
        last = std::max(last, installs_.at_ns[p]);
        if (installs_.members[p] != expect) {
          r.why = "a survivor was excluded (false suspicion)";
          return r;
        }
      }
      r.first_ms = static_cast<double>(first - crash) * 1e-6;
      r.last_ms = static_cast<double>(last - crash) * 1e-6;
    }
    if (probe_rtt) {
      SpanLog::Scope s(log, "tcp.post_rtt", unit);
      net::TcpRuntime& rt = *eps_[victim == 0 ? 1 : 0].rt;
      for (int i = 0; i < 8; ++i) {
        const double rtt = post_and_wait(rt, [] { return true; });
        if (rtt >= 0) r.post_rtt_us.push_back(rtt);
      }
    }
    {
      SpanLog::Scope s(log, "tcp.teardown", unit);
      for (Endpoint& e : eps_) e.rt->stop();
    }
    const trace::CheckResult safety = trace::check_gmp(rec_, trace::CheckOptions{false, {}});
    if (!safety.ok()) {
      r.unsafe = true;
      r.why = "GMP safety violated: " + safety.message();
      return r;
    }
    r.wall_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    r.ok = true;
    return r;
  }

 private:
  /// Every endpoint's detector watches both peers (asked on each loop
  /// thread — the tables belong to it — and polled every millisecond), then
  /// one more heartbeat interval so the first ping fan has landed.
  bool wait_ready() {
    const auto deadline = Clock::now() + kReadyTimeout;
    while (Clock::now() < deadline) {
      bool all = true;
      for (ProcessId p = 0; p < kN && all; ++p) {
        bool heard = false;
        fd::HeartbeatFd* fd = eps_[p].fd.get();
        const double rtt = post_and_wait(
            *eps_[p].rt,
            [fd, p] {
              for (ProcessId q = 0; q < kN; ++q) {
                if (q != p && fd->last_heard(q) == 0) return false;
              }
              return true;
            },
            &heard);
        all = rtt >= 0 && heard;
      }
      if (all) {
        std::this_thread::sleep_for(std::chrono::microseconds(kInterval));
        return true;
      }
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

  std::map<ProcessId, net::PeerAddress> peers_;
  trace::Recorder rec_;
  Installs installs_;
  Endpoint eps_[kN];
};

/// Victim of trial `i`: even trials crash the Mgr (p0), odd trials a member.
ProcessId victim_of(uint64_t i) { return i % 2 == 0 ? 0 : static_cast<ProcessId>(1 + (i / 2) % 2); }

struct TrialLoop {
  uint64_t seed;
  uint64_t next = 0;  ///< trial counter: picks the victim and the port slot

  uint16_t port_of(uint64_t i) const {
    return static_cast<uint16_t>(kPortLo + ((seed + i) % kPortSlots) * kN);
  }

  TrialResult run(ProcessId victim, SpanLog* log, bool probe_rtt) {
    const uint64_t i = next++;
    Trial t(port_of(i), victim);
    return t.run(log, static_cast<uint32_t>(i), probe_rtt, mix64(seed + i) % kInterval);
  }
};

/// Count a finished trial; true when it can be used as a sample.
bool judge(const TrialResult& r, uint64_t trial, Report& rep, uint64_t& failed) {
  if (r.ok) return true;
  ++failed;
  const std::string what = "trial " + std::to_string(trial) + ": " + r.why;
  if (r.unsafe) {
    rep.fail(what);
  } else {
    rep.note("failed " + what);
  }
  return false;
}

void check_fail_ratio(uint64_t attempted, uint64_t failed, Report& rep) {
  rep.count(attempted, failed);
  if (failed * 10 > attempted) {
    rep.fail(std::to_string(failed) + " of " + std::to_string(attempted) + " trials failed");
  }
}

void traced(const Args& args, Report& rep) {
  // Trials come in pairs with the same victim: the traced one carries the
  // spans and the post round-trip probes, the untraced one is the overhead
  // baseline.
  const int pairs = args.quick ? 2 : 12;
  TrialLoop loop{mix64(args.seed)};
  SpanLog log;
  std::vector<double> start, first_mgr, first_member, spread_mgr, spread_member, rtt;
  double traced_ms = 0, untraced_ms = 0;
  int traced_ok = 0, untraced_ok = 0;
  uint64_t failed = 0;
  for (int i = 0; i < pairs * 2; ++i) {
    const bool with_spans = i % 2 == 0;
    const ProcessId victim = victim_of(static_cast<uint64_t>(i / 2));
    const uint64_t unit = loop.next;
    if (with_spans) log.label_unit(static_cast<uint32_t>(unit), victim == 0 ? "mgr" : "member");
    const TrialResult r = loop.run(victim, with_spans ? &log : nullptr, with_spans);
    if (!judge(r, unit, rep, failed)) continue;
    if (!with_spans) {
      untraced_ms += r.wall_ms;
      ++untraced_ok;
      continue;
    }
    traced_ms += r.wall_ms;
    ++traced_ok;
    start.push_back(r.start_ms);
    (r.mgr_crash ? first_mgr : first_member).push_back(r.first_ms);
    (r.mgr_crash ? spread_mgr : spread_member).push_back(r.last_ms - r.first_ms);
    rtt.insert(rtt.end(), r.post_rtt_us.begin(), r.post_rtt_us.end());
  }
  check_fail_ratio(static_cast<uint64_t>(pairs) * 2, failed, rep);
  rep.metric("tcp.start_ms", median(start), "ms");
  rep.metric("tcp.first_install_ms.mgr", median(first_mgr), "ms");
  rep.metric("tcp.first_install_ms.member", median(first_member), "ms");
  rep.metric("tcp.install_spread_ms.mgr", median(spread_mgr), "ms");
  rep.metric("tcp.install_spread_ms.member", median(spread_member), "ms");
  rep.metric("tcp.post_rtt_us", median(rtt), "us");
  // The traced trials also run the post probes: take them out before
  // comparing trial walls.
  const double probes_ms = static_cast<double>(log.incl_ns_of("tcp.post_rtt")) * 1e-6;
  const double per_traced = traced_ok ? (traced_ms - probes_ms) / traced_ok : 0.0;
  const double per_untraced = untraced_ok ? untraced_ms / untraced_ok : 0.0;
  rep.metric("trace.overhead_ratio", per_untraced > 0 ? per_traced / per_untraced - 1.0 : 0.0,
             "ratio");
  if (!args.trace_out.empty() && !log.write(args.trace_out)) {
    rep.note("could not write spans to " + args.trace_out);
  }
}

}  // namespace

void run_tcp_failover(const Args& args, Report& rep) {
  rep.note("tcp-failover: n=3 TcpRuntime group per trial, heartbeat interval " +
           std::to_string(kInterval / 1000) + " ms, timeout " + std::to_string(kTimeout / 1000) +
           " ms, ports " + std::to_string(kPortLo) + "+, closed loop of sequential trials");
  if (args.trace) {
    traced(args, rep);
    return;
  }
  TrialLoop loop{mix64(args.seed)};

  // Set-up: a group start to readiness (sockets bound, connections up, every
  // pair heard from) and its teardown, all passes before the trials.
  SetupTimer setup([&] {
    Trial t(loop.port_of(loop.next++), kNilId);
    const std::string why = t.start(nullptr, 0);
    if (!why.empty()) rep.note("set-up group failed: " + why);
    return why.empty() ? uint64_t{kN} : uint64_t{0};
  });
  const double setup_s = setup.setup_s(rep);

  // Rounds of a fixed trial count, so the tail percentile is the same in
  // every round; rounds repeat until the run's time is up.
  const size_t per_round = args.quick ? 4 : 40;
  std::vector<double> rate, p50, tail;
  Tail last;
  uint64_t attempted = 0, failed = 0;
  const uint64_t start = now_ns();
  do {
    std::vector<double> failover_us;
    const uint64_t r0 = now_ns();
    for (size_t i = 0; i < per_round; ++i) {
      const uint64_t trial = loop.next;
      const TrialResult r = loop.run(victim_of(trial), nullptr, false);
      ++attempted;
      if (judge(r, trial, rep, failed)) failover_us.push_back(r.last_ms * 1e3);
    }
    rate.push_back(static_cast<double>(per_round) / seconds_since(r0));
    p50.push_back(percentile(failover_us, 50));
    last = tail_of(failover_us);
    tail.push_back(last.value);
  } while (seconds_since(start) < args.seconds);
  rep.note("per-round throughput_per_s " + spread(rate));
  rep.note("per-round unit_p50_us " + spread(p50));
  check_fail_ratio(attempted, failed, rep);

  const double rss = peak_rss_mb();
  rep.metric("setup_s", setup_s, "s");
  rep.metric("throughput_per_s", median(rate), "1/s");
  rep.metric("unit_p50_us", median(p50), "us");
  rep.metric("unit_tail_us", median(tail), "us");
  rep.metric("peak_rss_mb", rss, "MB");

  char detail[96];
  std::snprintf(detail, sizeof detail, "(p%g of %zu trials per round, median of %zu rounds)",
                last.pct, last.samples, rate.size());
  rep.figure("failover_p50_ms", median(p50) * 1e-3, "ms");
  rep.figure("failover_tail_ms", median(tail) * 1e-3, "ms", detail);
  rep.figure("trials_per_s", median(rate), "1/s");
  rep.figure("setup_s", setup_s, "s");
  rep.figure("peak_rss_mb", rss, "MB");
  rep.figure("fail_ratio", static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
             fail_detail(failed, attempted, "trials"));
}

}  // namespace perfbench
