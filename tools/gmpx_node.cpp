// gmpx_node: one GMP protocol endpoint as a standalone OS process, driven
// by the real-deployment executor (src/realexec/executor.hpp).
//
// The orchestrator forks one of these per group member.  Wiring:
//   fd 3  control pipe (read):  "suspect <q>" | "leave" | "status <tok>" |
//                               "shutdown" — one command per line.
//   fd 4  event stream (write): "ev <...>" trace events (trace/stream.hpp
//                               codec), "status <tok> <text>" replies, and a
//                               final "eos <reason> aborted=<0|1>" marker.
//
// Shutdown contract: SIGTERM (or "shutdown", or the node quitting on its
// own) flushes the buffered event stream and writes `eos` before exit — the
// orchestrator asserts that marker for every process it did not SIGKILL.
// Only SIGKILL may lose tail events.  The stream is fully buffered in
// between, so the flush is a real code path, not a formality.
//
// Timing: ticks are tick_us real microseconds.  All tick-valued options
// arrive in schedule ticks and are scaled here; Context::now() counts µs
// from the shared --epoch-us instant (CLOCK_MONOTONIC is machine-wide, so
// every node of a run agrees on it).  The node sleeps until the epoch
// before starting its runtime: spawn-order skew must not become heartbeat
// silence.
//
// The process dies with its orchestrator (PR_SET_PDEATHSIG) — a hung or
// leaked run never strands listeners on the port range.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "fd/heartbeat.hpp"
#include "gmp/node.hpp"
#include "net/tcp_runtime.hpp"
#include "trace/recorder.hpp"
#include "trace/stream.hpp"

using namespace gmpx;

namespace {

std::atomic<bool> g_terminate{false};

void on_sigterm(int) { g_terminate.store(true); }

std::vector<ProcessId> parse_ids(const char* s) {
  std::vector<ProcessId> out;
  while (*s) {
    char* end = nullptr;
    out.push_back(static_cast<ProcessId>(std::strtoul(s, &end, 10)));
    if (end == s) break;
    s = end;
    if (*s == ',') ++s;
  }
  return out;
}

struct Args {
  ProcessId self = kNilId;
  uint16_t bind_port = 0;
  Tick epoch_us = 0;
  Tick tick_us = 100;
  Tick hb_interval = 200;  ///< ticks
  Tick hb_timeout = 800;   ///< ticks
  bool require_majority = true;
  size_t join_attempts = 0;
  bool joiner = false;
  std::vector<ProcessId> initial;
  std::vector<ProcessId> contacts;
  Tick join_delay = 0;  ///< ticks
  std::map<ProcessId, net::PeerAddress> peers;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--self") {
      a.self = static_cast<ProcessId>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--bind-port") {
      a.bind_port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--epoch-us") {
      a.epoch_us = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--tick-us") {
      a.tick_us = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--hb-interval") {
      a.hb_interval = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--hb-timeout") {
      a.hb_timeout = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--require-majority") {
      a.require_majority = std::strtoul(next(), nullptr, 10) != 0;
    } else if (arg == "--join-attempts") {
      a.join_attempts = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--joiner") {
      a.joiner = true;
    } else if (arg == "--initial") {
      a.initial = parse_ids(next());
    } else if (arg == "--contacts") {
      a.contacts = parse_ids(next());
    } else if (arg == "--join-delay") {
      a.join_delay = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--peer") {
      // id:host:port
      std::string spec = next();
      size_t c1 = spec.find(':');
      size_t c2 = spec.rfind(':');
      if (c1 == std::string::npos || c2 == c1) return false;
      ProcessId id =
          static_cast<ProcessId>(std::strtoul(spec.substr(0, c1).c_str(), nullptr, 10));
      a.peers[id] = net::PeerAddress{
          spec.substr(c1 + 1, c2 - c1 - 1),
          static_cast<uint16_t>(std::strtoul(spec.substr(c2 + 1).c_str(), nullptr, 10))};
    } else {
      std::fprintf(stderr, "gmpx_node: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (a.self == kNilId || a.bind_port == 0) return false;
  if (!a.joiner && a.initial.empty()) return false;
  return true;
}

void sleep_until_monotonic(Tick abs_us) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(abs_us / 1'000'000);
  ts.tv_nsec = static_cast<long>((abs_us % 1'000'000) * 1000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    if (g_terminate.load()) return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Die with the orchestrator: no orphan ever survives a crashed or killed
  // test run to squat on the port window.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) return 2;  // orchestrator already gone

  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: gmpx_node --self N --bind-port P --epoch-us T --tick-us U\n"
                 "  (--initial ids | --joiner --contacts ids --join-delay T)\n"
                 "  [--peer id:host:port]... [--hb-interval T] [--hb-timeout T]\n"
                 "  [--require-majority 0|1] [--join-attempts N]\n");
    return 2;
  }

  struct sigaction sa{};
  sa.sa_handler = on_sigterm;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  // Event stream: fully buffered so the SIGTERM flush is load-bearing.
  FILE* ev_out = ::fdopen(4, "w");
  if (!ev_out) return 2;
  std::setvbuf(ev_out, nullptr, _IOFBF, 1 << 16);

  trace::Recorder rec;
  rec.set_sink([ev_out](const trace::Event& e) {
    std::string line = trace::encode_event_line(e);
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), ev_out);
  });

  gmp::Config cfg;
  cfg.require_majority = a.require_majority;
  cfg.recorder = &rec;
  if (a.joiner) {
    cfg.joiner = true;
    cfg.contacts = a.contacts;
    cfg.join_start_delay = a.join_delay * a.tick_us;
    cfg.join_retry_interval = 2000 * a.tick_us;  // sim default, scaled
  } else {
    cfg.initial_members = a.initial;
    rec.set_initial_membership(a.initial);
  }
  if (a.join_attempts) cfg.join_max_attempts = a.join_attempts;

  gmp::GmpNode node(a.self, cfg);
  fd::HeartbeatOptions hb;
  hb.interval = a.hb_interval * a.tick_us;
  hb.timeout = a.hb_timeout * a.tick_us;
  fd::HeartbeatFd detector(&node, hb);

  a.peers[a.self] = net::PeerAddress{"127.0.0.1", a.bind_port};
  net::TcpOptions topts;
  topts.epoch_us = a.epoch_us;
  topts.jitter_seed = 0x6e6f6465u + a.self;  // deterministic per id
  net::TcpRuntime rt(a.self, a.peers, &detector, &rec, topts);

  // All nodes of a run start their protocol clocks at the shared epoch,
  // whatever order they were forked in.
  if (a.epoch_us) sleep_until_monotonic(a.epoch_us);
  if (!g_terminate.load() && !rt.start()) {
    // A deaf endpoint must be loud: the orchestrator turns this reason
    // into an infrastructure failure, never a protocol verdict.
    std::fprintf(ev_out, "eos bindfail aborted=0\n");
    std::fflush(ev_out);
    return 3;
  }

  // Control loop: commands on fd 3, shutdown on SIGTERM or self-quit.
  int cmd_fd = 3;
  int flags = ::fcntl(cmd_fd, F_GETFL, 0);
  ::fcntl(cmd_fd, F_SETFL, flags | O_NONBLOCK);
  std::string buf;
  const char* reason = "term";
  for (;;) {
    if (g_terminate.load()) break;
    if (rt.stopped()) {
      reason = "quit";
      break;
    }
    pollfd pf{cmd_fd, POLLIN, 0};
    int rc = ::poll(&pf, 1, 50);
    if (rc <= 0) continue;
    char tmp[512];
    ssize_t n = ::read(cmd_fd, tmp, sizeof tmp);
    if (n == 0) {
      // Orchestrator closed the control pipe: treat as shutdown.
      break;
    }
    if (n < 0) continue;
    buf.append(tmp, static_cast<size_t>(n));
    size_t start = 0;
    for (;;) {
      size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (line.rfind("suspect ", 0) == 0) {
        ProcessId q = static_cast<ProcessId>(std::strtoul(line.c_str() + 8, nullptr, 10));
        rt.post([&node, q](Context& ctx) { node.suspect(ctx, q); });
      } else if (line == "leave") {
        rt.post([&node](Context& ctx) { node.leave(ctx); });
      } else if (line.rfind("status ", 0) == 0) {
        std::string tok = line.substr(7);
        auto report = [&node, ev_out, tok] {
          std::string out = "status " + tok + " view=v" +
                            std::to_string(node.view().version()) + "{";
          bool first = true;
          for (ProcessId m : node.view().sorted_members()) {
            if (!first) out += ',';
            out += std::to_string(m);
            first = false;
          }
          out += "} awaiting=[";
          first = true;
          for (ProcessId q : node.awaiting()) {
            if (!first) out += ',';
            out += std::to_string(q);
            first = false;
          }
          out += "] admitted=" + std::to_string(node.admitted() ? 1 : 0) +
                 " quit=" + std::to_string(node.has_quit() ? 1 : 0);
          std::string retry = node.pending_retry();
          if (!retry.empty()) out += " retry=\"" + retry + "\"";
          out += '\n';
          std::fwrite(out.data(), 1, out.size(), ev_out);
          std::fflush(ev_out);
        };
        // A stopped runtime never runs posted work; its loop thread is
        // also done mutating the node, so a direct read is safe then.
        if (rt.stopped()) {
          report();
        } else {
          rt.post([report](Context&) { report(); });
        }
      } else if (line == "shutdown") {
        g_terminate.store(true);
      }
    }
    buf.erase(0, start);
  }

  // Flush-and-mark shutdown: stop the loop (no further events can record),
  // then drain the buffered stream and stamp the eos marker.  SIGKILL is
  // the only exit that skips this — exactly the distinction the
  // orchestrator asserts.
  rt.stop();
  std::fflush(ev_out);
  std::fprintf(ev_out, "eos %s aborted=%d\n", reason, node.join_aborted() ? 1 : 0);
  std::fflush(ev_out);
  return 0;
}
