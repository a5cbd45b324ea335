#include "realexec/proxy.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/tcp_runtime.hpp"

namespace gmpx::realexec {

namespace {

uint64_t splitmix64(uint64_t& s) {
  uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool in_group(const std::vector<ProcessId>& g, ProcessId p) {
  return std::count(g.begin(), g.end(), p) > 0;
}

void set_nonblock(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

bool FaultPlan::blocked(ProcessId from, ProcessId to, Tick t) const {
  for (const Cut& c : cuts) {
    if (t < c.start || t >= c.end) continue;
    bool from_in = in_group(c.group, from);
    bool to_in = in_group(c.group, to);
    if (c.oneway ? (from_in && !to_in) : (from_in != to_in)) return true;
  }
  return false;
}

Tick FaultPlan::first_heal_after(Tick t) const {
  for (Tick h : heal_times) {
    if (h > t) return h;
  }
  return kNever;
}

bool FaultPlan::storm_at(Tick t, Tick& min_delay, Tick& max_delay) const {
  bool found = false;
  Tick best_start = 0;
  for (const Storm& st : storms) {
    if (st.start <= t && t < st.end && (!found || st.start >= best_start)) {
      best_start = st.start;
      min_delay = st.min_delay;
      max_delay = st.max_delay;
      found = true;
    }
  }
  return found;
}

const FaultPlan::Faults* FaultPlan::faults_at(Tick t) const {
  const Faults* best = nullptr;
  for (const Faults& f : faults) {
    if (f.start <= t && t < f.end && (!best || f.start >= best->start)) best = &f;
  }
  return best;
}

std::string FaultPlan::active_summary(Tick t) const {
  std::ostringstream os;
  const char* sep = "";
  for (const Cut& c : cuts) {
    if (t < c.start || t >= c.end) continue;
    os << sep << (c.oneway ? "oneway-cut[" : "cut[");
    for (size_t i = 0; i < c.group.size(); ++i) os << (i ? "," : "") << c.group[i];
    os << "]@" << c.start;
    if (c.end != kNever) os << ".." << c.end;
    sep = " ";
  }
  Tick mn = 0, mx = 0;
  if (storm_at(t, mn, mx)) {
    os << sep << "storm[" << mn << ".." << mx << "]";
    sep = " ";
  }
  if (const Faults* f = faults_at(t)) {
    os << sep << "faults[loss=" << f->loss << " dup=" << f->dup << " reorder=" << f->reorder
       << "]";
  }
  return os.str();
}

FaultPlan compile_plan(const scenario::Schedule& s) {
  FaultPlan plan;
  // Every global release point first: explicit heals plus the expiry of any
  // bounded partition (the sim's heal_partition() is global, so either one
  // tears down every active cut).
  for (const scenario::ScheduleEvent& e : s.events) {
    if (e.type == scenario::EventType::kHeal) plan.heal_times.push_back(e.at);
    if ((e.type == scenario::EventType::kPartition ||
         e.type == scenario::EventType::kPartitionOneway) &&
        e.duration > 0) {
      plan.heal_times.push_back(e.at + e.duration);
    }
  }
  std::sort(plan.heal_times.begin(), plan.heal_times.end());
  plan.heal_times.erase(std::unique(plan.heal_times.begin(), plan.heal_times.end()),
                        plan.heal_times.end());
  for (const scenario::ScheduleEvent& e : s.events) {
    switch (e.type) {
      case scenario::EventType::kPartition:
      case scenario::EventType::kPartitionOneway: {
        FaultPlan::Cut c;
        c.start = e.at;
        c.end = plan.first_heal_after(e.at);
        c.oneway = e.type == scenario::EventType::kPartitionOneway;
        c.group = e.group;
        plan.cuts.push_back(std::move(c));
        break;
      }
      case scenario::EventType::kDelayStorm:
        plan.storms.push_back({e.at, e.at + e.duration, e.min_delay, e.max_delay});
        break;
      case scenario::EventType::kFaults: {
        FaultPlan::Faults f;
        f.start = e.at;
        f.end = e.at + e.duration;
        f.loss = e.loss;
        f.dup = e.dup;
        f.reorder = e.reorder;
        plan.faults.push_back(f);
        break;
      }
      default:
        break;
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// DelayProxy
// ---------------------------------------------------------------------------

struct DelayProxy::Impl {
  ProxyOptions opts;

  std::thread thread;
  std::atomic<bool> running{false};
  int listen_fd = -1;
  int wake_fds[2] = {-1, -1};

  struct Inbound {
    int fd = -1;
    std::vector<uint8_t> buf;
  };
  std::vector<Inbound> inbound;

  // Forward connection to the node's real port.  `dead` latches once the
  // node is gone (connect exhausted or write failed after it accepted us):
  // from then on every frame is dropped, which is exactly quit_p semantics.
  int fwd_fd = -1;
  bool fwd_connecting = false;
  bool fwd_dead = false;
  Tick next_connect_us = 0;
  int connect_failures = 0;
  std::deque<std::vector<uint8_t>> outbox;
  size_t outbox_off = 0;

  struct Pending {
    Tick release_us = 0;
    uint64_t seq = 0;  ///< tiebreak: arrival order
    std::vector<uint8_t> bytes;
  };
  std::vector<Pending> pending;  ///< min-heap on (release_us, seq)
  uint64_t next_seq = 0;
  // Per-sender FIFO floor (absolute µs): a frame released earlier than its
  // sender's previous frame would reorder a reliable channel.
  std::vector<std::pair<ProcessId, Tick>> fifo_tail;

  uint64_t rng = 1;

  std::atomic<uint64_t> last_protocol_us{0};
  std::atomic<uint64_t> forwarded{0};
  std::atomic<uint64_t> dropped{0};

  static bool pending_after(const Pending& a, const Pending& b) {
    return a.release_us != b.release_us ? a.release_us > b.release_us : a.seq > b.seq;
  }

  Tick now_us() const { return net::monotonic_now_us(); }
  Tick tick_of(Tick abs_us) const {
    return abs_us > opts.epoch_us ? (abs_us - opts.epoch_us) / opts.tick_us : 0;
  }

  Tick& fifo_floor(ProcessId from) {
    for (auto& [p, t] : fifo_tail) {
      if (p == from) return t;
    }
    fifo_tail.emplace_back(from, 0);
    return fifo_tail.back().second;
  }

  void schedule(Tick release_us, std::vector<uint8_t> bytes) {
    pending.push_back({release_us, next_seq++, std::move(bytes)});
    std::push_heap(pending.begin(), pending.end(), pending_after);
  }

  void process_frame(const Packet& p) {
    Tick arrive_us = now_us();
    Tick t = tick_of(arrive_us);
    if (p.kind >= kProtocolKindFloor) {
      last_protocol_us.store(arrive_us, std::memory_order_relaxed);
    }
    std::vector<uint8_t> bytes = net::encode_frame(p);

    if (opts.plan.blocked(p.from, opts.target, t)) {
      Tick heal = opts.plan.first_heal_after(t);
      if (heal == FaultPlan::kNever) {
        dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Tick release = opts.epoch_us + heal * opts.tick_us;
      Tick& floor = fifo_floor(p.from);
      if (release < floor) release = floor;
      floor = release;
      schedule(release, std::move(bytes));
      return;
    }

    Tick release = arrive_us;
    bool fifo_exempt = false;
    if (p.kind < kProtocolKindFloor) {
      if (const FaultPlan::Faults* f = opts.plan.faults_at(t)) {
        if (splitmix64(rng) % 1000 < f->loss) {
          dropped.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (splitmix64(rng) % 1000 < f->dup) {
          Tick extra = splitmix64(rng) % (f->reorder_slack + 1);
          schedule(release + extra * opts.tick_us, bytes);  // copy, FIFO-exempt
        }
        if (splitmix64(rng) % 1000 < f->reorder) {
          release += (splitmix64(rng) % (f->reorder_slack + 1)) * opts.tick_us;
          fifo_exempt = true;
        }
      }
    }
    Tick mn = 0, mx = 0;
    if (opts.plan.storm_at(t, mn, mx)) {
      Tick extra = mx > mn ? mn + splitmix64(rng) % (mx - mn + 1) : mn;
      release += extra * opts.tick_us;
    }
    if (!fifo_exempt) {
      Tick& floor = fifo_floor(p.from);
      if (release < floor) release = floor;
      floor = release;
    }
    schedule(release, std::move(bytes));
  }

  void fwd_lost() {
    if (fwd_fd >= 0) ::close(fwd_fd);
    fwd_fd = -1;
    fwd_connecting = false;
    fwd_dead = true;
    dropped.fetch_add(outbox.size() + pending.size(), std::memory_order_relaxed);
    outbox.clear();
    outbox_off = 0;
    pending.clear();
  }

  void try_connect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    set_nonblock(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts.node_port);
    ::inet_pton(AF_INET, opts.node_host.c_str(), &addr.sin_addr);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc == 0) {
      fwd_fd = fd;
      fwd_connecting = false;
      return;
    }
    if (errno == EINPROGRESS) {
      fwd_fd = fd;
      fwd_connecting = true;
      return;
    }
    ::close(fd);
    connect_fail();
  }

  void connect_fail() {
    // The node binds before the orchestrator spawns peers, so startup races
    // are short; a generous budget then declares it dead (crashed pre-epoch
    // or never came up — orchestrator diagnoses which).
    if (++connect_failures >= 400) {
      fwd_dead = true;
      dropped.fetch_add(pending.size(), std::memory_order_relaxed);
      pending.clear();
      return;
    }
    next_connect_us = now_us() + 5000;  // 5 ms
  }

  void flush_fwd() {
    while (!outbox.empty()) {
      const std::vector<uint8_t>& front = outbox.front();
      ssize_t n = ::send(fwd_fd, front.data() + outbox_off, front.size() - outbox_off,
                         MSG_NOSIGNAL);
      if (n > 0) {
        outbox_off += static_cast<size_t>(n);
        if (outbox_off == front.size()) {
          outbox.pop_front();
          outbox_off = 0;
          forwarded.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;  // wait POLLOUT
      fwd_lost();
      return;
    }
  }

  void release_due() {
    Tick now = now_us();
    while (!pending.empty() && pending.front().release_us <= now) {
      std::pop_heap(pending.begin(), pending.end(), pending_after);
      if (fwd_dead) {
        dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        outbox.push_back(std::move(pending.back().bytes));
      }
      pending.pop_back();
    }
    if (fwd_fd >= 0 && !fwd_connecting && !outbox.empty()) flush_fwd();
  }

  void loop() {
    while (running.load(std::memory_order_acquire)) {
      if (fwd_fd < 0 && !fwd_dead && now_us() >= next_connect_us) try_connect();
      release_due();

      std::vector<pollfd> pfds;
      pfds.push_back({listen_fd, POLLIN, 0});
      pfds.push_back({wake_fds[0], POLLIN, 0});
      const size_t inbound_base = pfds.size();
      const size_t polled = inbound.size();
      for (Inbound& c : inbound) pfds.push_back({c.fd, POLLIN, 0});
      int fwd_slot = -1;
      if (fwd_fd >= 0) {
        short ev = POLLIN;  // node never writes back; readable = EOF/RST
        if (fwd_connecting || !outbox.empty()) ev |= POLLOUT;
        fwd_slot = static_cast<int>(pfds.size());
        pfds.push_back({fwd_fd, ev, 0});
      }

      Tick now = now_us();
      Tick wake_at = now + 50'000;  // 50 ms upper bound
      if (!pending.empty() && pending.front().release_us < wake_at) {
        wake_at = pending.front().release_us;
      }
      if (fwd_fd < 0 && !fwd_dead && next_connect_us < wake_at) wake_at = next_connect_us;
      int timeout_ms = wake_at > now ? static_cast<int>((wake_at - now) / 1000) + 1 : 0;

      int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }

      if (pfds[1].revents & POLLIN) {
        char buf[64];
        while (::read(wake_fds[0], buf, sizeof buf) > 0) {
        }
      }
      if (pfds[0].revents & POLLIN) accept_peers();
      if (fwd_slot >= 0 && fwd_fd >= 0 && pfds[fwd_slot].fd == fwd_fd) {
        short re = pfds[fwd_slot].revents;
        if (fwd_connecting && (re & (POLLOUT | POLLERR | POLLHUP))) {
          int err = 0;
          socklen_t len = sizeof err;
          ::getsockopt(fwd_fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err == 0) {
            fwd_connecting = false;
          } else {
            ::close(fwd_fd);
            fwd_fd = -1;
            fwd_connecting = false;
            connect_fail();
          }
        } else if (!fwd_connecting) {
          if (re & (POLLERR | POLLHUP | POLLIN)) {
            // Readable data would be unexpected chatter; either way the
            // forward channel is gone only on EOF/error — peek to tell.
            char tmp[256];
            ssize_t n = ::recv(fwd_fd, tmp, sizeof tmp, MSG_DONTWAIT);
            if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                           errno != EINTR)) {
              fwd_lost();
            }
          }
          if (fwd_fd >= 0 && (re & POLLOUT)) flush_fwd();
        }
      }
      // Walk only the connections that were polled: accept_peers() above
      // appended new ones past them (no pollfd yet; next pass polls them).
      // Erasing keeps order, so polled entry k is always inbound[i].
      for (size_t k = 0, i = 0; k < polled; ++k) {
        if ((pfds[inbound_base + k].revents & (POLLIN | POLLERR | POLLHUP)) &&
            !read_inbound(inbound[i])) {
          ::close(inbound[i].fd);
          inbound.erase(inbound.begin() + static_cast<ptrdiff_t>(i));
          continue;
        }
        ++i;
      }
    }
  }

  void accept_peers() {
    for (;;) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      set_nonblock(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      inbound.push_back({fd, {}});
    }
  }

  /// Returns false when the connection is finished (EOF or hard error).
  bool read_inbound(Inbound& c) {
    for (;;) {
      uint8_t buf[4096];
      ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.buf.insert(c.buf.end(), buf, buf + n);
        Packet p;
        while (net::decode_frame(c.buf, p)) process_frame(p);
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
  }
};

DelayProxy::DelayProxy(ProxyOptions opts) : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(opts);
  impl_->rng = impl_->opts.seed ? impl_->opts.seed
                                : 0x9E3779B9u + impl_->opts.target * 2654435761u;
}

DelayProxy::~DelayProxy() { stop(); }

void DelayProxy::start() {
  Impl& im = *impl_;
  if (im.running.load()) return;
  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) throw std::runtime_error("proxy: socket() failed");
  int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.opts.listen_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(im.listen_fd, 64) < 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
    throw std::runtime_error("proxy: bind/listen failed on port " +
                             std::to_string(im.opts.listen_port));
  }
  set_nonblock(im.listen_fd);
  if (::pipe(im.wake_fds) < 0) throw std::runtime_error("proxy: pipe() failed");
  set_nonblock(im.wake_fds[0]);
  set_nonblock(im.wake_fds[1]);
  im.running.store(true, std::memory_order_release);
  im.thread = std::thread([this] { impl_->loop(); });
}

void DelayProxy::stop() {
  Impl& im = *impl_;
  if (!im.running.exchange(false)) {
    return;
  }
  if (im.wake_fds[1] >= 0) {
    char b = 1;
    [[maybe_unused]] ssize_t n = ::write(im.wake_fds[1], &b, 1);
  }
  if (im.thread.joinable()) im.thread.join();
  for (Impl::Inbound& c : im.inbound) ::close(c.fd);
  im.inbound.clear();
  if (im.fwd_fd >= 0) ::close(im.fwd_fd);
  im.fwd_fd = -1;
  if (im.listen_fd >= 0) ::close(im.listen_fd);
  im.listen_fd = -1;
  for (int i = 0; i < 2; ++i) {
    if (im.wake_fds[i] >= 0) ::close(im.wake_fds[i]);
    im.wake_fds[i] = -1;
  }
}

Tick DelayProxy::last_protocol_activity_us() const {
  return impl_->last_protocol_us.load(std::memory_order_relaxed);
}

uint64_t DelayProxy::frames_forwarded() const {
  return impl_->forwarded.load(std::memory_order_relaxed);
}

uint64_t DelayProxy::frames_dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

std::string DelayProxy::summary(Tick t) const {
  std::ostringstream os;
  os << "proxy[" << impl_->opts.target << "]: forwarded=" << frames_forwarded()
     << " dropped=" << frames_dropped();
  std::string spans = impl_->opts.plan.active_summary(t);
  if (!spans.empty()) os << " active={" << spans << "}";
  if (impl_->fwd_dead) os << " node-dead";
  return os.str();
}

}  // namespace gmpx::realexec
