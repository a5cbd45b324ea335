// Tests for the TCP runtime: frame codec, point-to-point delivery and FIFO
// over real sockets, timer behaviour, a full GMP group over localhost, and
// the real-deployment fault proxy (delay/loss/partition round-trips).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "fd/heartbeat.hpp"
#include "gmp/node.hpp"
#include "net/tcp_runtime.hpp"
#include "realexec/proxy.hpp"

using namespace gmpx;
using namespace std::chrono_literals;

namespace {

uint16_t base_port() {
  // Spread ports across runs to dodge TIME_WAIT collisions.  Below the
  // Linux ephemeral range (32768+) so outgoing connections can't squat a
  // port a listener needs; clear of realexec_test (23000+) and tcp_smoke
  // (25000+).
  static std::atomic<uint16_t> next{21000};
  return next.fetch_add(20);
}

/// The members of `node`'s view, read on `rt`'s loop thread (the thread
/// that writes the view), or nullopt when the loop does not answer within
/// a second.  The answer is shared so a late reply never writes through a
/// dangling reference.
std::optional<std::vector<ProcessId>> members_on_loop(net::TcpRuntime& rt,
                                                      const gmp::GmpNode& node) {
  auto answer = std::make_shared<std::promise<std::vector<ProcessId>>>();
  std::future<std::vector<ProcessId>> view = answer->get_future();
  rt.post([answer, &node] { answer->set_value(node.view().sorted_members()); });
  if (view.wait_for(1s) != std::future_status::ready) return std::nullopt;
  return view.get();
}

struct Collector : Actor {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Packet> received;
  void on_packet(Context&, const Packet& p) override {
    std::lock_guard lock(mu);
    received.push_back(p);
    cv.notify_all();
  }
  bool wait_for(size_t n, std::chrono::milliseconds d) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, d, [&] { return received.size() >= n; });
  }
};

}  // namespace

TEST(NetFrame, RoundTrip) {
  Packet p{3, 7, 42, {1, 2, 3, 4, 5}};
  auto frame = net::encode_frame(p);
  std::vector<uint8_t> buf = frame;
  Packet out;
  ASSERT_TRUE(net::decode_frame(buf, out));
  EXPECT_EQ(out.from, 3u);
  EXPECT_EQ(out.to, 7u);
  EXPECT_EQ(out.kind, 42u);
  EXPECT_EQ(out.bytes, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(buf.empty());
}

TEST(NetFrame, PartialFrameWaits) {
  Packet p{1, 2, 9, {7, 7}};
  auto frame = net::encode_frame(p);
  std::vector<uint8_t> buf(frame.begin(), frame.begin() + 6);
  Packet out;
  EXPECT_FALSE(net::decode_frame(buf, out));
  buf.insert(buf.end(), frame.begin() + 6, frame.end());
  EXPECT_TRUE(net::decode_frame(buf, out));
  EXPECT_EQ(out.bytes.size(), 2u);
}

TEST(NetFrame, TwoFramesInOneBuffer) {
  auto f1 = net::encode_frame(Packet{1, 2, 9, {1}});
  auto f2 = net::encode_frame(Packet{1, 2, 9, {2}});
  std::vector<uint8_t> buf = f1;
  buf.insert(buf.end(), f2.begin(), f2.end());
  Packet a, b;
  ASSERT_TRUE(net::decode_frame(buf, a));
  ASSERT_TRUE(net::decode_frame(buf, b));
  EXPECT_EQ(a.bytes[0], 1);
  EXPECT_EQ(b.bytes[0], 2);
}

TEST(NetFrame, CorruptLengthThrows) {
  std::vector<uint8_t> buf{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0};
  Packet out;
  EXPECT_THROW(net::decode_frame(buf, out), CodecError);
}

TEST(Net, PointToPointDeliveryAndFifo) {
  uint16_t bp = base_port();
  std::map<ProcessId, net::PeerAddress> peers{
      {0, {"127.0.0.1", bp}},
      {1, {"127.0.0.1", static_cast<uint16_t>(bp + 1)}},
  };
  Collector sink;
  struct Burst : Actor {
    void on_start(Context& ctx) override {
      for (uint8_t i = 0; i < 100; ++i) ctx.send(Packet{0, 1, 9, {i}});
    }
    void on_packet(Context&, const Packet&) override {}
  } burst;
  net::TcpRuntime r1(1, peers, &sink);
  r1.start();
  net::TcpRuntime r0(0, peers, &burst);
  r0.start();
  ASSERT_TRUE(sink.wait_for(100, 5000ms));
  std::lock_guard lock(sink.mu);
  ASSERT_EQ(sink.received.size(), 100u);
  for (uint8_t i = 0; i < 100; ++i) {
    EXPECT_EQ(sink.received[i].bytes[0], i);  // FIFO preserved
    EXPECT_EQ(sink.received[i].from, 0u);
  }
  r0.stop();
  r1.stop();
}

TEST(Net, ConnectRetrySurvivesLateListener) {
  uint16_t bp = base_port();
  std::map<ProcessId, net::PeerAddress> peers{
      {0, {"127.0.0.1", bp}},
      {1, {"127.0.0.1", static_cast<uint16_t>(bp + 1)}},
  };
  struct Once : Actor {
    void on_start(Context& ctx) override { ctx.send(Packet{0, 1, 9, {42}}); }
    void on_packet(Context&, const Packet&) override {}
  } once;
  Collector sink;
  net::TcpRuntime r0(0, peers, &once);
  r0.start();  // peer 1 not listening yet: message must be retried
  std::this_thread::sleep_for(300ms);
  net::TcpRuntime r1(1, peers, &sink);
  r1.start();
  EXPECT_TRUE(sink.wait_for(1, 5000ms));
  r0.stop();
  r1.stop();
}

TEST(Net, PeerRestartReconnect) {
  uint16_t bp = base_port();
  std::map<ProcessId, net::PeerAddress> peers{
      {0, {"127.0.0.1", bp}},
      {1, {"127.0.0.1", static_cast<uint16_t>(bp + 1)}},
  };
  struct Idle : Actor {
    void on_packet(Context&, const Packet&) override {}
  } idle;
  net::TcpRuntime r0(0, peers, &idle);
  r0.start();

  auto incarnation = std::make_unique<Collector>();
  auto r1 = std::make_unique<net::TcpRuntime>(1, peers, incarnation.get());
  r1->start();
  r0.post([](Context& ctx) { ctx.send(Packet{0, 1, 9, {1}}); });
  ASSERT_TRUE(incarnation->wait_for(1, 5000ms));

  // Restart the peer on the same port.  The sender's established connection
  // is now dead; the contract allows frames in flight at the moment of
  // death to be lost (quit_p semantics), but the connection must be
  // re-established — a send loop has to get through to the new incarnation.
  r1.reset();
  incarnation = std::make_unique<Collector>();
  r1 = std::make_unique<net::TcpRuntime>(1, peers, incarnation.get());
  r1->start();
  bool delivered = false;
  for (int i = 0; i < 100 && !delivered; ++i) {
    r0.post([](Context& ctx) { ctx.send(Packet{0, 1, 9, {2}}); });
    delivered = incarnation->wait_for(1, 100ms);
  }
  EXPECT_TRUE(delivered);
  r0.stop();
  r1->stop();
}

TEST(Net, HalfOpenInboundDoesNotWedgeListener) {
  uint16_t bp = base_port();
  std::map<ProcessId, net::PeerAddress> peers{
      {0, {"127.0.0.1", bp}},
      {1, {"127.0.0.1", static_cast<uint16_t>(bp + 1)}},
  };
  Collector sink;
  net::TcpRuntime r1(1, peers, &sink);
  r1.start();

  // A client that dies mid-frame: connect raw, write half a frame header,
  // then reset the connection (SO_LINGER 0 turns close() into RST).  The
  // listener must reap the dead inbound connection instead of waiting
  // forever for the rest of the frame.
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(bp + 1));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (int i = 0; i < 100; ++i) {
    if (::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) break;
    std::this_thread::sleep_for(10ms);
  }
  uint8_t partial[6] = {32, 0, 0, 0, 0, 0};  // length says 32; body never comes
  ASSERT_EQ(::send(raw, partial, sizeof partial, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof partial));
  struct linger lg{1, 0};
  ::setsockopt(raw, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  ::close(raw);

  // A well-behaved sender must still get through.
  struct Once : Actor {
    void on_start(Context& ctx) override { ctx.send(Packet{0, 1, 9, {7}}); }
    void on_packet(Context&, const Packet&) override {}
  } once;
  net::TcpRuntime r0(0, peers, &once);
  r0.start();
  EXPECT_TRUE(sink.wait_for(1, 5000ms));
  r0.stop();
  r1.stop();
}

namespace {

// Proxy round-trip scaffolding: sender 0 reaches collector 1 only through a
// DelayProxy fronting 1, exactly the real-deployment topology.
struct ProxyRig {
  uint16_t bp;
  std::map<ProcessId, net::PeerAddress> sender_peers;
  Collector sink;
  std::unique_ptr<net::TcpRuntime> r1;
  std::unique_ptr<realexec::DelayProxy> proxy;
  Tick epoch;

  explicit ProxyRig(realexec::FaultPlan plan) : bp(base_port()) {
    // Node 1 really binds bp+1; its public address (what 0 dials) is the
    // proxy's listen port bp+2.
    std::map<ProcessId, net::PeerAddress> node_peers{
        {1, {"127.0.0.1", static_cast<uint16_t>(bp + 1)}}};
    sender_peers = {{0, {"127.0.0.1", bp}},
                    {1, {"127.0.0.1", static_cast<uint16_t>(bp + 2)}}};
    r1 = std::make_unique<net::TcpRuntime>(1, node_peers, &sink);
    r1->start();
    epoch = net::monotonic_now_us();
    realexec::ProxyOptions popts;
    popts.target = 1;
    popts.listen_port = static_cast<uint16_t>(bp + 2);
    popts.node_port = static_cast<uint16_t>(bp + 1);
    popts.epoch_us = epoch;
    popts.tick_us = 100;
    popts.seed = 7;
    popts.plan = std::move(plan);
    proxy = std::make_unique<realexec::DelayProxy>(popts);
    proxy->start();
  }
  ~ProxyRig() {
    proxy->stop();
    r1->stop();
  }
  Tick elapsed_us() const { return net::monotonic_now_us() - epoch; }
};

}  // namespace

TEST(NetProxy, StormDelaysProtocolFrame) {
  // Permanent storm: every frame waits exactly 1500 ticks = 150ms.
  realexec::FaultPlan plan;
  plan.storms.push_back({0, realexec::FaultPlan::kNever, 1500, 1500});
  ProxyRig rig(std::move(plan));

  struct Once : Actor {
    void on_start(Context& ctx) override { ctx.send(Packet{0, 1, 20, {9}}); }
    void on_packet(Context&, const Packet&) override {}
  } once;
  net::TcpRuntime r0(0, rig.sender_peers, &once);
  r0.start();
  ASSERT_TRUE(rig.sink.wait_for(1, 5000ms));
  // The frame entered the proxy at some tick > 0, so it cannot be released
  // before epoch + 150ms.  (Scheduling noise only adds delay.)
  EXPECT_GE(rig.elapsed_us(), 150'000u);
  EXPECT_EQ(rig.proxy->frames_forwarded(), 1u);
  r0.stop();
}

TEST(NetProxy, PartitionHoldsUntilHeal) {
  // Two-way cut around sender 0 from tick 0, healing at tick 2000 = 200ms:
  // the frame must be held, then released by the heal, not dropped.
  realexec::FaultPlan plan;
  plan.cuts.push_back({0, 2000, false, {0}});
  plan.heal_times = {2000};
  ProxyRig rig(std::move(plan));

  struct Once : Actor {
    void on_start(Context& ctx) override { ctx.send(Packet{0, 1, 20, {9}}); }
    void on_packet(Context&, const Packet&) override {}
  } once;
  net::TcpRuntime r0(0, rig.sender_peers, &once);
  r0.start();
  ASSERT_TRUE(rig.sink.wait_for(1, 5000ms));
  EXPECT_GE(rig.elapsed_us(), 200'000u);
  EXPECT_EQ(rig.proxy->frames_dropped(), 0u);
  r0.stop();
}

TEST(NetProxy, LossDropsBackgroundKeepsProtocol) {
  // loss=1000 permille: every background frame dies, deterministically —
  // but protocol frames are exempt (the paper's channels stay reliable).
  realexec::FaultPlan plan;
  plan.faults.push_back({0, realexec::FaultPlan::kNever, 1000, 0, 0, 48});
  ProxyRig rig(std::move(plan));

  struct Burst : Actor {
    void on_start(Context& ctx) override {
      for (uint8_t i = 0; i < 10; ++i)
        ctx.send(Packet{0, 1, gmp::kind::kHeartbeat, {i}});
      ctx.send(Packet{0, 1, 20, {42}});
    }
    void on_packet(Context&, const Packet&) override {}
  } burst;
  net::TcpRuntime r0(0, rig.sender_peers, &burst);
  r0.start();
  ASSERT_TRUE(rig.sink.wait_for(1, 5000ms));
  std::this_thread::sleep_for(100ms);  // any stray survivor would land now
  {
    std::lock_guard lock(rig.sink.mu);
    ASSERT_EQ(rig.sink.received.size(), 1u);
    EXPECT_EQ(rig.sink.received[0].kind, 20u);
    EXPECT_EQ(rig.sink.received[0].bytes[0], 42u);
  }
  EXPECT_EQ(rig.proxy->frames_dropped(), 10u);
  r0.stop();
}

TEST(Net, FullGroupOverLocalhost) {
  uint16_t bp = base_port();
  constexpr size_t kN = 4;
  std::map<ProcessId, net::PeerAddress> peers;
  std::vector<ProcessId> everyone;
  for (ProcessId p = 0; p < kN; ++p) {
    peers[p] = {"127.0.0.1", static_cast<uint16_t>(bp + p)};
    everyone.push_back(p);
  }
  std::vector<std::unique_ptr<gmp::GmpNode>> nodes;
  std::vector<std::unique_ptr<fd::HeartbeatFd>> fds;
  std::vector<std::unique_ptr<net::TcpRuntime>> rts;
  for (ProcessId p = 0; p < kN; ++p) {
    gmp::Config cfg;
    cfg.initial_members = everyone;
    nodes.push_back(std::make_unique<gmp::GmpNode>(p, cfg));
    fd::HeartbeatOptions hb;
    hb.interval = 20'000;   // 20ms in microsecond ticks
    hb.timeout = 120'000;   // 120ms
    fds.push_back(std::make_unique<fd::HeartbeatFd>(nodes.back().get(), hb));
    rts.push_back(std::make_unique<net::TcpRuntime>(p, peers, fds.back().get()));
  }
  for (auto& rt : rts) rt->start();
  std::this_thread::sleep_for(400ms);
  rts[3]->stop();  // kill p3

  // Wait (bounded) for survivors to converge on {0,1,2}.
  bool converged = false;
  for (int i = 0; i < 100 && !converged; ++i) {
    std::this_thread::sleep_for(50ms);
    converged = true;
    for (ProcessId p = 0; p < 3; ++p) {
      converged = converged && members_on_loop(*rts[p], *nodes[p]) ==
                                   std::vector<ProcessId>({0, 1, 2});
    }
  }
  EXPECT_TRUE(converged);
  for (auto& rt : rts) rt->stop();
}
