// Tests for the ProcessGroup application toolkit: view callbacks in agreed
// order, coordinator awareness, payload delivery, future-view buffering.
#include <gtest/gtest.h>

#include <memory>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.hpp"
#include "group/process_group.hpp"
#include "harness/cluster.hpp"

using namespace gmpx;
using harness::Cluster;
using harness::ClusterOptions;

namespace {

struct Fixture {
  explicit Fixture(size_t n, uint64_t seed) : cluster([&] {
    ClusterOptions o;
    o.n = n;
    o.seed = seed;
    return o;
  }()) {
    for (ProcessId p = 0; p < n; ++p) {
      groups.push_back(std::make_unique<group::ProcessGroup>(&cluster.node(p)));
    }
  }
  Cluster cluster;
  std::vector<std::unique_ptr<group::ProcessGroup>> groups;
};

}  // namespace

TEST(Group, ViewCallbacksFireInAgreedOrder) {
  Fixture f(4, 1001);
  std::map<ProcessId, std::vector<ViewVersion>> seen;
  for (ProcessId p = 0; p < 4; ++p) {
    f.groups[p]->on_view_change([&seen, p](const gmp::View& v) {
      seen[p].push_back(v.version());
    });
  }
  f.cluster.start();
  f.cluster.crash_at(100, 3);
  f.cluster.crash_at(3000, 2);
  ASSERT_TRUE(f.cluster.run_to_quiescence());
  for (ProcessId p : {0u, 1u}) {
    EXPECT_EQ(seen[p], (std::vector<ViewVersion>{0, 1, 2})) << "p" << p;
  }
}

TEST(Group, CoordinatorTracksMgr) {
  Fixture f(4, 1003);
  f.cluster.start();
  ASSERT_TRUE(f.cluster.run_to_quiescence());
  EXPECT_TRUE(f.groups[0]->is_coordinator());
  EXPECT_FALSE(f.groups[1]->is_coordinator());
  EXPECT_EQ(f.groups[2]->coordinator(), 0u);
  f.cluster.crash_at(100, 0);
  ASSERT_TRUE(f.cluster.run_to_quiescence());
  EXPECT_TRUE(f.groups[1]->is_coordinator());
  EXPECT_EQ(f.groups[3]->coordinator(), 1u);
}

TEST(Group, UnicastDelivery) {
  Fixture f(3, 1005);
  std::vector<std::pair<ProcessId, std::string>> got;
  f.groups[2]->on_message([&](ProcessId from, std::string_view m) {
    got.emplace_back(from, m);
  });
  f.cluster.start();
  f.cluster.world().at(50, [&] {
    f.groups[0]->send(*f.cluster.world().context_of(0), 2, "hello");
    f.groups[1]->send(*f.cluster.world().context_of(1), 2, "world");
  });
  ASSERT_TRUE(f.cluster.run_to_quiescence());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].second == "hello" ? got[0].first : got[1].first, 0u);
}

TEST(Group, BroadcastReachesCurrentView) {
  Fixture f(5, 1007);
  std::map<ProcessId, int> counts;
  for (ProcessId p = 0; p < 5; ++p) {
    f.groups[p]->on_message([&counts, p](ProcessId, std::string_view) { ++counts[p]; });
  }
  f.cluster.start();
  f.cluster.crash_at(100, 4);
  f.cluster.world().at(3000, [&] {
    f.groups[0]->broadcast(*f.cluster.world().context_of(0), "tick");
  });
  ASSERT_TRUE(f.cluster.run_to_quiescence());
  for (ProcessId p : {1u, 2u, 3u}) EXPECT_EQ(counts[p], 1) << "p" << p;
  EXPECT_EQ(counts[4], 0);  // excluded before the broadcast
}

TEST(Group, FutureViewPayloadIsHeldUntilInstalled) {
  // p0 installs v1 then immediately broadcasts; a slow receiver must not
  // see the payloads before its own v1 install (S3 buffering at app level).
  // A held payload owns its bytes: the packet buffers that carried it go
  // back to the codec pool, and every pooled buffer is taken and rewritten
  // before the hold releases, yet the text arrives intact.
  Fixture f(4, 1009);
  const std::vector<std::string> held = {"from-v1", std::string(300, 'x') + "-tail", "third"};
  std::map<ProcessId, ViewVersion> version_at_delivery;
  std::map<ProcessId, std::vector<std::string>> got;
  for (ProcessId p = 1; p < 4; ++p) {
    f.groups[p]->on_message([&, p](ProcessId from, std::string_view m) {
      if (from != 0) return;
      if (!version_at_delivery.count(p)) version_at_delivery[p] = f.groups[p]->view().version();
      got[p].emplace_back(m);
    });
    // Fires on install, before the held payloads are released.
    f.groups[p]->on_view_change([](const gmp::View&) {
      std::vector<std::vector<uint8_t>> taken;
      for (int i = 0; i < 1024; ++i) {  // the pool's bound: drains it
        Writer w;
        for (int b = 0; b < 512; ++b) w.u8(0xEE);
        taken.push_back(std::move(w).take());
      }
      for (std::vector<uint8_t>& buf : taken) recycle_buffer(std::move(buf));
    });
  }
  f.cluster.start();
  f.groups[0]->on_view_change([&](const gmp::View& v) {
    if (v.version() == 1) {
      // Fires inside p0's commit processing: receivers likely at v0 still.
      for (const std::string& m : held) {
        f.groups[0]->broadcast(*f.cluster.world().context_of(0), m);
      }
    }
  });
  f.cluster.crash_at(100, 3);
  f.cluster.world().at(3000, [&] {
    f.groups[0]->broadcast(*f.cluster.world().context_of(0), "after");
  });
  ASSERT_TRUE(f.cluster.run_to_quiescence());
  std::vector<std::string> expected = held;
  expected.push_back("after");
  for (ProcessId p : {1u, 2u}) {
    ASSERT_TRUE(version_at_delivery.count(p)) << "p" << p << " never got the payload";
    EXPECT_GE(version_at_delivery[p], 1u) << "delivered before view install";
    EXPECT_EQ(got[p], expected) << "p" << p;
  }
}

TEST(Group, JoinerParticipatesAfterAdmission) {
  ClusterOptions o;
  o.n = 3;
  o.seed = 1011;
  Cluster c(o);
  c.add_joiner(100, {0});
  std::vector<std::unique_ptr<group::ProcessGroup>> groups;
  for (ProcessId p = 0; p < 3; ++p)
    groups.push_back(std::make_unique<group::ProcessGroup>(&c.node(p)));
  auto jg = std::make_unique<group::ProcessGroup>(&c.node(100));
  std::string got;
  groups[1]->on_message([&](ProcessId from, std::string_view m) {
    if (from == 100) got = m;
  });
  c.start();
  c.world().at(5000, [&] {
    if (Context* ctx = c.world().context_of(100)) jg->send(*ctx, 1, "joined!");
  });
  ASSERT_TRUE(c.run_to_quiescence());
  EXPECT_TRUE(c.node(100).admitted());
  EXPECT_EQ(got, "joined!");
}
