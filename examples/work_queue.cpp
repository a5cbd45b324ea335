// Subdivided computation: the paper's "subdivide a computation" motivation
// (S1), driven through the real soak-harness application (app::WorkQueue,
// the same code the `gmpx_fuzz --soak` oracles judge at scale).
//
// Clients submit work items to the group coordinator, the coordinator
// assigns them round-robin over the view, workers execute and report.  The
// task table is replicated at every member, so when a worker dies the
// coordinator reclaims its items off the new view alone — every member
// sees the identical view sequence (GMP-3), so orphan ownership is
// unambiguous.  Execution is at-least-once across views; within one view
// an item has at most one claimant (the soak oracle APP-Q2).
//
//   build/examples/example_work_queue
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "app/app_trace.hpp"
#include "app/work_queue.hpp"
#include "group/process_group.hpp"
#include "harness/cluster.hpp"

using namespace gmpx;

namespace {

constexpr size_t kN = 4;
constexpr size_t kItems = 6;

struct Member {
  std::unique_ptr<group::ProcessGroup> group;
  std::unique_ptr<app::WorkQueue> queue;
};

}  // namespace

int main() {
  harness::ClusterOptions o;
  o.n = kN;
  o.seed = 123;
  harness::Cluster c(o);

  app::AppTrace trace;
  std::vector<Member> members(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    Member& m = members[p];
    m.group = std::make_unique<group::ProcessGroup>(&c.node(p));
    m.queue = std::make_unique<app::WorkQueue>(
        m.group.get(), &trace, [&c, p]() { return c.world().context_of(p); });
    m.group->on_message([&members, p](ProcessId from, std::string_view payload) {
      members[p].queue->handle(from, payload);
    });
    m.group->on_view_change([&members, p](const gmp::View&) { members[p].queue->on_view(); });
  }

  std::printf("work-queue group {0,1,2,3}; p0 coordinates\n\n");
  c.start();
  c.world().at(100, [&] {
    for (size_t i = 0; i < kItems; ++i) members[0].queue->client_submit();
    std::printf("  [p0] accepted %zu work items\n", kItems);
  });
  // A worker dies mid-computation; its items must be reclaimed + re-run.
  std::printf("-- t=110: worker p2 crashes --\n");
  c.crash_at(110, 2);
  c.run_to_quiescence();

  // Narrate the replicated trace: who executed what, and what was
  // reclaimed from the dead worker.
  size_t execs = 0, reclaims = 0;
  for (const app::AppEvent& e : trace.events()) {
    if (e.kind == app::AppEventKind::kExec) {
      std::printf("  item %u.%u executed by p%u\n", app::app_id_view(e.id),
                  app::app_id_seq(e.id), e.actor);
      ++execs;
    } else if (e.kind == app::AppEventKind::kReclaim) {
      std::printf("  item %u.%u reclaimed from departed p%u\n", app::app_id_view(e.id),
                  app::app_id_seq(e.id), e.peer);
      ++reclaims;
    }
  }
  std::printf("\nexecutions: %zu (at-least-once: >= %zu), reclaims: %zu\n", execs, kItems,
              reclaims);

  bool all_done = true;
  for (ProcessId p = 0; p < kN; ++p) {
    if (p == 2) continue;  // crashed
    if (!members[p].queue->all_done()) all_done = false;
  }
  std::printf("every survivor sees all %zu items done: %s\n", kItems, all_done ? "yes" : "NO");

  auto res = c.check();
  std::printf("membership checker: %s\n", res.ok() ? "ok" : res.message().c_str());
  return res.ok() && all_done && execs >= kItems ? 0 : 1;
}
