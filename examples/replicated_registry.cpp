// Replicated registry: a primary-backup key-value store built on the
// membership service — the paper's data-base-flavoured motivation (S1).
//
// This example drives the real soak-harness application (app::Registry,
// the same code the `gmpx_fuzz --soak` oracles judge over week-long
// horizons).  The group coordinator (Mgr) doubles as the registry primary:
// it accepts writes and replicates them to the current view.  When the
// primary crashes, reconfiguration elects the next-senior member, which —
// because GMP-3 gives every member the identical view sequence — is the
// *same* choice at every survivor: failover needs no extra election
// protocol.  Write ids embed the committing view ((view << 32) | seq), so
// the value space stays totally ordered across failovers and replication
// is merge-monotone last-writer-wins.
//
//   build/examples/example_replicated_registry
#include <cstdio>
#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "app/app_trace.hpp"
#include "app/registry.hpp"
#include "group/process_group.hpp"
#include "harness/cluster.hpp"

using namespace gmpx;

namespace {

constexpr size_t kN = 4;

struct Member {
  std::unique_ptr<group::ProcessGroup> group;
  std::unique_ptr<app::Registry> registry;
};

}  // namespace

int main() {
  harness::ClusterOptions o;
  o.n = kN;
  o.seed = 77;
  harness::Cluster c(o);

  app::AppTrace trace;
  std::vector<Member> members(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    Member& m = members[p];
    m.group = std::make_unique<group::ProcessGroup>(&c.node(p));
    m.registry = std::make_unique<app::Registry>(
        m.group.get(), &trace, [&c, p]() { return c.world().context_of(p); });
    m.group->on_message([&members, p](ProcessId from, std::string_view payload) {
      members[p].registry->handle(from, payload);
    });
    m.group->on_view_change([&members, p](const gmp::View& v) {
      if (members[p].group->is_coordinator()) {
        std::printf("  [p%u] now primary of view v%u\n", p, v.version());
      }
    });
  }

  auto write = [&](ProcessId p, uint32_t key) {
    const bool accepted = members[p].registry->client_write(key);
    std::printf("  [p%u] write(key=%u): %s\n", p, key,
                accepted ? "committed and replicated" : "rejected — not primary");
  };

  std::printf("registry group {0,1,2,3}; p0 is the initial primary\n\n");
  c.start();

  // Scripted client traffic against the primary, with a failover between.
  c.world().at(200, [&] { write(0, 1); });
  c.world().at(400, [&] { write(0, 2); });
  c.world().at(600, [&] { write(2, 3); });  // a backup rejects client writes

  std::printf("-- t=1000: primary p0 crashes --\n");
  c.crash_at(1000, 0);

  // After failover the next-senior member p1 is primary everywhere.
  c.world().at(3000, [&] { write(1, 3); });

  c.run_to_quiescence();

  std::printf("\nfinal replica state (key = view.seq of last write):\n");
  for (ProcessId p = 1; p < kN; ++p) {
    std::ostringstream os;
    for (auto& [k, wid] : members[p].registry->data()) {
      os << k << "=" << app::app_id_view(wid) << "." << app::app_id_seq(wid) << " ";
    }
    std::printf("  p%u: %s\n", p, os.str().c_str());
  }
  auto res = c.check();
  std::printf("\nmembership checker: %s\n", res.ok() ? "ok" : res.message().c_str());
  return res.ok() ? 0 : 1;
}
