#include "soak/app_oracle.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/flat_set.hpp"

namespace gmpx::soak {

namespace {

using app::AppEvent;
using app::AppEventKind;

std::string id_str(uint64_t id) {
  std::ostringstream os;
  os << app::app_id_view(id) << "." << app::app_id_seq(id);
  return os.str();
}

/// Non-calm network spans for APP-R4: any scheduled disturbance that can
/// delay or hold application traffic.  Unbounded cuts run to the next
/// scheduled heal (the generator always appends one), else forever.
std::vector<std::pair<Tick, Tick>> busy_spans(const scenario::Schedule& s) {
  std::vector<std::pair<Tick, Tick>> spans;
  for (const scenario::ScheduleEvent& e : s.events) {
    switch (e.type) {
      case scenario::EventType::kDelayStorm:
      case scenario::EventType::kFaults:
        spans.emplace_back(e.at, e.at + e.duration);
        break;
      case scenario::EventType::kPartition:
      case scenario::EventType::kPartitionOneway: {
        Tick end = e.at + e.duration;
        if (e.duration == 0) {
          end = kNeverTick;
          for (const scenario::ScheduleEvent& h : s.events) {
            if (h.type == scenario::EventType::kHeal && h.at >= e.at) {
              end = h.at;
              break;
            }
          }
        }
        spans.emplace_back(e.at, end);
        break;
      }
      default:
        break;
    }
  }
  return spans;
}

bool calm(const std::vector<std::pair<Tick, Tick>>& busy, Tick from, Tick to) {
  for (const auto& [b, e] : busy) {
    if (b <= to && from <= e) return false;
  }
  return true;
}

/// Two 32-bit fields packed into one index key; ascending packed order is
/// the (hi, lo) lexicographic order.
uint64_t pack(uint32_t hi, uint32_t lo) { return (static_cast<uint64_t>(hi) << 32) | lo; }

}  // namespace

trace::CheckResult check_app(const app::AppTrace& app_trace, const trace::Recorder& rec,
                             const scenario::Schedule& schedule,
                             const std::vector<ProcessId>& survivors,
                             const std::vector<ReplicaState>& finals,
                             const AppCheckOptions& opts) {
  trace::CheckResult r;
  const std::vector<AppEvent>& ev = app_trace.events();
  const auto survivor = [&survivors](ProcessId p) {
    return std::binary_search(survivors.begin(), survivors.end(), p);
  };

  // ---- APP-R1: single writer per view, ids committed exactly once ----
  struct Commit {
    ProcessId actor;
    Tick tick;
    uint32_t key;
  };
  FlatMap<uint64_t, Commit> commits;               // wid -> first commit
  FlatMap<ViewVersion, ProcessId> view_committer;  // view -> sole writer
  for (const AppEvent& e : ev) {
    if (e.kind != AppEventKind::kWriteCommit) continue;
    auto [it, fresh] = commits.try_emplace(e.id, Commit{e.actor, e.tick, e.key});
    if (!fresh) {
      r.violations.push_back("APP-R1: write id " + id_str(e.id) + " committed twice (p" +
                             std::to_string(it->second.actor) + " then p" +
                             std::to_string(e.actor) + ")");
      continue;
    }
    if (e.view != app::app_id_view(e.id)) {
      r.violations.push_back("APP-R1: p" + std::to_string(e.actor) + " committed " +
                             id_str(e.id) + " while in view " + std::to_string(e.view));
    }
    auto [vit, vfresh] = view_committer.try_emplace(e.view, e.actor);
    if (!vfresh && vit->second != e.actor) {
      r.violations.push_back("APP-R1: two writers in view " + std::to_string(e.view) + " (p" +
                             std::to_string(vit->second) + " and p" + std::to_string(e.actor) +
                             ")");
    }
  }

  // ---- APP-R2: no phantom applies/reads, monotone per-replica applies ----
  // The newest id each replica applied per key lives in an open-addressed
  // table keyed by pack(actor, key): the keys arrive in no order, so a
  // sorted map would pay a middle insert and a branchy search per apply.
  // A slot whose `last` is 0 is empty, which is also the value an absent
  // key reads as; only ids above 0 are ever stored.  The table is at most
  // half full, so every probe ends.
  struct LastApplied {
    uint64_t actor_key;
    uint64_t last;
  };
  size_t applies = 0;
  for (const AppEvent& e : ev) applies += e.kind == AppEventKind::kApply;
  unsigned bits = 4;
  while ((size_t{1} << bits) < 2 * applies) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<LastApplied> last_applied(mask + 1, LastApplied{0, 0});
  for (const AppEvent& e : ev) {
    if (e.kind == AppEventKind::kApply) {
      auto it = commits.find(e.id);
      if (it == commits.end() || it->second.key != e.key) {
        r.violations.push_back("APP-R2: p" + std::to_string(e.actor) + " applied phantom write " +
                               id_str(e.id) + " for key " + std::to_string(e.key));
        continue;
      }
      const uint64_t actor_key = pack(e.actor, e.key);
      size_t i = (actor_key * 0x9E3779B97F4A7C15ull) >> (64 - bits);
      while (last_applied[i].last != 0 && last_applied[i].actor_key != actor_key) {
        i = (i + 1) & mask;
      }
      LastApplied& slot = last_applied[i];
      if (e.id <= slot.last) {
        r.violations.push_back("APP-R2: p" + std::to_string(e.actor) +
                               " applied non-monotone write " + id_str(e.id) + " after " +
                               id_str(slot.last) + " for key " + std::to_string(e.key));
      } else {
        slot = LastApplied{actor_key, e.id};
      }
    } else if (e.kind == AppEventKind::kRead && e.id != 0) {
      auto it = commits.find(e.id);
      if (it == commits.end() || it->second.key != e.key) {
        r.violations.push_back("APP-R2: p" + std::to_string(e.actor) + " read phantom write " +
                               id_str(e.id) + " for key " + std::to_string(e.key));
      }
    }
  }

  // ---- APP-R4: bounded staleness over calm spans ----
  {
    const std::vector<std::pair<Tick, Tick>> busy = busy_spans(schedule);
    // Install tick of (process, view version); initial members hold the
    // commonly-known view 0 from tick 0 (never recorded as an install).
    FlatMap<uint64_t, Tick> installs;  // pack(actor, version) -> first install
    rec.for_each_event([&](const trace::Event& me) {
      if (me.kind == trace::EventKind::kInstall) {
        installs.try_emplace(pack(me.actor, me.version), me.tick);
      }
    });
    const std::vector<ProcessId>& initial = rec.initial_membership();
    // Commits bucketed per (key, view) for the expected-visibility scan:
    // sorted by (pack(key, view), wid), so a bucket is one contiguous run.
    struct Bucketed {
      uint64_t key_view;
      uint64_t wid;
      Tick tick;
    };
    std::vector<Bucketed> by_key_view;
    by_key_view.reserve(commits.size());
    for (const auto& [wid, c] : commits) {
      by_key_view.push_back({pack(c.key, app::app_id_view(wid)), wid, c.tick});
    }
    std::sort(by_key_view.begin(), by_key_view.end(), [](const Bucketed& a, const Bucketed& b) {
      return a.key_view != b.key_view ? a.key_view < b.key_view : a.wid < b.wid;
    });
    for (const AppEvent& e : ev) {
      if (e.kind != AppEventKind::kRead) continue;
      const uint64_t key_view = pack(e.key, e.view);
      auto bucket = std::lower_bound(
          by_key_view.begin(), by_key_view.end(), key_view,
          [](const Bucketed& b, uint64_t kv) { return b.key_view < kv; });
      if (bucket == by_key_view.end() || bucket->key_view != key_view) continue;
      Tick install_tick = 0;
      if (auto it = installs.find(pack(e.actor, e.view)); it != installs.end()) {
        install_tick = it->second;
      } else if (!(e.view == 0 &&
                   std::find(initial.begin(), initial.end(), e.actor) != initial.end())) {
        continue;  // reader's install of this view is unknown: don't judge
      }
      uint64_t expected = 0;
      Tick expected_commit = 0;
      for (auto c = bucket; c != by_key_view.end() && c->key_view == key_view; ++c) {
        if (std::max(c->tick, install_tick) + opts.staleness_bound > e.tick) continue;
        if (!calm(busy, c->tick, e.tick)) continue;
        if (c->wid > expected) {
          expected = c->wid;
          expected_commit = c->tick;
        }
      }
      if (expected != 0 && e.id < expected) {
        r.violations.push_back(
            "APP-R4: p" + std::to_string(e.actor) + " served key " + std::to_string(e.key) +
            " = " + id_str(e.id) + " at t=" + std::to_string(e.tick) + " but " +
            id_str(expected) + " committed in the same view at t=" +
            std::to_string(expected_commit) + " (bound " +
            std::to_string(opts.staleness_bound) + ")");
      }
    }
  }

  // ---- APP-Q2: single claim per view (and unique submit ids) ----
  {
    FlatSet<uint64_t> submitted_ids;
    for (const AppEvent& e : ev) {
      if (e.kind != AppEventKind::kSubmit) continue;
      if (!submitted_ids.insert(e.id).second) {
        r.violations.push_back("APP-Q2: work item " + id_str(e.id) + " submitted twice");
      }
    }
    struct Claim {
      ViewVersion view = 0;
      ProcessId worker = kNilId;
      bool live = false;
    };
    FlatMap<uint64_t, Claim> claims;
    for (const AppEvent& e : ev) {
      switch (e.kind) {
        case AppEventKind::kAssign: {
          Claim& c = claims[e.id];
          if (c.live && c.view == e.view && c.worker != e.peer) {
            r.violations.push_back("APP-Q2: work item " + id_str(e.id) +
                                   " claimed by p" + std::to_string(c.worker) + " and p" +
                                   std::to_string(e.peer) + " in view " +
                                   std::to_string(e.view));
          }
          c.view = e.view;
          c.worker = e.peer;
          c.live = true;
          break;
        }
        case AppEventKind::kReclaim:
          claims[e.id].live = false;
          break;
        case AppEventKind::kTaskDone:
          claims[e.id].live = false;
          break;
        default:
          break;
      }
    }
  }

  // ---- Terminal clauses (gated like GMP-5) ----
  if (opts.check_terminal) {
    // APP-Q1: submitted items known to a survivor must have completed.
    struct Item {
      bool submitted = false;
      ProcessId submitted_by = kNilId;  ///< first submitter
      bool known = false;               ///< a survivor recorded it
      bool done = false;
    };
    FlatMap<uint64_t, Item> items;
    for (const AppEvent& e : ev) {
      const bool queue_kind =
          e.kind == AppEventKind::kSubmit || e.kind == AppEventKind::kMirror ||
          e.kind == AppEventKind::kAssign || e.kind == AppEventKind::kExec ||
          e.kind == AppEventKind::kTaskDone;
      if (!queue_kind) continue;
      Item& item = items[e.id];
      if (e.kind == AppEventKind::kSubmit && !item.submitted) {
        item.submitted = true;
        item.submitted_by = e.actor;
      }
      if (e.kind == AppEventKind::kTaskDone) item.done = true;
      if (survivor(e.actor)) item.known = true;
    }
    for (const auto& [tid, item] : items) {
      if (!item.submitted) continue;
      if (!item.known) continue;  // died with its holders: resubmit territory
      if (!item.done) {
        r.violations.push_back("APP-Q1: work item " + id_str(tid) + " (submitted by p" +
                               std::to_string(item.submitted_by) +
                               ") known to a survivor but never done");
      }
    }
    for (const ReplicaState& f : finals) {
      for (const auto& [tid, state] : f.queue) {
        if (state != 3) {
          r.violations.push_back("APP-Q1: work item " + id_str(tid) + " stuck in state " +
                                 std::to_string(state) + " at survivor p" +
                                 std::to_string(f.id));
        }
      }
    }

    // APP-R3: surviving replicas converged (registry and queue alike).
    for (size_t i = 1; i < finals.size(); ++i) {
      const ReplicaState& a = finals[0];
      const ReplicaState& b = finals[i];
      if (a.registry != b.registry) {
        r.violations.push_back("APP-R3: registry divergence between survivors p" +
                               std::to_string(a.id) + " and p" + std::to_string(b.id));
      }
      if (a.queue != b.queue) {
        r.violations.push_back("APP-R3: work-queue divergence between survivors p" +
                               std::to_string(a.id) + " and p" + std::to_string(b.id));
      }
    }
  }

  return r;
}

}  // namespace gmpx::soak
