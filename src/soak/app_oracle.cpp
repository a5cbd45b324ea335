#include "soak/app_oracle.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

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
void busy_spans(const scenario::Schedule& s, std::vector<std::pair<Tick, Tick>>& spans) {
  spans.clear();
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

/// Open-addressed map from a 64-bit key to V: linear probing over a
/// power-of-two slot array kept at most half full, Fibonacci hashing.  The
/// keys the oracles use (ids, packed pairs) arrive in no order, where a
/// sorted map would pay a middle insert and a branchy search each.  A new
/// entry's value starts as V{}.  clear() touches only the filled slots and
/// keeps capacity; for_each() visits entries in insertion order.
template <typename V>
class OpenMap {
 public:
  void clear() {
    for (uint32_t i : filled_) slots_[i] = Slot{};
    filled_.clear();
  }

  V* find(uint64_t key) {
    if (slots_.empty()) return nullptr;
    for (size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  /// The entry for `key`, and whether this call created it.
  std::pair<V*, bool> try_emplace(uint64_t key) {
    if (2 * (filled_.size() + 1) > slots_.size()) grow();
    size_t i = home(key);
    for (; slots_[i].used; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i].used = true;
    slots_[i].key = key;
    filled_.push_back(static_cast<uint32_t>(i));
    return {&slots_[i].value, true};
  }

  template <typename F>
  void for_each(F&& f) const {
    for (uint32_t i : filled_) f(slots_[i].key, slots_[i].value);
  }

 private:
  struct Slot {
    uint64_t key = 0;
    bool used = false;
    V value{};
  };

  size_t home(uint64_t key) const { return (key * 0x9E3779B97F4A7C15ull) >> shift_; }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64;
    for (size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    for (uint32_t& i : filled_) {  // re-home in insertion order
      size_t j = home(old[i].key);
      while (slots_[j].used) j = (j + 1) & mask_;
      slots_[j] = old[i];
      i = static_cast<uint32_t>(j);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> filled_;  ///< occupied slots, in insertion order
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

/// What the clauses ask of one id.  Registry write ids and work-item ids
/// share the (view << 32) | seq space, so one entry carries both roles.
struct IdFacts {
  // Registry write (APP-R1, R2, R4): its first commit.
  bool committed = false;
  ProcessId committer = kNilId;
  uint32_t key = 0;
  Tick commit_tick = 0;
  // Work item (APP-Q1).
  bool submitted = false;
  ProcessId submitted_by = kNilId;  ///< first submitter
  bool known = false;               ///< a survivor recorded it
  bool done = false;
  // APP-Q2: the item's current claim, advanced in trace order.
  bool claim_live = false;
  ViewVersion claim_view = 0;
  ProcessId claim_worker = kNilId;
};

/// An APP-Q2 double claim, rendered after the R-clauses.
struct DoubleClaim {
  uint64_t id;
  ProcessId held_by;
  ProcessId claimed_by;
  ViewVersion view;
};

/// A commit filed under (key, view) for APP-R4's expected-visibility scan.
struct Bucketed {
  uint64_t key_view;
  uint64_t wid;
  Tick tick;
};

/// check_app's tables, kept per thread so repeated calls reuse capacity.
struct Scratch {
  OpenMap<IdFacts> ids;
  OpenMap<ProcessId> view_committer;  ///< view -> sole writer
  OpenMap<uint64_t> last_applied;     ///< pack(actor, key) -> newest applied id
  OpenMap<Tick> installs;             ///< pack(actor, version) -> first install
  std::vector<uint32_t> served;      ///< trace positions of applies and reads
  std::vector<uint8_t> is_survivor;  ///< by actor id
  std::vector<Bucketed> by_key_view;
  std::vector<std::pair<Tick, Tick>> busy;
  std::vector<uint64_t> dup_submits;
  std::vector<DoubleClaim> double_claims;
  std::vector<std::pair<uint64_t, ProcessId>> lost;  ///< APP-Q1: (tid, submitter)
};

}  // namespace

trace::CheckResult check_app(const app::AppTrace& app_trace, const trace::Recorder& rec,
                             const scenario::Schedule& schedule,
                             const std::vector<ProcessId>& survivors,
                             const std::vector<ReplicaState>& finals,
                             const AppCheckOptions& opts) {
  trace::CheckResult r;
  const std::vector<AppEvent>& ev = app_trace.events();
  thread_local Scratch scratch;
  Scratch& sc = scratch;
  sc.is_survivor.clear();
  for (ProcessId p : survivors) {
    if (p >= sc.is_survivor.size()) sc.is_survivor.resize(size_t{p} + 1, 0);
    sc.is_survivor[p] = 1;
  }
  const auto survivor = [&sc](ProcessId p) {
    return p < sc.is_survivor.size() && sc.is_survivor[p] != 0;
  };
  sc.ids.clear();
  sc.view_committer.clear();
  sc.last_applied.clear();
  sc.installs.clear();
  sc.served.clear();
  sc.by_key_view.clear();
  sc.dup_submits.clear();
  sc.double_claims.clear();
  sc.lost.clear();

  // ---- One pass: the id index, APP-R1, and APP-Q2's findings ----
  // APP-R1 reports here, in trace order; APP-Q2's findings are kept, in
  // trace order, and reported after APP-R4 as before.  Applies and reads
  // are only noted: APP-R2 needs every commit indexed first.
  for (uint32_t pos = 0; pos < ev.size(); ++pos) {
    const AppEvent& e = ev[pos];
    switch (e.kind) {
      case AppEventKind::kWriteCommit: {
        IdFacts& f = *sc.ids.try_emplace(e.id).first;
        if (f.committed) {
          r.violations.push_back("APP-R1: write id " + id_str(e.id) + " committed twice (p" +
                                 std::to_string(f.committer) + " then p" +
                                 std::to_string(e.actor) + ")");
          break;
        }
        f.committed = true;
        f.committer = e.actor;
        f.key = e.key;
        f.commit_tick = e.tick;
        sc.by_key_view.push_back({pack(e.key, app::app_id_view(e.id)), e.id, e.tick});
        if (e.view != app::app_id_view(e.id)) {
          r.violations.push_back("APP-R1: p" + std::to_string(e.actor) + " committed " +
                                 id_str(e.id) + " while in view " + std::to_string(e.view));
        }
        auto [writer, fresh] = sc.view_committer.try_emplace(e.view);
        if (fresh) {
          *writer = e.actor;
        } else if (*writer != e.actor) {
          r.violations.push_back("APP-R1: two writers in view " + std::to_string(e.view) +
                                 " (p" + std::to_string(*writer) + " and p" +
                                 std::to_string(e.actor) + ")");
        }
        break;
      }
      case AppEventKind::kSubmit:
      case AppEventKind::kMirror:
      case AppEventKind::kAssign:
      case AppEventKind::kExec:
      case AppEventKind::kTaskDone: {
        IdFacts& f = *sc.ids.try_emplace(e.id).first;
        if (survivor(e.actor)) f.known = true;
        if (e.kind == AppEventKind::kSubmit) {
          if (f.submitted) {
            sc.dup_submits.push_back(e.id);
          } else {
            f.submitted = true;
            f.submitted_by = e.actor;
          }
        } else if (e.kind == AppEventKind::kAssign) {
          if (f.claim_live && f.claim_view == e.view && f.claim_worker != e.peer) {
            sc.double_claims.push_back({e.id, f.claim_worker, e.peer, e.view});
          }
          f.claim_view = e.view;
          f.claim_worker = e.peer;
          f.claim_live = true;
        } else if (e.kind == AppEventKind::kTaskDone) {
          f.done = true;
          f.claim_live = false;
        }
        break;
      }
      case AppEventKind::kReclaim:
        sc.ids.try_emplace(e.id).first->claim_live = false;
        break;
      case AppEventKind::kApply:
      case AppEventKind::kRead:
        sc.served.push_back(pos);
        break;
    }
  }

  // ---- APP-R2: no phantom applies/reads, monotone per-replica applies ----
  const auto committed_for = [&sc](uint64_t id, uint32_t key) {
    const IdFacts* f = sc.ids.find(id);
    return f && f->committed && f->key == key;
  };
  for (uint32_t pos : sc.served) {
    const AppEvent& e = ev[pos];
    if (e.kind == AppEventKind::kApply) {
      if (!committed_for(e.id, e.key)) {
        r.violations.push_back("APP-R2: p" + std::to_string(e.actor) + " applied phantom write " +
                               id_str(e.id) + " for key " + std::to_string(e.key));
        continue;
      }
      uint64_t& last = *sc.last_applied.try_emplace(pack(e.actor, e.key)).first;
      if (e.id <= last) {
        r.violations.push_back("APP-R2: p" + std::to_string(e.actor) +
                               " applied non-monotone write " + id_str(e.id) + " after " +
                               id_str(last) + " for key " + std::to_string(e.key));
      } else {
        last = e.id;
      }
    } else if (e.kind == AppEventKind::kRead && e.id != 0 && !committed_for(e.id, e.key)) {
      r.violations.push_back("APP-R2: p" + std::to_string(e.actor) + " read phantom write " +
                             id_str(e.id) + " for key " + std::to_string(e.key));
    }
  }

  // ---- APP-R4: bounded staleness over calm spans ----
  {
    busy_spans(schedule, sc.busy);
    // Install tick of (process, view version); initial members hold the
    // commonly-known view 0 from tick 0 (never recorded as an install).
    rec.for_each_event([&sc](const trace::Event& me) {
      if (me.kind == trace::EventKind::kInstall) {
        auto [tick, fresh] = sc.installs.try_emplace(pack(me.actor, me.version));
        if (fresh) *tick = me.tick;
      }
    });
    const std::vector<ProcessId>& initial = rec.initial_membership();
    // Commits bucketed per (key, view): sorted by (pack(key, view), wid), so
    // a bucket is one contiguous run.
    std::vector<Bucketed>& by_key_view = sc.by_key_view;
    std::sort(by_key_view.begin(), by_key_view.end(), [](const Bucketed& a, const Bucketed& b) {
      return a.key_view != b.key_view ? a.key_view < b.key_view : a.wid < b.wid;
    });
    for (uint32_t pos : sc.served) {
      const AppEvent& e = ev[pos];
      if (e.kind != AppEventKind::kRead) continue;
      const uint64_t key_view = pack(e.key, e.view);
      auto bucket = std::lower_bound(
          by_key_view.begin(), by_key_view.end(), key_view,
          [](const Bucketed& b, uint64_t kv) { return b.key_view < kv; });
      if (bucket == by_key_view.end() || bucket->key_view != key_view) continue;
      Tick install_tick = 0;
      if (const Tick* t = sc.installs.find(pack(e.actor, e.view))) {
        install_tick = *t;
      } else if (!(e.view == 0 &&
                   std::find(initial.begin(), initial.end(), e.actor) != initial.end())) {
        continue;  // reader's install of this view is unknown: don't judge
      }
      uint64_t expected = 0;
      Tick expected_commit = 0;
      for (auto c = bucket; c != by_key_view.end() && c->key_view == key_view; ++c) {
        if (std::max(c->tick, install_tick) + opts.staleness_bound > e.tick) continue;
        if (!calm(sc.busy, c->tick, e.tick)) continue;
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
  for (uint64_t id : sc.dup_submits) {
    r.violations.push_back("APP-Q2: work item " + id_str(id) + " submitted twice");
  }
  for (const DoubleClaim& d : sc.double_claims) {
    r.violations.push_back("APP-Q2: work item " + id_str(d.id) + " claimed by p" +
                           std::to_string(d.held_by) + " and p" + std::to_string(d.claimed_by) +
                           " in view " + std::to_string(d.view));
  }

  // ---- Terminal clauses (gated like GMP-5) ----
  if (opts.check_terminal) {
    // APP-Q1: submitted items known to a survivor must have completed (an
    // item that died with its holders is resubmit territory).  Reported in
    // tid order: only the violating ids are sorted.
    sc.ids.for_each([&sc](uint64_t tid, const IdFacts& f) {
      if (f.submitted && f.known && !f.done) sc.lost.emplace_back(tid, f.submitted_by);
    });
    std::sort(sc.lost.begin(), sc.lost.end());
    for (const auto& [tid, by] : sc.lost) {
      r.violations.push_back("APP-Q1: work item " + id_str(tid) + " (submitted by p" +
                             std::to_string(by) + ") known to a survivor but never done");
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
