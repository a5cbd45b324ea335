#include "soak/availability.hpp"

#include <algorithm>
#include <vector>

#include "common/flat_set.hpp"

namespace gmpx::soak {

namespace {

/// The replay state.  Kept per thread and cleared per call, so repeated
/// calls reuse its capacity.
struct State {
  FlatSet<ProcessId> crashed;
  /// Latest installed view per process, ascending ids.  The member lists
  /// are the recorder's own install events (sorted, canonical form), which
  /// outlive the call.
  FlatMap<ProcessId, const std::vector<ProcessId>*> latest_view;
  ProcessId mgr = kNilId;  ///< actor of the most recent kBecameMgr
};

bool majority_live(const std::vector<ProcessId>& members, const State& st,
                   bool require_majority) {
  size_t live = 0;
  for (ProcessId m : members) {
    if (!st.crashed.count(m)) ++live;
  }
  if (!require_majority) return live >= 1;
  return 2 * live > members.size();
}

const std::vector<ProcessId>& view_of(const State& st, ProcessId p,
                                      const std::vector<ProcessId>& initial) {
  auto it = st.latest_view.find(p);
  if (it != st.latest_view.end()) return *it->second;
  return initial;  // nothing installed yet: the commonly-known Memb^0
}

bool available(const State& st, bool has_mgr_events, const std::vector<ProcessId>& initial,
               bool require_majority) {
  if (has_mgr_events) {
    if (st.mgr == kNilId || st.crashed.count(st.mgr)) return false;
    const std::vector<ProcessId>& v = view_of(st, st.mgr, initial);
    if (std::find(v.begin(), v.end(), st.mgr) == v.end()) return false;
    return majority_live(v, st, require_majority);
  }
  // Coordinator-less trace: any live process that is the most senior
  // member of its own latest view, with that view majority-live, counts.
  for (const auto& [p, members] : st.latest_view) {
    if (st.crashed.count(p)) continue;
    const std::vector<ProcessId>& v = *members;
    if (!v.empty() && v.front() == p && majority_live(v, st, require_majority)) return true;
  }
  // Processes that never installed anything still hold Memb^0.
  for (ProcessId p : initial) {
    if (st.crashed.count(p)) continue;
    if (st.latest_view.find(p) != st.latest_view.end()) continue;  // judged above
    if (!initial.empty() && initial.front() == p &&
        majority_live(initial, st, require_majority)) {
      return true;
    }
  }
  return false;
}

}  // namespace

double availability_from_trace(const trace::Recorder& rec, Tick end_tick,
                               bool require_majority) {
  if (end_tick == 0) return 1.0;
  const std::vector<ProcessId>& initial = rec.initial_membership();

  bool has_mgr_events = false;
  rec.for_each_event([&](const trace::Event& e) {
    if (e.kind == trace::EventKind::kBecameMgr) has_mgr_events = true;
  });

  thread_local State state;
  State& st = state;
  st.crashed.clear();
  st.latest_view.clear();
  st.mgr = kNilId;
  Tick prev = 0;
  Tick up = 0;
  bool cur = available(st, has_mgr_events, initial, require_majority);
  rec.for_each_event([&](const trace::Event& e) {
    if (e.tick > prev) {
      const Tick until = std::min(e.tick, end_tick);
      if (cur && until > prev) up += until - prev;
      prev = std::min(e.tick, end_tick);
    }
    switch (e.kind) {
      case trace::EventKind::kCrash:
        st.crashed.insert(e.actor);
        break;
      case trace::EventKind::kInstall:
        st.latest_view[e.actor] = &e.members;
        break;
      case trace::EventKind::kBecameMgr:
        st.mgr = e.actor;
        break;
      default:
        break;
    }
    cur = available(st, has_mgr_events, initial, require_majority);
  });
  if (cur && end_tick > prev) up += end_tick - prev;
  return static_cast<double>(up) / static_cast<double>(end_tick);
}

}  // namespace gmpx::soak
