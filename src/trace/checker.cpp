#include "trace/checker.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <set>
#include <sstream>
#include <unordered_set>

namespace gmpx::trace {

namespace {

std::string fmt(const char* clause, const std::string& detail) {
  return std::string(clause) + ": " + detail;
}

/// "p<id>".  Appends rather than `"p" + std::to_string(id)`, whose inlined
/// prepend trips GCC 12's -Wrestrict false positive in Release builds.
std::string proc(ProcessId p) {
  std::string s = "p";
  s += std::to_string(p);
  return s;
}

/// One snapshot of the recorder, shared by every clause checker.  Built in
/// a single in-place scan under one recorder lock — the checker runs after
/// every fuzzed schedule, making it part of the sweep's hot path, so the
/// log (and every install's member vector) is not copied per clause.
///
/// View entries *reference* the member vectors inside the recorder's log;
/// the index is only valid while the recorder is not recording (true for
/// every checker call site: checks run on a finished, quiescent run).
///
/// The index (and each clause's scratch vectors, which live here too) is a
/// thread-local arena rebuilt per check: only the live prefixes of its
/// containers are meaningful, and clearing keeps capacity, so the warm
/// checking path performs no allocation.
struct TraceIndex {
  /// Belief/view operations in global order (members stripped: GMP-1 never
  /// needs them, installs live in `views`).
  struct OpEvent {
    EventKind kind;
    ProcessId actor;
    ProcessId target;
  };
  /// An install, borrowing the recorder-owned member vector.
  struct ViewRef {
    ViewVersion version;
    const std::vector<ProcessId>* members;
  };
  /// One process's installed-view history, in installation order.
  struct ProcessViews {
    ProcessId p;
    std::vector<ViewRef> views;
  };
  std::vector<OpEvent> ops;
  std::vector<ProcessViews> views;  ///< live prefix [0, n_views), ascending by id
  size_t n_views = 0;
  std::vector<ProcessId> crashed;   ///< ascending by process id
  std::vector<ProcessId> initial;

  // Clause scratch (reused per check; see the gmpN_into functions).
  std::vector<uint64_t> scratch_pairs_a;
  std::vector<uint64_t> scratch_pairs_b;
  std::vector<const std::vector<ProcessId>*> scratch_canonical;
  std::vector<ProcessId> scratch_ids_a;
  std::vector<ProcessId> scratch_ids_b;
  std::vector<ProcessId> scratch_ids_c;
  std::vector<ProcessId> scratch_ids_d;

  /// The thread's reusable index (the sweep checks from worker threads;
  /// each gets its own arena).
  static TraceIndex& scratch() {
    thread_local TraceIndex ix;
    return ix;
  }

  TraceIndex& build(const Recorder& rec) {
    initial.assign(rec.initial_membership().begin(), rec.initial_membership().end());
    ops.clear();
    ops.reserve(64);
    crashed.clear();
    n_views = 0;
    rec.for_each_event([this](const Event& e) {
      switch (e.kind) {
        case EventKind::kInstall: {
          const auto live_end = views.begin() + static_cast<long>(n_views);
          auto it = std::find_if(views.begin(), live_end,
                                 [&](const ProcessViews& pv) { return pv.p == e.actor; });
          if (it == live_end) {
            if (n_views == views.size()) views.emplace_back();
            it = views.begin() + static_cast<long>(n_views++);
            it->p = e.actor;
            it->views.clear();
          }
          it->views.push_back(ViewRef{e.version, &e.members});
          break;
        }
        case EventKind::kCrash:
          crashed.push_back(e.actor);
          break;
        case EventKind::kFaulty:
        case EventKind::kOperational:
        case EventKind::kRemove:
        case EventKind::kAdd:
          ops.push_back(OpEvent{e.kind, e.actor, e.target});
          break;
        default:
          break;
      }
    });
    // Clause checkers walk processes in ascending id order (the violation
    // report order depends on it).
    std::sort(views.begin(), views.begin() + static_cast<long>(n_views),
              [](const ProcessViews& a, const ProcessViews& b) { return a.p < b.p; });
    std::sort(crashed.begin(), crashed.end());
    return *this;
  }

  std::span<const ProcessViews> live_views() const { return {views.data(), n_views}; }

  const std::vector<ViewRef>* views_of(ProcessId p) const {
    auto live = live_views();
    auto it = std::lower_bound(
        live.begin(), live.end(), p,
        [](const ProcessViews& pv, ProcessId q) { return pv.p < q; });
    return (it != live.end() && it->p == p) ? &it->views : nullptr;
  }

  bool has_crashed(ProcessId p) const {
    return std::binary_search(crashed.begin(), crashed.end(), p);
  }
};

/// Packs an (actor, target) belief pair for flat hash membership.
constexpr uint64_t pair_key(ProcessId actor, ProcessId target) {
  return (static_cast<uint64_t>(actor) << 32) | target;
}

void gmp0_into(const TraceIndex& ix, CheckResult& r) {
  if (ix.initial.empty()) {
    r.violations.push_back(fmt("GMP-0", "no initial membership declared"));
    return;
  }
  // Every initial member's version-0 view (implicit) is Proc; we verify that
  // the first *installed* view of any initial member has version >= 1 and
  // that no one installs a version-0 view different from Proc.
  for (const auto& [p, vs] : ix.live_views()) {
    for (const TraceIndex::ViewRef& v : vs) {
      if (v.version == 0 && *v.members != ix.initial) {
        r.violations.push_back(
            fmt("GMP-0", proc(p) + " installed a version-0 view != Proc"));
      }
    }
  }
}

void gmp1_into(TraceIndex& ix, CheckResult& r) {
  // remove_p(q) must be preceded (in p's local order) by faulty_p(q).
  // Similarly add_p(q) must be preceded by operational_p(q).  Belief sets
  // hold a few dozen pairs at most, so flat vectors with a linear probe
  // beat node-based sets (no allocation per belief; the vectors live in
  // the thread-local index so their capacity survives across checks).
  std::vector<uint64_t>&believed_faulty = ix.scratch_pairs_a,
      &believed_operational = ix.scratch_pairs_b;
  believed_faulty.clear();
  believed_operational.clear();
  auto has = [](const std::vector<uint64_t>& v, uint64_t k) {
    return std::find(v.begin(), v.end(), k) != v.end();
  };
  for (const TraceIndex::OpEvent& e : ix.ops) {
    switch (e.kind) {
      case EventKind::kFaulty:
        believed_faulty.push_back(pair_key(e.actor, e.target));
        break;
      case EventKind::kOperational:
        believed_operational.push_back(pair_key(e.actor, e.target));
        break;
      case EventKind::kRemove:
        if (!has(believed_faulty, pair_key(e.actor, e.target))) {
          r.violations.push_back(fmt(
              "GMP-1", proc(e.actor) + " removed " + std::to_string(e.target) +
                           " without a prior faulty event"));
        }
        break;
      case EventKind::kAdd:
        if (!has(believed_operational, pair_key(e.actor, e.target))) {
          r.violations.push_back(fmt(
              "GMP-1", proc(e.actor) + " added " + std::to_string(e.target) +
                           " without a prior operational event"));
        }
        break;
      default:
        break;
    }
  }
}

void gmp23_into(TraceIndex& ix, CheckResult& r) {
  auto is_initial = [&](ProcessId p) {
    return std::binary_search(ix.initial.begin(), ix.initial.end(), p);
  };
  // Agreement per version: all installs of version x carry identical sets.
  // Real runs use small dense versions — a version-indexed flat table —
  // but the checker is a public API fed synthetic traces too, so absurd
  // versions spill into a map instead of sizing the table after them.
  constexpr ViewVersion kFlatVersionLimit = 4096;
  std::vector<const std::vector<ProcessId>*>& canonical = ix.scratch_canonical;
  canonical.clear();
  std::map<ViewVersion, const std::vector<ProcessId>*> canonical_overflow;
  auto canonical_slot = [&](ViewVersion ver) -> const std::vector<ProcessId>*& {
    if (ver < kFlatVersionLimit) {
      if (ver >= canonical.size()) canonical.resize(ver + 1, nullptr);
      return canonical[ver];
    }
    return canonical_overflow[ver];
  };
  for (const auto& [p, vs] : ix.live_views()) {
    ViewVersion prev = 0;
    bool first = true;
    for (const TraceIndex::ViewRef& v : vs) {
      const std::vector<ProcessId>*& canon = canonical_slot(v.version);
      bool inserted = canon == nullptr;
      if (inserted) canon = v.members;
      if (!inserted && *canon != *v.members) {
        r.violations.push_back(fmt(
            "GMP-2/3", "version " + std::to_string(v.version) + " installed as " +
                           to_string(*v.members) + " by p" + std::to_string(p) + " but as " +
                           to_string(*canon) + " by an earlier process"));
      }
      // Per-process versions ascend by exactly 1 (local views are a
      // contiguous prefix of the system-view sequence).  Initial members
      // start from the implicit version 0, so their first install must be
      // version 1; a joiner's first install is its ViewTransfer version.
      if (first) {
        first = false;
        if (is_initial(p) && v.version != 1) {
          r.violations.push_back(fmt(
              "GMP-2/3", "initial member p" + std::to_string(p) +
                             " first installed version " + std::to_string(v.version)));
        } else if (!is_initial(p) && v.version == 0) {
          r.violations.push_back(
              fmt("GMP-2/3", proc(p) + " re-installed version 0"));
        }
      } else if (v.version != prev + 1) {
        r.violations.push_back(fmt(
            "GMP-2/3", proc(p) + " jumped from version " + std::to_string(prev) +
                           " to " + std::to_string(v.version)));
      }
      prev = v.version;
    }
  }
}

void gmp4_into(TraceIndex& ix, CheckResult& r) {
  // Once q leaves p's view sequence it never returns.
  std::vector<ProcessId>& ever_removed = ix.scratch_ids_a;  // flat beats a set
  for (const auto& [p, vs] : ix.live_views()) {
    ever_removed.clear();
    const std::vector<ProcessId>* prev = &ix.initial;
    for (const TraceIndex::ViewRef& v : vs) {
      for (ProcessId q : *prev) {
        if (!std::binary_search(v.members->begin(), v.members->end(), q)) ever_removed.push_back(q);
      }
      for (ProcessId q : *v.members) {
        if (std::find(ever_removed.begin(), ever_removed.end(), q) != ever_removed.end()) {
          r.violations.push_back(fmt(
              "GMP-4", proc(p) + " re-instated " + std::to_string(q) +
                           " in view v" + std::to_string(v.version)));
        }
      }
      prev = v.members;
    }
  }
}

void gmp5_into(TraceIndex& ix, const CheckOptions& opts, CheckResult& r) {
  std::vector<ProcessId>& ignore = ix.scratch_ids_a;
  ignore.assign(opts.ignore_for_liveness.begin(), opts.ignore_for_liveness.end());
  std::sort(ignore.begin(), ignore.end());
  auto is_ignored = [&](ProcessId q) {
    return std::binary_search(ignore.begin(), ignore.end(), q);
  };

  // Survivors: initial members (plus successfully joined processes — anyone
  // who installed a view) that did not crash.  `initial` is sorted and the
  // views map iterates ascending, so a sort+unique merge preserves the
  // ascending walk the violation order depends on.
  std::vector<ProcessId>& participants = ix.scratch_ids_b;
  participants.assign(ix.initial.begin(), ix.initial.end());
  for (const auto& [p, vs] : ix.live_views()) participants.push_back(p);
  std::sort(participants.begin(), participants.end());
  participants.erase(std::unique(participants.begin(), participants.end()),
                     participants.end());

  std::vector<ProcessId>& survivors = ix.scratch_ids_c;
  survivors.clear();
  for (ProcessId p : participants) {
    if (!ix.has_crashed(p) && !is_ignored(p)) survivors.push_back(p);
  }

  // (a) Every crashed participant is excluded from every survivor's final view.
  // (b) All survivors converge on one final view containing exactly the
  //     survivors (quiescent run: nothing is pending).  Ignored processes
  //     are exempt on both sides: they need not converge, and their
  //     presence/absence in others' views is not judged.
  const std::vector<ProcessId>& expect = survivors;  // already ascending
  std::vector<ProcessId>& final_view = ix.scratch_ids_d;
  for (ProcessId p : survivors) {
    const auto* vs = ix.views_of(p);
    const std::vector<ProcessId>& raw = (!vs || vs->empty()) ? ix.initial : *vs->back().members;
    final_view.assign(raw.begin(), raw.end());
    std::erase_if(final_view, [&](ProcessId q) { return is_ignored(q); });
    if (final_view != expect) {
      r.violations.push_back(fmt(
          "GMP-5", "survivor p" + std::to_string(p) + " final view " + to_string(final_view) +
                       " != surviving set " + to_string(expect)));
    }
  }
}

}  // namespace

std::string CheckResult::message() const {
  std::ostringstream os;
  for (const auto& v : violations) os << v << "\n";
  return os.str();
}

std::vector<std::string> CheckResult::clauses() const {
  std::set<std::string> tags;
  for (const auto& v : violations) tags.insert(v.substr(0, v.find(':')));
  return {tags.begin(), tags.end()};
}

bool CheckResult::has_clause(const std::string& clause) const {
  for (const auto& v : violations) {
    if (v.compare(0, v.find(':'), clause) == 0) return true;
  }
  return false;
}

CheckResult check_gmp0(const Recorder& rec) {
  CheckResult r;
  gmp0_into(TraceIndex::scratch().build(rec), r);
  return r;
}

CheckResult check_gmp1(const Recorder& rec) {
  CheckResult r;
  gmp1_into(TraceIndex::scratch().build(rec), r);
  return r;
}

CheckResult check_gmp23(const Recorder& rec) {
  CheckResult r;
  gmp23_into(TraceIndex::scratch().build(rec), r);
  return r;
}

CheckResult check_gmp4(const Recorder& rec) {
  CheckResult r;
  gmp4_into(TraceIndex::scratch().build(rec), r);
  return r;
}

CheckResult check_gmp5(const Recorder& rec, const CheckOptions& opts) {
  CheckResult r;
  gmp5_into(TraceIndex::scratch().build(rec), opts, r);
  return r;
}

CheckResult check_gmp(const Recorder& rec, const CheckOptions& opts) {
  TraceIndex& ix = TraceIndex::scratch().build(rec);
  CheckResult all;
  gmp0_into(ix, all);
  gmp1_into(ix, all);
  gmp23_into(ix, all);
  gmp4_into(ix, all);
  if (opts.check_liveness) gmp5_into(ix, opts, all);
  return all;
}

}  // namespace gmpx::trace
