#include "mux/group_mux.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "common/tiled.hpp"
#include "harness/cluster.hpp"
#include "soak/availability.hpp"
#include "soak/host.hpp"

namespace gmpx::mux {

namespace {

/// SplitMix64 finalizer — the same mixer the Rng uses, applied as a hash.
uint64_t mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr uint64_t kPlanSalt = 0x6d75785f706c616eull;   // "mux_plan"
constexpr uint64_t kGroupSalt = 0x6d75785f67726f75ull;  // "mux_grou"

/// The five single-group adversary personalities a mux plan draws from.
/// kGroupMux itself is the *outer* profile; the per-group fault shape is
/// always one of these.
constexpr scenario::Profile kBaseProfiles[] = {
    scenario::Profile::kMixed,          scenario::Profile::kChurnHeavy,
    scenario::Profile::kPartitionHeavy, scenario::Profile::kBurstCrash,
    scenario::Profile::kLossy,
};

/// One pooled deployment slot, held only while its group runs.  The Cluster
/// persists across occupancies (reset() is capacity-preserving); everything
/// else is per-group state rebuilt on create.  Slots live behind unique_ptr
/// so addresses stay stable for the reference captures in StagedRun and
/// SoakHost.
struct GroupSlot {
  harness::Cluster cluster{harness::ClusterOptions{}};
  const GroupSpec* spec = nullptr;
  scenario::Schedule sched;
  soak::Workload workload;
  scenario::ExecOptions exec;
  std::optional<soak::SoakHost> host;
  std::optional<scenario::StagedRun> run;
};

/// Cohort activation heap entry, ordered by (due, seq) like the sim's own
/// event queue: global virtual tick first, insertion order as tiebreak.
enum class Phase : uint8_t { kCreate, kAdvance, kRetire };

struct Entry {
  Tick due = 0;
  uint64_t seq = 0;
  uint32_t gid = 0;
  Phase phase = Phase::kCreate;
};

struct EntryCmp {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.due != b.due) return a.due > b.due;  // min-heap via std::priority_queue-less heap ops
    return a.seq > b.seq;
  }
};

class MuxEngine {
 public:
  MuxEngine(uint64_t seed, const MuxOptions& opts)
      : opts_(opts), plan_(generate_mux_plan(seed, opts)) {}

  MuxResult run() {
    res_.groups = plan_.groups.size();
    res_.horizon = plan_.horizon;
    hashes_.assign(plan_.groups.size(), 0);
    for (const GroupSpec& g : plan_.groups) {
      push(Entry{g.create_at, seq_++, g.gid, Phase::kCreate});
      push(Entry{g.retire_at, seq_++, g.gid, Phase::kRetire});
    }
    while (!heap_.empty()) {
      const Entry e = pop();
      switch (e.phase) {
        case Phase::kCreate: do_create(e.gid); break;
        case Phase::kAdvance: do_advance(e.gid); break;
        case Phase::kRetire: do_retire(e.gid); break;
      }
    }
    // Fold per-group trace hashes in gid order — independent of the
    // interleaving the heap happened to take.
    uint64_t h = 1469598103934665603ull;
    for (uint64_t gh : hashes_) h = mix64(h ^ gh);
    res_.trace_hash = h;
    res_.peak_resident = peak_resident_;
    res_.peak_slots = slots_.size();
    if (plan_.horizon > 0 && peak_resident_ > 0) {
      res_.occupancy = static_cast<double>(lifetime_sum_) /
                       (static_cast<double>(plan_.horizon) * static_cast<double>(peak_resident_));
    }
    return std::move(res_);
  }

 private:
  void push(Entry e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), EntryCmp{});
  }

  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), EntryCmp{});
    Entry e = heap_.back();
    heap_.pop_back();
    return e;
  }

  GroupSlot* slot_of(uint32_t gid) {
    const int32_t idx = directory_.get(gid);
    return idx == 0 ? nullptr : slots_[static_cast<size_t>(idx - 1)].get();
  }

  void do_create(uint32_t gid) {
    const GroupSpec& spec = plan_.groups[gid];
    // Acquire a pooled slot (capacity-preserving reuse) or grow the pool.
    size_t idx;
    if (!free_slots_.empty()) {
      idx = free_slots_.back();
      free_slots_.pop_back();
    } else {
      idx = slots_.size();
      slots_.push_back(std::make_unique<GroupSlot>());
    }
    directory_.at(gid) = static_cast<int32_t>(idx + 1);
    ++resident_;
    peak_resident_ = std::max(peak_resident_, resident_);
    lifetime_sum_ += spec.retire_at - spec.create_at;

    GroupSlot& slot = *slots_[idx];
    slot.spec = &spec;

    // Per-group fault schedule: the spec's profile over the shared knobs,
    // stretched to the session horizon with restart churn mixed in (the
    // single-group soak sweep's exact recipe), storm-tuned per detector.
    scenario::GeneratorOptions gen = opts_.gen;
    gen.profile = spec.profile;
    if (opts_.with_sessions) {
      gen.horizon = std::max(gen.horizon, opts_.sopts.horizon);
      gen.restart_weight = opts_.sopts.restart_weight;
    }
    slot.exec = opts_.exec;
    if (slot.exec.fd == fd::DetectorKind::kHeartbeat) {
      gen = scenario::tuned_for_heartbeat(gen, slot.exec.heartbeat);
    } else if (slot.exec.fd == fd::DetectorKind::kPhi) {
      gen = scenario::tuned_for_phi(gen, slot.exec.phi);
    }
    slot.sched = scenario::generate(spec.seed, gen);

    if (opts_.with_sessions) {
      slot.workload = soak::generate_workload(spec.seed, opts_.sopts);
      // Cross-group sessions: fold this group's logical clients onto the
      // shared global session ids, so session s drives traffic against
      // many groups at once.
      const uint32_t sessions = static_cast<uint32_t>(std::max<size_t>(opts_.sessions, 1));
      for (soak::WorkloadOp& op : slot.workload.ops) {
        op.client = (op.client + spec.gid) % sessions;
      }
      slot.host.emplace(slot.workload, opts_.sopts);
      soak::SoakHost* h = &*slot.host;
      slot.exec.on_pre_start = [h](harness::Cluster& c) { h->attach(c); };
      slot.exec.on_quiesced = [h](harness::Cluster& c, int pass) {
        return h->on_quiesced(c, pass);
      };
    }

    slot.cluster.reset(scenario::cluster_options_for(slot.sched, slot.exec));
    slot.run.emplace(slot.cluster, slot.sched, slot.exec);
    slot.run->install();
    push(Entry{spec.create_at, seq_++, gid, Phase::kAdvance});
  }

  void do_advance(uint32_t gid) {
    GroupSlot* slot = slot_of(gid);
    if (!slot) return;  // stale entry: the group already concluded
    ++res_.turns;
    if (slot->run->advance(opts_.slice_events)) {
      harvest(*slot);
      release(gid);
      return;
    }
    // Re-queue at the group's position on the shared timeline: its local
    // clock offset by its creation tick.  The seq tiebreak keeps turn
    // order deterministic even when clocks collide.
    push(Entry{slot->spec->create_at + slot->cluster.world().now(), seq_++, gid, Phase::kAdvance});
  }

  void do_retire(uint32_t gid) {
    if (GroupSlot* slot = slot_of(gid)) {
      // Force-finish: one full-budget advance always concludes (quiesce or
      // budget exhaustion — the same terminal states execute() has).
      ++res_.turns;
      slot->run->advance(slot->exec.max_sim_events);
      harvest(*slot);
      release(gid);
    }
    --resident_;
    ++res_.retired;
  }

  /// Return a concluded group's slot to the pool: nothing reads it again.
  void release(uint32_t gid) {
    const int32_t idx = directory_.get(gid);
    GroupSlot& slot = *slots_[static_cast<size_t>(idx - 1)];
    slot.run.reset();
    slot.host.reset();
    slot.exec.on_pre_start = nullptr;  // the hooks borrow the host
    slot.exec.on_quiesced = nullptr;
    directory_.at(gid) = 0;
    free_slots_.push_back(static_cast<size_t>(idx - 1));
  }

  void harvest(GroupSlot& slot) {
    const GroupSpec& spec = *slot.spec;
    const scenario::ExecResult& r = slot.run->result();
    hashes_[spec.gid] = r.trace_hash;
    if (r.quiesced) ++res_.quiesced;
    res_.sim_ticks += r.end_tick;
    res_.messages += r.messages;
    res_.fd_messages += r.fd_messages;
    res_.skipped_ticks += r.skipped_ticks;
    res_.skipped_events += r.skipped_events;
    res_.aborted_joins += r.aborted_joins;

    bool ok = r.ok();
    double availability = 0.0;
    std::string app_msg;
    if (slot.host) {
      soak::SoakHost& host = *slot.host;
      res_.ops_attempted += host.attempted();
      res_.ops_rejected += host.rejected();
      res_.sync_passes += host.sync_passes();
      availability = soak::availability_from_trace(slot.cluster.recorder(), r.end_tick,
                                                   slot.exec.require_majority);
      res_.availability_sum += availability;
      ++res_.availability_runs;
      soak::AppCheckOptions aopts;
      aopts.staleness_bound = opts_.sopts.staleness_bound;
      aopts.check_terminal = r.quiesced && r.liveness_checked;
      const trace::CheckResult ac =
          soak::check_app(host.trace(), slot.cluster.recorder(), slot.sched, host.survivors(),
                          host.final_states(), aopts);
      if (!ac.ok()) {
        ok = false;
        app_msg = ac.message();
      }
    }

    if (!ok) {
      ++res_.failures;
      if (res_.first_failure.empty()) {
        std::ostringstream os;
        os << "group " << spec.gid << " (" << scenario::to_string(spec.profile)
           << " seed=" << spec.seed << "): " << r.message() << app_msg << "\n"
           << "schedule:\n"
           << scenario::encode_schedule(slot.sched);
        if (slot.host) os << "workload:\n" << soak::encode(slot.workload);
        res_.first_failure = os.str();
      }
    }

    if (opts_.on_group) {
      const GroupOutcome out{spec.gid,     spec.seed, spec.profile,       slot.sched,
                             slot.workload, r,         slot.host ? app_msg.empty() : true,
                             availability};
      opts_.on_group(out);
    }
  }

  const MuxOptions& opts_;
  MuxPlan plan_;
  MuxResult res_;
  std::vector<Entry> heap_;
  uint64_t seq_ = 0;
  std::vector<std::unique_ptr<GroupSlot>> slots_;
  std::vector<size_t> free_slots_;
  common::TiledArray<int32_t> directory_;  ///< gid -> slot index + 1 (0 = no running slot)
  std::vector<uint64_t> hashes_;
  size_t resident_ = 0;
  size_t peak_resident_ = 0;
  uint64_t lifetime_sum_ = 0;
};

}  // namespace

MuxPlan generate_mux_plan(uint64_t seed, const MuxOptions& opts) {
  MuxPlan plan;
  plan.groups.reserve(opts.groups);
  Rng rng(mix64(seed ^ kPlanSalt));
  const Tick span = opts.max_lifetime > opts.min_lifetime ? opts.max_lifetime - opts.min_lifetime
                                                          : 0;
  for (size_t i = 0; i < opts.groups; ++i) {
    GroupSpec g;
    g.gid = static_cast<uint32_t>(i);
    g.seed = mix64(seed ^ mix64(kGroupSalt + g.gid));
    g.create_at = rng.below(opts.spawn_span + 1);
    g.retire_at = g.create_at + opts.min_lifetime + rng.below(span + 1);
    g.profile = kBaseProfiles[rng.below(5)];
    plan.horizon = std::max(plan.horizon, g.retire_at);
    plan.groups.push_back(g);
  }
  return plan;
}

MuxResult run_mux(uint64_t seed, const MuxOptions& opts) {
  MuxEngine engine(seed, opts);
  return engine.run();
}

}  // namespace gmpx::mux
