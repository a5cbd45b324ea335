#include "soak/host.hpp"

#include <algorithm>

#include "soak/availability.hpp"

namespace gmpx::soak {

void SoakHost::reset(const Workload& w, const SoakOptions& opts) {
  w_ = &w;
  opts_ = &opts;
  cluster_ = nullptr;
  trace_.reset();
  ids_.clear();
  attempted_ = 0;
  rejected_ = 0;
  sync_passes_ = 0;
  converged_ = false;
}

void SoakHost::attach(harness::Cluster& c) {
  cluster_ = &c;
  for (ProcessId id : c.ids()) bind_node(id);
  ids_.assign(c.ids().begin(), c.ids().end());
  std::sort(ids_.begin(), ids_.end());
  for (size_t i = 0; i < w_->ops.size(); ++i) {
    c.world().at(w_->ops[i].at, [this, i] { run_op(w_->ops[i]); });
  }
}

bool SoakHost::on_quiesced(harness::Cluster& c, int pass) {
  (void)c;
  // Detector-timeout emulation, mirroring the executor's awaiting/isolated
  // policy for the oracle axis: a dead process (crashed out of band, quit,
  // or a joiner that aborted right as its admission committed) can linger
  // as a view member forever, holding its assigned work — the scripted
  // oracle only fires on real crash events.  With real clocks a timeout
  // detector would report it; at quiescence, inject that suspicion and let
  // the membership protocol exclude it (the view change re-dispatches).
  survivors_into(survivors_);
  if (!survivors_.empty()) {
    const ProcessId obs = survivors_.front();
    Context* ctx = cluster_->world().context_of(obs);
    bool injected = false;
    for (ProcessId m : cluster_->node(obs).view().members()) {
      if (ctx && !cluster_->world().context_of(m)) {
        cluster_->node(obs).suspect(*ctx, m);
        injected = true;
      }
    }
    if (injected) return true;  // re-quiesce; exclusion triggers reclaim
  }
  if (converged()) {
    converged_ = true;
    return false;
  }
  if (pass >= opts_->sync_pass_cap) return false;  // APP-R3/Q1 will say why
  ++sync_passes_;
  for (ProcessId id : ids_) {
    if (!serving(id)) continue;
    PerNode& pn = *nodes_[id];
    pn.registry.sync_round();
    pn.queue.sync_round();
  }
  return true;
}

std::vector<ProcessId> SoakHost::survivors() const {
  std::vector<ProcessId> out;
  survivors_into(out);
  return out;
}

void SoakHost::survivors_into(std::vector<ProcessId>& out) const {
  ViewVersion frontier = 0;
  out.clear();
  for (ProcessId id : ids_) {
    if (!serving(id)) continue;
    const ViewVersion v = cluster_->node(id).view().version();
    if (v > frontier) {
      frontier = v;
      out.clear();
    }
    if (v == frontier) out.push_back(id);
  }
}

AppVerdict SoakHost::judge(const scenario::Schedule& s, const scenario::ExecResult& r,
                           bool require_majority) const {
  AppVerdict v;
  v.availability = availability_from_trace(cluster_->recorder(), r.end_tick, require_majority);
  AppCheckOptions aopts;
  aopts.staleness_bound = opts_->staleness_bound;
  // Terminal clauses ride the same preconditions as GMP-5: a quiesced run
  // that was held to liveness.  Stalled or stall-allowed runs only get the
  // safety clauses.
  aopts.check_terminal = r.quiesced && r.liveness_checked;
  survivors_into(survivors_);
  // Survivor counts vary per run: park surplus states rather than destroy
  // them, so their tables keep capacity for the next larger run.
  while (finals_.size() > survivors_.size()) {
    spare_finals_.push_back(std::move(finals_.back()));
    finals_.pop_back();
  }
  while (finals_.size() < survivors_.size() && !spare_finals_.empty()) {
    finals_.push_back(std::move(spare_finals_.back()));
    spare_finals_.pop_back();
  }
  final_states_into(survivors_, finals_);
  v.check = check_app(trace_, cluster_->recorder(), s, survivors_, finals_, aopts);
  return v;
}

std::vector<ReplicaState> SoakHost::final_states() const {
  survivors_into(survivors_);
  std::vector<ReplicaState> out;
  final_states_into(survivors_, out);
  return out;
}

void SoakHost::final_states_into(const std::vector<ProcessId>& survivors,
                                 std::vector<ReplicaState>& out) const {
  out.resize(survivors.size());
  for (size_t i = 0; i < survivors.size(); ++i) {
    const PerNode& pn = *nodes_[survivors[i]];
    ReplicaState& st = out[i];
    st.id = survivors[i];
    st.registry.assign(pn.registry.data().begin(), pn.registry.data().end());
    st.queue.clear();
    for (const auto& [tid, t] : pn.queue.tasks()) st.queue.emplace_back(tid, t.state);
  }
}

void SoakHost::bind_node(ProcessId id) {
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  if (PerNode* pn = nodes_[id].get()) {
    pn->group.rebind(&cluster_->node(id));
    pn->registry.reset();
    pn->queue.reset();
    return;
  }
  auto ctx = [this, id]() { return cluster_->world().context_of(id); };
  nodes_[id] = std::make_unique<PerNode>(&cluster_->node(id), &trace_, ctx);
  PerNode& pn = *nodes_[id];
  pn.group.on_message([&pn](ProcessId from, std::string_view m) {
    if (!pn.registry.handle(from, m)) pn.queue.handle(from, m);
  });
  pn.group.on_view_change([&pn](const gmp::View&) { pn.queue.on_view(); });
}

size_t SoakHost::held_payloads() const {
  size_t held = 0;
  for (ProcessId id : ids_) held += nodes_[id]->group.held();
  return held;
}

bool SoakHost::serving(ProcessId id) const {
  if (!cluster_->has_node(id)) return false;
  if (!cluster_->world().context_of(id)) return false;  // crashed
  const gmp::GmpNode& n = cluster_->node(id);
  return n.admitted() && !n.has_quit();
}

void SoakHost::run_op(const WorkloadOp& op) {
  ++attempted_;
  switch (op.kind) {
    case OpKind::kWrite:
    case OpKind::kTask: {
      // Primary-routed: clients reach whichever member claims the
      // coordinator role; with none live (failover window) the op is
      // rejected — that is the availability metric's denominator talking.
      for (ProcessId id : ids_) {
        if (!serving(id)) continue;
        PerNode& pn = *nodes_[id];
        if (!pn.group.is_coordinator()) continue;
        const bool served = op.kind == OpKind::kWrite ? pn.registry.client_write(op.key)
                                                      : pn.queue.client_submit();
        if (served) return;
      }
      ++rejected_;
      return;
    }
    case OpKind::kRead: {
      live_.clear();
      for (ProcessId id : ids_) {
        if (serving(id)) live_.push_back(id);
      }
      if (live_.empty()) {
        ++rejected_;
        return;
      }
      const ProcessId replica = live_[op.pick % live_.size()];
      nodes_[replica]->registry.client_read(op.client, op.key);
      return;
    }
  }
}

bool SoakHost::converged() const {
  survivors_into(survivors_);
  const std::vector<ProcessId>& s = survivors_;
  if (s.empty()) return true;
  const PerNode& first = *nodes_[s[0]];
  for (ProcessId id : s) {
    const PerNode& pn = *nodes_[id];
    if (!pn.queue.all_done()) return false;
    if (pn.registry.data() != first.registry.data()) return false;
    if (pn.queue.tasks().size() != first.queue.tasks().size()) return false;
    auto a = pn.queue.tasks().begin();
    auto b = first.queue.tasks().begin();
    for (; a != pn.queue.tasks().end(); ++a, ++b) {
      if (a->first != b->first || a->second.state != b->second.state) return false;
    }
  }
  return true;
}

}  // namespace gmpx::soak
