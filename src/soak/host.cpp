#include "soak/host.hpp"

#include <algorithm>

namespace gmpx::soak {

void SoakHost::attach(harness::Cluster& c) {
  cluster_ = &c;
  for (ProcessId id : c.ids()) make_node(id);
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
  if (const std::vector<ProcessId> frontier = survivors(); !frontier.empty()) {
    const ProcessId obs = frontier.front();
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
  ViewVersion frontier = 0;
  std::vector<ProcessId> out;
  for (ProcessId id : ids_) {
    if (!serving(id)) continue;
    const ViewVersion v = cluster_->node(id).view().version();
    if (v > frontier) {
      frontier = v;
      out.clear();
    }
    if (v == frontier) out.push_back(id);
  }
  return out;
}

std::vector<ReplicaState> SoakHost::final_states() const {
  std::vector<ReplicaState> out;
  for (ProcessId id : survivors()) {
    const PerNode& pn = *nodes_[id];
    ReplicaState st;
    st.id = id;
    st.registry.assign(pn.registry.data().begin(), pn.registry.data().end());
    for (const auto& [tid, t] : pn.queue.tasks()) st.queue.emplace_back(tid, t.state);
    out.push_back(std::move(st));
  }
  return out;
}

void SoakHost::make_node(ProcessId id) {
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  auto ctx = [this, id]() { return cluster_->world().context_of(id); };
  nodes_[id] = std::make_unique<PerNode>(&cluster_->node(id), &trace_, ctx);
  PerNode& pn = *nodes_[id];
  pn.group.on_message([&pn](ProcessId from, std::string_view m) {
    if (!pn.registry.handle(from, m)) pn.queue.handle(from, m);
  });
  pn.group.on_view_change([&pn](const gmp::View&) { pn.queue.on_view(); });
}

bool SoakHost::serving(ProcessId id) const {
  if (id >= nodes_.size() || !nodes_[id]) return false;
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
  const std::vector<ProcessId> s = survivors();
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
