// Generic simulation harness for the baseline protocols (symmetric,
// one-phase, two-phase-reconfiguration).  Mirrors harness::Cluster: wires a
// SimWorld, a recorder and oracle failure detection around any node type
// exposing `suspect(Context&, ProcessId)`.  The oracle injection loop is
// duplicated here (not fd::OracleFd, which is typed to gmp::GmpNode) but
// shares fd::OracleOptions so experiments tune both harnesses identically.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "fd/detector.hpp"
#include "sim/world.hpp"
#include "trace/checker.hpp"
#include "trace/recorder.hpp"

namespace gmpx::harness {

template <typename NodeT>
class BaselineCluster {
 public:
  struct Options {
    size_t n = 4;
    uint64_t seed = 1;
    sim::DelayModel delays{};
    fd::OracleOptions oracle{};
  };

  explicit BaselineCluster(Options opts) : opts_(opts), world_(opts.seed, opts.delays) {
    std::vector<ProcessId> initial;
    for (size_t i = 0; i < opts_.n; ++i) initial.push_back(static_cast<ProcessId>(i));
    recorder_.set_initial_membership(initial);
    for (ProcessId id : initial) {
      auto node = std::make_unique<NodeT>(id, initial, &recorder_);
      world_.add_actor(id, node.get());
      nodes_.emplace(id, std::move(node));
    }
    world_.set_crash_hook([this](ProcessId p, Tick t) { on_crash(p, t); });
  }

  void start() { world_.start(); }
  sim::SimWorld& world() { return world_; }
  trace::Recorder& recorder() { return recorder_; }
  NodeT& node(ProcessId id) { return *nodes_.at(id); }

  void crash_at(Tick t, ProcessId id) { world_.crash_at(t, id); }

  void suspect_at(Tick t, ProcessId observer, ProcessId target) {
    world_.at(t, [this, observer, target] {
      if (Context* ctx = world_.context_of(observer)) {
        nodes_.at(observer)->suspect(*ctx, target);
      }
    });
  }

  bool run_to_quiescence(uint64_t max_events = 50'000'000) {
    return world_.run_until_idle(max_events);
  }

  trace::CheckResult check(const trace::CheckOptions& o = {}) const {
    return trace::check_gmp(recorder_, o);
  }

 private:
  void on_crash(ProcessId p, Tick t) {
    recorder_.crash(p, t);
    for (auto& [q, node] : nodes_) {
      if (q == p || world_.crashed(q)) continue;
      Tick d = opts_.oracle.min_delay +
               world_.rng().below(opts_.oracle.max_delay - opts_.oracle.min_delay + 1);
      world_.at(t + d, [this, q = q, p] {
        if (Context* ctx = world_.context_of(q)) nodes_.at(q)->suspect(*ctx, p);
      });
    }
  }

  Options opts_;
  sim::SimWorld world_;
  trace::Recorder recorder_;
  std::map<ProcessId, std::unique_ptr<NodeT>> nodes_;
};

}  // namespace gmpx::harness
