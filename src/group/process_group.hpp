// ProcessGroup: the application-facing toolkit on top of GmpNode.
//
// The paper's introduction motivates process groups that "co-operate to
// perform some task, share memory, monitor one another, subdivide a
// computation".  This layer packages the membership service for such
// applications:
//
//   * callback registration for view changes (the agreed sequence of
//     system views — GMP-3 guarantees every member sees the same sequence);
//   * coordinator-awareness (the Mgr doubles as a natural primary for
//     primary-backup replication schemes);
//   * string-payload unicast/broadcast between members, tagged with the
//     sender's view version so receivers can detect cross-view traffic
//     ("no messages from future views": payloads from a view the receiver
//     has not installed yet are buffered until it catches up).
//
// Payloads reach the message handler as a std::string_view that is valid
// only for the duration of the call: a live delivery views the packet
// buffer in place, which the runtime may reuse once the handler returns.
// Only a payload held for a future view is copied, and the held copy owns
// its bytes.  The wire encoding (u32 view version, length-prefixed bytes)
// is unchanged.
//
// See examples/ for three applications built on this API.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/runtime.hpp"
#include "gmp/node.hpp"

namespace gmpx::group {

/// Application handle bound to one GmpNode.  Register it as the node's
/// listener implicitly by construction; callbacks fire on the runtime's
/// execution context for that node.
class ProcessGroup final : public gmp::ViewListener {
 public:
  using ViewHandler = std::function<void(const gmp::View&)>;
  /// `payload` is valid only for the duration of the call; copy what you
  /// keep.
  using MessageHandler = std::function<void(ProcessId from, std::string_view payload)>;

  /// Binds to `node` (borrowed; must outlive the group handle) and installs
  /// itself as the node's view listener.
  explicit ProcessGroup(gmp::GmpNode* node);

  /// Re-bind a pooled handle to `node` for a new run: installs itself as
  /// the node's view listener and drops payloads held from the previous
  /// run.  The registered handlers stay.
  void rebind(gmp::GmpNode* node);

  /// Called on every installed view, in the agreed order.
  void on_view_change(ViewHandler h) { view_handler_ = std::move(h); }

  /// Called for every delivered application payload.
  void on_message(MessageHandler h) { message_handler_ = std::move(h); }

  /// Send `payload` to one member.
  void send(Context& ctx, ProcessId to, std::string_view payload);

  /// Send `payload` to every current member except self.
  void broadcast(Context& ctx, std::string_view payload);

  /// Current membership view.
  const gmp::View& view() const { return node_->view(); }

  /// True when this process is the group coordinator (the natural primary).
  bool is_coordinator() const { return node_->is_mgr(); }

  /// The coordinator's id as currently believed.
  ProcessId coordinator() const { return node_->mgr(); }

  /// The underlying membership endpoint.
  gmp::GmpNode& node() { return *node_; }

  /// Payloads held for a view not installed yet.
  size_t held() const { return held_.size(); }

 private:
  // gmp::ViewListener
  void on_view(const gmp::View& view) override;
  void on_app_message(ProcessId from, const std::vector<uint8_t>& bytes) override;

  void deliver_ready(ProcessId from);

  gmp::GmpNode* node_;
  ViewHandler view_handler_;
  MessageHandler message_handler_;
  /// Payloads from views we have not installed yet, per sender (owned
  /// copies: the packet buffers they arrived in are recycled).
  std::vector<std::tuple<ProcessId, ViewVersion, std::string>> held_;
};

}  // namespace gmpx::group
