#include "group/process_group.hpp"

#include "common/codec.hpp"

namespace gmpx::group {

ProcessGroup::ProcessGroup(gmp::GmpNode* node) : node_(node) {
  node_->set_listener(this);
}

void ProcessGroup::rebind(gmp::GmpNode* node) {
  node_ = node;
  node_->set_listener(this);
  held_.clear();
}

void ProcessGroup::send(Context& ctx, ProcessId to, std::string_view payload) {
  Writer w;
  w.u32(node_->view().version());
  w.str(payload);
  node_->send_app(ctx, to, std::move(w).take());
}

void ProcessGroup::broadcast(Context& ctx, std::string_view payload) {
  for (ProcessId q : node_->view().members()) {
    if (q == ctx.self()) continue;
    send(ctx, q, payload);
  }
}

void ProcessGroup::on_view(const gmp::View& view) {
  if (view_handler_) view_handler_(view);
  // A new view may release payloads that were sent from it.
  if (!held_.empty()) deliver_ready(kNilId);
}

void ProcessGroup::on_app_message(ProcessId from, const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  ViewVersion sent_in = r.u32();
  const std::string_view payload = r.str_view();
  r.expect_done();
  if (sent_in > node_->view().version()) {
    // From a future view (S3's buffering rule): hold an owned copy until
    // installed.
    held_.emplace_back(from, sent_in, std::string(payload));
    return;
  }
  if (message_handler_) message_handler_(from, payload);
}

void ProcessGroup::deliver_ready(ProcessId) {
  for (size_t i = 0; i < held_.size();) {
    if (std::get<1>(held_[i]) <= node_->view().version()) {
      // Take the entry out first, so the view the handler gets never points
      // into held_, which a delivery or view install it triggers may change.
      auto [from, ver, payload] = std::move(held_[i]);
      held_.erase(held_.begin() + static_cast<long>(i));
      if (message_handler_) message_handler_(from, payload);
    } else {
      ++i;
    }
  }
}

}  // namespace gmpx::group
