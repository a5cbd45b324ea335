#include "app/registry.hpp"

#include "app/text_fields.hpp"

namespace gmpx::app {

bool Registry::client_write(uint32_t key) {
  Context* ctx = ctx_();
  if (!ctx || !group_->is_coordinator()) return false;
  const ViewVersion v = group_->view().version();
  if (v != wseq_view_) {
    wseq_view_ = v;
    wseq_ = 0;
  }
  const uint64_t wid = make_app_id(v, ++wseq_);
  AppEvent& e = trace_->record(ctx->now(), AppEventKind::kWriteCommit, ctx->self());
  e.id = wid;
  e.key = key;
  e.view = v;
  apply(*ctx, key, wid);
  out_.clear();
  out_ += "w ";
  append_u64(out_, key);
  out_ += ' ';
  append_u64(out_, wid);
  group_->broadcast(*ctx, out_);
  return true;
}

uint64_t Registry::client_read(ProcessId client, uint32_t key) {
  Context* ctx = ctx_();
  if (!ctx) return 0;
  auto it = data_.find(key);
  const uint64_t wid = it == data_.end() ? 0 : it->second;
  AppEvent& e = trace_->record(ctx->now(), AppEventKind::kRead, ctx->self());
  e.peer = client;
  e.id = wid;
  e.key = key;
  e.view = group_->view().version();
  return wid;
}

void Registry::apply(Context& ctx, uint32_t key, uint64_t wid) {
  uint64_t& cur = data_[key];
  if (wid <= cur) return;  // LWW merge: stale/duplicate replication is a no-op
  cur = wid;
  AppEvent& e = trace_->record(ctx.now(), AppEventKind::kApply, ctx.self());
  e.id = wid;
  e.key = key;
  e.view = group_->view().version();
}

bool Registry::handle(ProcessId /*from*/, std::string_view payload) {
  if (payload.empty() || (payload[0] != 'w' && payload[0] != 'W')) return false;
  Context* ctx = ctx_();
  if (!ctx) return true;
  FieldReader in(payload.substr(1));
  uint64_t key = 0, wid = 0;
  if (payload[0] == 'w') {
    if (in.next(key) && in.next(wid)) apply(*ctx, static_cast<uint32_t>(key), wid);
  } else {
    while (in.next(key) && in.next(wid)) apply(*ctx, static_cast<uint32_t>(key), wid);
  }
  return true;
}

void Registry::sync_round() {
  Context* ctx = ctx_();
  if (!ctx || data_.empty()) return;
  out_.clear();
  out_ += 'W';
  for (const auto& [key, wid] : data_) {
    out_ += ' ';
    append_u64(out_, key);
    out_ += ':';
    append_u64(out_, wid);
  }
  group_->broadcast(*ctx, out_);
}

}  // namespace gmpx::app
