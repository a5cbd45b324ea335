#include "app/work_queue.hpp"

#include <algorithm>
#include <vector>

#include "app/text_fields.hpp"

namespace gmpx::app {

uint64_t WorkQueue::next_stamp(ViewVersion v, uint32_t& seq, ViewVersion& seq_view) {
  if (v != seq_view) {
    seq_view = v;
    seq = 0;
  }
  return make_app_id(v, ++seq);
}

bool WorkQueue::client_submit() {
  Context* ctx = ctx_();
  if (!ctx || !group_->is_coordinator()) return false;
  const ViewVersion v = group_->view().version();
  const uint64_t tid = next_stamp(v, tseq_, tseq_view_);
  AppEvent& e = trace_->record(ctx->now(), AppEventKind::kSubmit, ctx->self());
  e.id = tid;
  e.view = v;
  TaskRecord& t = tasks_[tid];  // local accept: no kMirror (that's replication)
  t.state = 1;
  out_.clear();
  out_ += "s ";
  append_u64(out_, tid);
  group_->broadcast(*ctx, out_);
  dispatch();
  return true;
}

void WorkQueue::merge(Context& ctx, uint64_t tid, uint8_t state, ProcessId worker,
                      uint64_t astamp) {
  auto [it, inserted] = tasks_.try_emplace(tid);
  TaskRecord& t = it->second;
  if (inserted) {
    AppEvent& e = trace_->record(ctx.now(), AppEventKind::kMirror, ctx.self());
    e.id = tid;
    e.view = group_->view().version();
  }
  if (worker != kNilId && astamp > t.astamp) {
    t.worker = worker;
    t.astamp = astamp;
  }
  if (state > t.state) t.state = state;
  if (t.state >= 3 && !t.done_recorded) {
    t.done_recorded = true;
    AppEvent& e = trace_->record(ctx.now(), AppEventKind::kTaskDone, ctx.self());
    e.id = tid;
    e.view = group_->view().version();
  }
}

void WorkQueue::maybe_execute(Context& ctx) {
  const ProcessId self = ctx.self();
  for (auto& [tid, t] : tasks_) {
    if (t.state != 2 || t.worker != self || t.executed_here) continue;
    t.executed_here = true;
    AppEvent& ex = trace_->record(ctx.now(), AppEventKind::kExec, self);
    ex.id = tid;
    ex.view = group_->view().version();
    t.state = 3;
    if (!t.done_recorded) {
      t.done_recorded = true;
      AppEvent& d = trace_->record(ctx.now(), AppEventKind::kTaskDone, self);
      d.id = tid;
      d.view = group_->view().version();
    }
    out_.clear();
    out_ += "d ";
    append_u64(out_, tid);
    group_->broadcast(ctx, out_);
  }
}

void WorkQueue::dispatch() {
  Context* ctx = ctx_();
  if (!ctx || !group_->is_coordinator()) return;
  const gmp::View& view = group_->view();
  const ViewVersion v = view.version();
  std::vector<ProcessId>& cand = cand_;
  cand.assign(view.members().begin(), view.members().end());
  std::sort(cand.begin(), cand.end());
  if (cand.size() > 1) {
    cand.erase(std::remove(cand.begin(), cand.end(), ctx->self()), cand.end());
  }
  if (cand.empty()) return;
  for (auto& [tid, t] : tasks_) {
    if (t.state == 3) continue;
    if (t.state == 2) {
      if (view.contains(t.worker)) continue;  // claim still valid in this view
      AppEvent& rc = trace_->record(ctx->now(), AppEventKind::kReclaim, ctx->self());
      rc.id = tid;
      rc.peer = t.worker;
      rc.view = v;
    }
    const ProcessId w = cand[rr_++ % cand.size()];
    const uint64_t stamp = next_stamp(v, aseq_, aseq_view_);
    AppEvent& as = trace_->record(ctx->now(), AppEventKind::kAssign, ctx->self());
    as.id = tid;
    as.peer = w;
    as.view = v;
    if (t.state < 2) t.state = 2;
    t.worker = w;
    t.astamp = stamp;
    out_.clear();
    out_ += "a ";
    append_u64(out_, tid);
    out_ += ' ';
    append_u64(out_, w);
    out_ += ' ';
    append_u64(out_, stamp);
    group_->broadcast(*ctx, out_);
  }
  maybe_execute(*ctx);  // degenerate singleton view assigns to self
}

bool WorkQueue::handle(ProcessId /*from*/, std::string_view payload) {
  if (payload.empty()) return false;
  const char tag = payload[0];
  if (tag != 's' && tag != 'a' && tag != 'd' && tag != 'Q') return false;
  Context* ctx = ctx_();
  if (!ctx) return true;
  FieldReader in(payload.substr(1));
  uint64_t tid = 0;
  switch (tag) {
    case 's':
      if (in.next(tid)) merge(*ctx, tid, 1, kNilId, 0);
      break;
    case 'd':
      if (in.next(tid)) merge(*ctx, tid, 3, kNilId, 0);
      break;
    case 'a': {
      uint64_t worker = 0, stamp = 0;
      if (in.next(tid) && in.next(worker) && in.next(stamp)) {
        merge(*ctx, tid, 2, static_cast<ProcessId>(worker), stamp);
        maybe_execute(*ctx);
      }
      break;
    }
    default: {  // 'Q'
      uint64_t state = 0, worker = 0, stamp = 0;
      while (in.next(tid) && in.next(state) && in.next(worker) && in.next(stamp)) {
        merge(*ctx, tid, static_cast<uint8_t>(state), static_cast<ProcessId>(worker), stamp);
      }
      maybe_execute(*ctx);
      dispatch();  // the merge may have surfaced unassigned/orphaned items
      break;
    }
  }
  return true;
}

void WorkQueue::on_view() { dispatch(); }

void WorkQueue::sync_round() {
  Context* ctx = ctx_();
  if (!ctx) return;
  if (!tasks_.empty()) {
    out_.clear();
    out_ += 'Q';
    for (const auto& [tid, t] : tasks_) {
      out_ += ' ';
      append_u64(out_, tid);
      out_ += ':';
      append_u64(out_, t.state);
      out_ += ':';
      append_u64(out_, t.worker);
      out_ += ':';
      append_u64(out_, t.astamp);
    }
    group_->broadcast(*ctx, out_);
  }
  dispatch();
  maybe_execute(*ctx);
}

bool WorkQueue::all_done() const {
  for (const auto& [tid, t] : tasks_) {
    if (t.state != 3) return false;
  }
  return true;
}

}  // namespace gmpx::app
