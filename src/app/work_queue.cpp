#include "app/work_queue.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "app/text_fields.hpp"

namespace gmpx::app {

void WorkQueue::reset() {
  tasks_.clear();
  open_.clear();
  mine_.clear();
  tseq_ = 0;
  tseq_view_ = 0;
  aseq_ = 0;
  aseq_view_ = 0;
  rr_ = 0;
}

uint64_t WorkQueue::next_stamp(ViewVersion v, uint32_t& seq, ViewVersion& seq_view) {
  if (v != seq_view) {
    seq_view = v;
    seq = 0;
  }
  return make_app_id(v, ++seq);
}

void WorkQueue::refile(uint64_t tid, const TaskRecord& t, bool was_open, bool was_mine,
                       ProcessId self) {
  if (const bool open = is_open(t); open != was_open) {
    if (open) open_.insert(tid);
    else open_.erase(tid);
  }
  if (const bool mine = is_mine(t, self); mine != was_mine) {
    if (mine) mine_.insert(tid);
    else mine_.erase(tid);
  }
}

bool WorkQueue::client_submit() {
  Context* ctx = ctx_();
  if (!ctx || !group_->is_coordinator()) return false;
  const ViewVersion v = group_->view().version();
  const uint64_t tid = next_stamp(v, tseq_, tseq_view_);
  AppEvent& e = trace_->record(ctx->now(), AppEventKind::kSubmit, ctx->self());
  e.id = tid;
  e.view = v;
  auto [it, inserted] = tasks_.try_emplace(tid);  // local accept: no kMirror (that's replication)
  TaskRecord& t = it->second;
  const bool was_open = !inserted && is_open(t);
  const bool was_mine = !inserted && is_mine(t, ctx->self());
  t.state = 1;
  refile(tid, t, was_open, was_mine, ctx->self());
  out_.clear();
  out_ += "s ";
  append_u64(out_, tid);
  group_->broadcast(*ctx, out_);
  dispatch();
  return true;
}

void WorkQueue::merge(Context& ctx, Table::iterator it, bool inserted, uint8_t state,
                      ProcessId worker, uint64_t astamp) {
  const uint64_t tid = it->first;
  TaskRecord& t = it->second;
  const bool was_open = !inserted && is_open(t);
  const bool was_mine = !inserted && is_mine(t, ctx.self());
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
  refile(tid, t, was_open, was_mine, ctx.self());
}

void WorkQueue::maybe_execute(Context& ctx) {
  const ProcessId self = ctx.self();
  for (uint64_t tid : mine_) {
    TaskRecord& t = tasks_.find(tid)->second;
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
    open_.erase(tid);
    out_.clear();
    out_ += "d ";
    append_u64(out_, tid);
    group_->broadcast(ctx, out_);
  }
  mine_.clear();  // every item it held is executed and done now
}

void WorkQueue::dispatch() {
  Context* ctx = ctx_();
  if (!ctx || !group_->is_coordinator()) return;
  const gmp::View& view = group_->view();
  if (view.members().empty()) return;  // no assignment candidates
  const ViewVersion v = view.version();
  const ProcessId self = ctx->self();
  std::vector<ProcessId>& cand = cand_;
  cand.clear();  // built on the first assignment: the view's members, ascending
  for (uint64_t tid : open_) {
    TaskRecord& t = tasks_.find(tid)->second;
    if (t.state == 2) {
      if (view.contains(t.worker)) continue;  // claim still valid in this view
      AppEvent& rc = trace_->record(ctx->now(), AppEventKind::kReclaim, self);
      rc.id = tid;
      rc.peer = t.worker;
      rc.view = v;
    }
    if (cand.empty()) {
      cand.assign(view.members().begin(), view.members().end());
      std::sort(cand.begin(), cand.end());
      if (cand.size() > 1) cand.erase(std::remove(cand.begin(), cand.end(), self), cand.end());
    }
    const ProcessId w = cand[rr_++ % cand.size()];
    const uint64_t stamp = next_stamp(v, aseq_, aseq_view_);
    AppEvent& as = trace_->record(ctx->now(), AppEventKind::kAssign, self);
    as.id = tid;
    as.peer = w;
    as.view = v;
    const bool was_mine = is_mine(t, self);
    if (t.state < 2) t.state = 2;
    t.worker = w;
    t.astamp = stamp;
    refile(tid, t, /*was_open=*/true, was_mine, self);
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
      if (in.next(tid)) {
        auto [it, inserted] = tasks_.try_emplace(tid);
        merge(*ctx, it, inserted, 1, kNilId, 0);
      }
      break;
    case 'd':
      if (in.next(tid)) {
        auto [it, inserted] = tasks_.try_emplace(tid);
        merge(*ctx, it, inserted, 3, kNilId, 0);
      }
      break;
    case 'a': {
      uint64_t worker = 0, stamp = 0;
      if (in.next(tid) && in.next(worker) && in.next(stamp)) {
        auto [it, inserted] = tasks_.try_emplace(tid);
        merge(*ctx, it, inserted, 2, static_cast<ProcessId>(worker), stamp);
        maybe_execute(*ctx);
      }
      break;
    }
    default: {  // 'Q'
      // One forward pass: each tid's search starts past the previous one's
      // entry (an out-of-order tid falls back to a binary search).
      uint64_t state = 0, worker = 0, stamp = 0;
      Table::iterator hint = tasks_.begin();
      while (in.next(tid) && in.next(state) && in.next(worker) && in.next(stamp)) {
        auto [it, inserted] = tasks_.try_emplace_from(hint, tid);
        merge(*ctx, it, inserted, static_cast<uint8_t>(state), static_cast<ProcessId>(worker),
              stamp);
        hint = std::next(it);
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

}  // namespace gmpx::app
