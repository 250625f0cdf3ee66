#include "core/monitor.h"

#include "core/incremental.h"
#include "util/assert.h"
#include "util/fault.h"

namespace il {

Monitor::Monitor(Spec spec, Env env, Mode mode)
    : spec_(std::move(spec)),
      env_(std::move(env)),
      mode_(mode),
      own_(std::make_unique<Trace>()),
      window_(TraceWindow::at_end(*own_)) {}

Monitor::Monitor(Spec spec, Env env, Mode mode, const Trace& stream)
    : spec_(std::move(spec)),
      env_(std::move(env)),
      mode_(mode),
      window_(TraceWindow::at_end(stream)) {}

void Monitor::store(const State& s) {
  IL_REQUIRE(own_ != nullptr, "a stream monitor reads its stream's store; use advance()");
  own_->push(s);
}

void Monitor::observe(const State& s) {
  store(s);
  advance(1, nullptr);
}

CheckResult Monitor::append(const State& s) {
  store(s);
  CheckResult out;
  advance(1, &out);
  return out;
}

void Monitor::append_block(const State* const* states, std::size_t count, CheckResult* out) {
  for (std::size_t i = 0; i < count; ++i) store(*states[i]);
  advance(count, out);
}

void Monitor::grow_window(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) IL_INJECT_FAULT("monitor.append");
  window_.advance(count);
}

void Monitor::advance(std::size_t count, CheckResult* out) {
  if (count == 0) return;
  if (out == nullptr) {
    grow_window(count);  // observed only: the next verdict folds them in
    return;
  }
  if (mode_ == Mode::Scratch) {
    // Scratch re-evaluates per state, so its window (and with it the
    // cache identity) moves one state at a time.
    for (std::size_t i = 0; i < count; ++i) {
      grow_window(1);
      out[i] = current_scratch();
    }
    return;
  }
  grow_window(count);
  // One epoch for the whole block (plus any states observe()d since the
  // last verdict): the invalidation walk and the settled-cache reuse run
  // once, and the per-prefix verdicts come from virtual horizons.
  sync_incremental_epoch();
  const std::size_t first = window_.size() - count;
  for (std::size_t i = 0; i < count; ++i) out[i] = verdict_at(first + i);
}

CheckResult Monitor::current() const {
  IL_REQUIRE(!window_.empty(), "no states observed yet");
  return mode_ == Mode::Incremental ? current_incremental() : current_scratch();
}

std::size_t Monitor::compact_settled() {
  if (mode_ != Mode::Incremental) return 0;
  return graph_.compact_settled();
}

void Monitor::demote_to_scratch() {
  if (mode_ == Mode::Scratch) return;
  mode_ = Mode::Scratch;
  // Both stores go: the graph's obligations and the settled cache's entries
  // are only reachable from the incremental path.  The window stays, so the
  // scratch evaluator — the reference semantics — produces bit-identical
  // verdicts from here on.  release() (not clear()) keeps the lifetime
  // hit/miss history an operator has been watching.
  graph_.reset();
  cache_.release();
  cache_window_id_ = window_.id();
}

CheckResult Monitor::current_scratch() const {
  // One persistent cache across calls: entries keyed on the window identity
  // id stay valid exactly as long as the window is unchanged, so a repeated
  // verdict (or the shared subformulas of later verdicts) is served from
  // memory instead of re-evaluated.  When an advance has refreshed the id,
  // every resident entry is unreachable forever — evict them wholesale so a
  // long-running monitor's memory stays bounded by one window's working set
  // (the lifetime hit/miss counters survive eviction).
  IL_INJECT_FAULT("monitor.verdict");
  if (window_.id() != cache_window_id_) {
    cache_.evict_entries();
    cache_window_id_ = window_.id();
  }
  return check_spec_cached(spec_, window_, env_, &cache_);
}

void Monitor::sync_incremental_epoch() const {
  // The window only ever grows (rebasing keeps its content), so the delta
  // since the last epoch is exactly the states past synced_.
  if (window_.size() != synced_) {
    // Epoch boundary: no evaluation in flight, so this is the one safe spot
    // for an automatic mark-and-sweep (pacing in ObligationGraph::maybe_gc).
    graph_.maybe_gc();
    // One epoch per verdict refresh (several states between verdicts fold
    // into one invalidation pass; the scan frontiers cover the gap).
    graph_.begin_epoch(window_.last_index());
    synced_ = window_.size();
  }
}

std::size_t Monitor::gc_obligations() {
  if (mode_ != Mode::Incremental) return 0;
  return graph_.gc_sweep();
}

void Monitor::set_gc_fraction(double fraction) { graph_.set_gc_fraction(fraction); }

void Monitor::set_invalidation(ObligationGraph::Invalidation mode) {
  graph_.set_invalidation(mode);
}

void Monitor::set_cache_capacity(std::size_t cap) { cache_.set_capacity(cap); }

void Monitor::reserve(std::size_t states) {
  if (own_ != nullptr) own_->reserve(states);
}

CheckResult Monitor::verdict_at(std::size_t horizon) const {
  IL_INJECT_FAULT("monitor.verdict");
  IncrementalEvaluator ev(window_, &graph_, &cache_, horizon);
  CheckResult result;
  for (const Axiom* axiom : spec_.all()) {
    if (!ev.sat_root(*axiom->formula, env_)) {
      result.ok = false;
      result.failed.push_back(spec_.name + "." + axiom->name);
    }
  }
  return result;
}

CheckResult Monitor::current_incremental() const {
  sync_incremental_epoch();
  return verdict_at(window_.last_index());
}

}  // namespace il
