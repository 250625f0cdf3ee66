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
  // last verdict): the invalidation pass and the settled-cache reuse run
  // once, and the per-prefix verdicts come from virtual horizons.
  sync_incremental_epoch();
  const std::size_t first = window_.size() - count;
  for (std::size_t i = 0; i < count; ++i) out[i] = verdict_at(first + i);
}

CheckResult Monitor::current() const {
  IL_REQUIRE(!window_.empty(), "no states observed yet");
  return mode_ == Mode::Incremental ? current_incremental() : current_scratch();
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
  window_.set_floor(0);  // the scratch path re-reads the window from its base
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
  // The window only ever grows (a trimmed store keeps its positions), so
  // the delta since the last epoch is exactly the states past synced_.
  if (window_.size() != synced_) {
    // Epoch boundary: no evaluation in flight, so this is the one safe spot
    // for an automatic mark-and-sweep (pacing in ObligationGraph::maybe_gc),
    // for the settled-cache window and for the read floor.  This epoch's
    // verdicts read horizons synced_ and up, so entries starting more than
    // kSettledWindow below synced_ go.
    graph_.maybe_gc();
    if (synced_ >= swept_ + kSettledWindow) {
      cache_.evict_below(synced_ - kSettledWindow);
      publish_floor();
      swept_ = synced_;
    }
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

void Monitor::reserve(std::size_t states) {
  if (own_ != nullptr) own_->reserve(states);
}

void Monitor::publish_floor() const {
  // Every later verdict reads through a kept root answer or an open record,
  // and each open record reads at or above its own floor.  A record built
  // without a key (bindings over EvalCache::kMaxEnv) rescans from its lo at
  // every recomputation, beneath whatever floor its parent promised: such a
  // monitor keeps its whole window.  The floor stays at or below the last
  // state judged so far — stuttering reads the window's last state.
  if (graph_.env_overflows() != 0) return;
  const std::uint64_t floor = std::min<std::uint64_t>(graph_.read_floor(), synced_ - 1);
  window_.set_floor(static_cast<std::size_t>(floor));
}

CheckResult Monitor::verdict_at(std::size_t horizon) const {
  IL_INJECT_FAULT("monitor.verdict");
  IncrementalEvaluator ev(window_, &graph_, &cache_, horizon);
  CheckResult result;
  const std::vector<const Axiom*> axioms = spec_.all();
  if (root_kept_.size() != axioms.size()) root_kept_.assign(axioms.size(), kRootOpen);
  for (std::size_t i = 0; i < axioms.size(); ++i) {
    // A settled axiom verdict is pinned forever: keep it, so no later
    // verdict re-reads the positions it was judged from.
    bool ok;
    if (root_kept_[i] != kRootOpen) {
      ok = root_kept_[i] != 0;
    } else {
      bool settled = false;
      ok = ev.sat_root(*axioms[i]->formula, env_, &settled);
      if (settled) root_kept_[i] = ok ? 1 : 0;
    }
    if (!ok) {
      result.ok = false;
      result.failed.push_back(spec_.name + "." + axioms[i]->name);
    }
  }
  return result;
}

CheckResult Monitor::current_incremental() const {
  sync_incremental_epoch();
  return verdict_at(window_.last_index());
}

}  // namespace il
