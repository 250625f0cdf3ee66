// Incremental evaluation over a growing trace: the obligation-expansion /
// settlement recast of core/semantics.h used by the online monitor.
//
// The scratch evaluator answers s<0,inf> |= a by structural recursion; on a
// monitor that re-asks after every appended state, almost all of that work
// re-derives facts about the settled prefix.  The incremental evaluator
// splits every query by one construction-time node flag (suffix_sensitive,
// core/ast.h) and one interval property (is the right endpoint open?):
//
//   - CLOSED WORLD — a finite interval, or a suffix-insensitive node over
//     any interval: the answer reads only positions at or below the current
//     horizon, which appends never change.  These queries run through a
//     plain Evaluator backed by the monitor's settled EvalCache, keyed by
//     the window's *stable* lineage id: every entry is valid forever, so
//     the cache is never evicted while the window only grows.
//
//   - OPEN WORLD — a suffix-sensitive node over <lo, inf>: the answer may
//     change as states arrive.  Each such query is an obligation in the
//     ObligationGraph (core/memo.h) carrying its current verdict, a settled
//     flag, dependency edges, and per-kind resume state.  Re-settlement is
//     a delta pass:
//
//       []a   keeps a scan frontier and the start positions whose body
//             verdict is true-but-open; an append rechecks those and scans
//             only the new positions.  Settles (false) when some body
//             verdict settles false.
//       <>a   dual: false-but-open positions; settles (true) on a settled
//             witness.
//       event search: the changeset scan resumes from its frontier (forward)
//             or covers just the new region (backward) when the defining
//             formula is suffix-insensitive — probes below the horizon are
//             immutable.  A found forward change settles.
//       everything else composes child obligations and settles exactly when
//             the children its value depends on have settled.
//
// Obligation values are bit-identical to the scratch evaluator at every
// trace length (the differential suite in tests/test_monitor_incremental.cpp
// proves it per appended state); settlement is sound but deliberately
// conservative — an obligation marked settled can never change, one left
// open merely costs a recheck.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/ast.h"
#include "core/memo.h"
#include "core/semantics.h"
#include "trace/trace.h"

namespace il {

/// Evaluator binding formulas to one *growing* trace window.  All durable state
/// lives in the borrowed graph/cache, so the evaluator itself is a cheap
/// stateless façade — the monitor constructs one per verdict.  Call
/// ObligationGraph::begin_epoch() after each append, before re-reading
/// roots.
///
/// Single-threaded, like the monitor that owns it.
class IncrementalEvaluator {
 public:
  /// `graph` and `settled_cache` are borrowed and must outlive the
  /// evaluator.  Positions are window positions, and cache keys use the
  /// window's stable_id(), which survives advances and rebasing — the two
  /// ways a monitor's window changes, neither of which rewrites a position
  /// it has read.
  IncrementalEvaluator(const TraceWindow& trace, ObligationGraph* graph,
                       EvalCache* settled_cache);

  /// Virtual-horizon variant for batched epochs (Monitor::advance):
  /// evaluates as if the window ended at index `horizon` (inclusive), which
  /// must be <= trace.last_index().  Open-world scans stop there and open
  /// obligations record it, so a block of appends can run ONE
  /// begin_epoch() and still read every intermediate verdict bit-identical
  /// to per-state epochs: resume state (frontiers, open positions, rolling
  /// probes) evolves through the same horizon sequence either way.  The
  /// closed-world delegate needs no override — settled results are
  /// horizon-invariant by construction (that is what lets the settled cache
  /// live forever under appends).
  IncrementalEvaluator(const TraceWindow& trace, ObligationGraph* graph,
                       EvalCache* settled_cache, std::uint64_t horizon);

  /// Whole-computation satisfaction (s<0,inf> |= formula) at the current
  /// trace length, re-settling only dirty obligations.
  bool sat_root(const Formula& formula, const Env& env);

 private:
  struct Val {
    bool value = false;
    bool settled = false;
  };
  struct Found {
    Interval iv;
    bool settled = false;
  };

  using ObId = ObligationGraph::ObId;
  static constexpr ObId kNoOb = ObligationGraph::kNoOb;

  /// Obligation-or-delegate dispatch.  `dep_to` is the obligation whose
  /// recomputation issued this query (kNoOb at a root): child obligations
  /// register reverse-dependency edges to it.
  Val sat_inc(const Formula& f, Interval iv, const Env& env, ObId dep_to);
  Found find_inc(const Term& t, Interval ctx, Dir dir, const Env& env, ObId dep_to);
  Val stars_inc(const Term& t, Interval ctx, Dir dir, const Env& env, ObId dep_to);

  /// Open-world recomputation bodies.  `attach` is where child dependency
  /// edges go (the obligation itself, or the caller's on key overflow);
  /// `self` is the obligation carrying resume state (kNoOb on overflow, in
  /// which case temporal kinds degrade to a full — still correct — scan).
  Val sat_compute(const Formula& f, std::uint64_t lo, const Env& env, ObId attach, ObId self);
  Val always_compute(const Formula& f, std::uint64_t lo, const Env& env, ObId attach,
                     ObId self);
  Val eventually_compute(const Formula& f, std::uint64_t lo, const Env& env, ObId attach,
                         ObId self);
  Found find_compute(const Term& t, std::uint64_t lo, Dir dir, const Env& env, ObId attach,
                     ObId self);
  Found find_event_fwd(const Term& t, std::uint64_t lo, const Env& env, ObId attach, ObId self);
  Found find_event_bwd(const Term& t, std::uint64_t lo, const Env& env, ObId attach, ObId self);
  Val stars_compute(const Term& t, std::uint64_t lo, Dir dir, const Env& env, ObId attach,
                    ObId self);

  /// Changeset probe: does the defining formula hold on <k, inf>?
  /// Suffix-insensitive defining formulas go through the settled delegate
  /// (the overwhelmingly common case); sensitive ones recurse open-world.
  Val probe(const Formula& defining, std::uint64_t k, const Env& env, ObId attach);

  bool make_key(std::uint32_t node, ObligationGraph::Op op, std::uint64_t lo,
                const std::vector<std::uint32_t>& metas, const Env& env,
                ObligationGraph::Key& key);
  void add_horizon_dep(ObId attach);

  const TraceWindow trace_;
  ObligationGraph* graph_;
  std::uint64_t horizon_;  ///< last visible index (== trace_.last_index() unless virtual)
  Evaluator delegate_;     ///< closed-world path, over the settled cache
};

}  // namespace il
