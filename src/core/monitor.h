// Online runtime monitor for interval-logic specifications.
//
// A Monitor accumulates states as a system runs and re-evaluates its
// formulas over the stuttering-extended trace seen so far.  This implements
// the "mechanical verification support" role the paper assigns the logic
// (Section 9) in its runtime-checking form: after every observed state the
// monitor reports, per axiom, whether the trace-so-far (extended by
// stuttering, i.e. assuming the system now quiesces) satisfies it.
//
// Verdicts are therefore *provisional*: an axiom that fails now may recover
// once an awaited event occurs (e.g. a pending ◇).  The monitor also tracks
// `violations`, counting axioms false at the final state, which is the
// quantity the benchmarks and tests assert on for complete runs.
//
// Two evaluation modes:
//
//   Mode::Incremental (default) — verdicts come from an obligation graph
//   (core/incremental.h): appending a state dirties only the obligations
//   whose right endpoint was still open, and the next verdict re-settles
//   exactly those.  Work per append is proportional to the live suffix
//   (pending response obligations + newly arrived states), not the trace
//   length; verdicts for closed intervals are pinned and never recomputed.
//   The monitor keeps two stores: a settled EvalCache (closed-world
//   results, keyed by the window's stable lineage id) and the
//   ObligationGraph (open-world state).  A settled entry never goes stale
//   under appends, but the verdicts only re-read entries near the horizon,
//   so the cache keeps a window of them: once every kSettledWindow
//   positions of horizon progress, the entries starting more than
//   kSettledWindow positions below the horizon are evicted (a dropped
//   entry that is ever needed again is recomputed, bit-identically).
//   append() is the natural entry point: observe + delta verdict in one
//   call.
//
//   Mode::Scratch — the reference semantics, and the one oracle the
//   incremental path is differentially tested against: every current()
//   re-evaluates from the monitor-lifetime EvalCache whose entries die with
//   each window identity bump.  Bit-identical verdicts to Incremental at
//   every prefix (tests/test_monitor_incremental.cpp).  Also the right mode
//   when verdicts are *rare* relative to appends (a single check after a
//   recorded run): a one-shot verdict has no deltas to exploit, so the
//   obligation graph would be pure bookkeeping overhead.
//
// Storage and reading.  A monitor reads a TraceWindow (trace/trace.h)
// over the trace that stores its stream, and advance() — the one read
// path — grows that window over states the stream's owner has already
// appended.  A *standalone* monitor (Monitor(spec)) owns its trace, and
// append()/append_block() store each state there before advancing.  A
// *stream* monitor (Monitor(spec, env, mode, stream)) holds no states: it
// reads a trace someone else owns — the MonitorService coordinator's
// per-stream store — from the stream's end at construction on, so N
// monitors on one stream cost one stored copy of each state.  The owner
// appends before it fans the monitors out.
//
// Read floor.  An incremental monitor only ever re-reads the positions its
// open obligations can still reach, so at the settled-cache cadence (every
// kSettledWindow positions) it publishes a read floor on its window: the
// lowest position any later verdict can read — the minimum of its open
// records' floors (ObligationGraph::read_floor), never past the last state
// judged.  Settled axiom verdicts are kept by the monitor and settled
// closed-world operands by their composite records, so neither re-reads an
// old position.  The stream's owner may drop every state below read_floor()
// (Trace::drop_front); positions are absolute, so no window or cache
// notices, and TraceWindow::at throws on any read below the floor.  A
// Scratch monitor re-reads its whole window, so its floor stays at its base,
// and demote_to_scratch() lowers the floor back to the base (the service
// pins every base while a byte budget can demote).  A standalone monitor
// publishes its floor too, but never drops its own trace: trace() is a
// whole-trace view.
//
// A Monitor is a stateful online object: current(), although const, writes
// the internal stores, so a single Monitor must be driven from one thread
// at a time, and never while its trace is being appended to.  Use one
// standalone Monitor per stream; for fleets sharing one state stream use
// engine::MonitorService (engine/service.h), and for offline batch
// verdicts engine::BatchChecker.  A Monitor whose append or advance threw
// (an injected fault) must be discarded: the service quarantines it,
// freeing its stores while its fleet runs on, and a standalone monitor's
// caller drops it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/memo.h"
#include "trace/trace.h"

namespace il {

class Monitor {
 public:
  enum class Mode {
    Incremental,  ///< obligation-graph delta pass (default)
    Scratch,      ///< full re-evaluation per verdict (reference semantics)
  };

  /// Incremental mode's settled-cache window, in positions: at the first
  /// epoch boundary after every kSettledWindow positions of horizon
  /// progress, entries whose interval starts more than kSettledWindow
  /// positions below the epoch's lowest verdict horizon are evicted.  So
  /// the cache holds at most about 2 * kSettledWindow positions' entries
  /// however long the monitor runs.
  static constexpr std::size_t kSettledWindow = 64;

  /// A standalone monitor: owns the trace it reads, fed by append().
  explicit Monitor(Spec spec, Env env = {}, Mode mode = Mode::Incremental);

  /// A stream monitor: reads `stream` (not owned; must outlive the monitor)
  /// through a window starting at its current end, so it observes exactly
  /// the states appended after construction.  Fed by advance().
  Monitor(Spec spec, Env env, Mode mode, const Trace& stream);

  /// Standalone: stores one state and observes it without a verdict.
  void observe(const State& s);

  /// Standalone: stores one state and returns the refreshed verdicts — the
  /// streaming append-delta pass (equivalent to observe() + current()).
  CheckResult append(const State& s);

  /// Standalone: stores `count` states and advances over them as one block
  /// (advance()): bit-identical to `count` append() calls, per state.
  void append_block(const State* const* states, std::size_t count, CheckResult* out);

  /// The read path: grows the window over the next `count` states of the
  /// trace (already stored by its owner) and, unless `out` is null, writes
  /// the verdict after each into out[0..count).  Incremental mode runs ONE
  /// obligation-graph epoch covering the whole block — a single
  /// invalidation pass instead of one per state — and evaluates the
  /// intermediate verdicts at increasing *virtual* horizons
  /// (core/incremental.h), which is what makes batched epochs pay.  Scratch
  /// mode advances and re-evaluates state by state.  The `monitor.append`
  /// fault site fires once per state.
  void advance(std::size_t count, CheckResult* out);

  /// Verdicts for the window so far (provisional; see header comment).
  CheckResult current() const;

  /// Number of observed states (the window's size).
  std::size_t states_seen() const { return window_.size(); }
  /// Stream position of the first observed state.
  std::size_t base() const { return window_.base(); }
  /// Stream position of the lowest state any later verdict can read: the
  /// published read floor (see the header comment), base() until the first
  /// publication and always in Scratch mode.  The stream's owner may drop
  /// every state below it.
  std::size_t read_floor() const { return window_.base() + window_.floor(); }

  /// The trace the monitor reads: its own (standalone) or its stream's
  /// store, of which it reads [base(), base() + states_seen()).
  const Trace& trace() const { return window_.trace(); }
  const Spec& spec() const { return spec_; }
  Mode mode() const { return mode_; }

  /// The monitor-lifetime memoization cache.  Scratch mode: entries are
  /// invalidated by trace identity.  Incremental mode: the settled
  /// closed-world store — entries stay valid while the trace only grows,
  /// and those starting within kSettledWindow positions of the horizon
  /// survive appends; older ones are evicted (evicted() counts them).
  const EvalCache& cache() const { return cache_; }

  /// Incremental mode's open-world store (empty in scratch mode).
  const ObligationGraph& obligations() const { return graph_; }

  /// Pre-sizes a standalone monitor's state storage (e.g. for benchmarks
  /// that append a known number of states and must not pay reallocation
  /// mid-loop).  A stream monitor's storage belongs to the stream's owner.
  void reserve(std::size_t states);

  // -- resource-budget hooks (engine/service.h degradation ladder) ---------

  /// Bytes resident in this monitor's evaluation stores: the memo cache's
  /// slot table plus the obligation graph's estimate — obligation and
  /// reverse-index vectors, per-kind resume state, interval-tree node pool,
  /// GC bookkeeping, and hash-table entries (gauge).  The trace the
  /// monitor reads is not included: a stream's store is shared.
  std::size_t footprint_bytes() const { return cache_.bytes() + graph_.bytes(); }

  /// Automatic mark-and-sweep pacing for the obligation graph
  /// (ObligationGraph::set_gc_fraction); sweeps run at epoch boundaries
  /// inside the verdict path.  <= 0 disables automatic sweeps.
  void set_gc_fraction(double fraction);

  /// Forces a mark-and-sweep GC pass on the obligation graph
  /// (ObligationGraph::gc_sweep): frees records unreachable from the root
  /// verdict obligations.  Verdicts are unaffected — a freed record that is
  /// ever queried again is recomputed from scratch.  No-op in scratch mode.
  /// The FIRST rung of the budget-degradation ladder.  Returns the records
  /// freed.
  std::size_t gc_obligations();

  /// Demotes an incremental monitor to Mode::Scratch in place: the
  /// obligation graph and the settled cache are freed (their lifetime
  /// counters survive), the window is kept — the scratch path re-reads it
  /// from base() — and every later verdict comes
  /// from the scratch path — bit-identical to the incremental verdicts it
  /// would have produced, at full re-evaluation cost.  The second rung of
  /// the budget-degradation ladder.  No-op if already scratch.
  void demote_to_scratch();

 private:
  void store(const State& s);  ///< standalone: append to the owned trace
  void grow_window(std::size_t count);  ///< fault site per state, then advance
  CheckResult current_scratch() const;
  CheckResult current_incremental() const;
  void sync_incremental_epoch() const;  ///< fold unseen states into one epoch
  void publish_floor() const;  ///< the window's read floor, at an epoch boundary
  CheckResult verdict_at(std::size_t horizon) const;  ///< epoch already synced

  static constexpr std::int8_t kRootOpen = -1;

  Spec spec_;
  Env env_;
  Mode mode_;
  std::unique_ptr<Trace> own_;  ///< standalone store (heap: stable under moves); null = stream
  mutable TraceWindow window_;  ///< what this monitor reads (and its floor)
  mutable EvalCache cache_;  ///< persists across observe()/current() calls
  mutable std::uint32_t cache_window_id_ = 0;  ///< scratch: window id the cache was filled under
  mutable ObligationGraph graph_;
  mutable std::size_t synced_ = 0;  ///< window size at the last incremental epoch
  mutable std::size_t swept_ = 0;   ///< synced_ at the last settled-cache sweep
  /// Per axiom: its settled verdict (0/1), or kRootOpen while it can change.
  mutable std::vector<std::int8_t> root_kept_;
};

}  // namespace il
