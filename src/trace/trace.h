// A computation: a finite sequence of states, interpreted as an infinite
// sequence by repeating (stuttering) the last state forever.  This is
// exactly the paper's convention (Chapter 3): "For a finite computation, we
// extend the last state to form an infinite sequence."
//
// All interval-logic satisfaction is defined over these stuttering-extended
// sequences.  Because the extension is constant, no event (a predicate
// changing from false to true) can occur beyond index size()-1, which keeps
// every changeset finite and the semantics computable.
//
// Each trace carries a process-unique id() used by memoization keys
// (core/memo.h) in place of pointer identity.  The id changes whenever the
// state sequence is mutated, so a cache entry can never be satisfied by a
// trace whose contents have changed since the entry was stored.
//
// For *streaming* consumers the whole-identity bump is too blunt: appending
// a state leaves every existing position untouched, so results that only
// read the settled prefix are still valid.  A trace therefore also exposes
// an append-delta view of its mutation history: stable_id() names the state
// sequence's lineage (fresh per construction/copy, surviving push), and the
// appends()/rewrites() counters say *how* it got to its current content.
// A consumer that snapshots (stable_id, appends, rewrites) can tell a pure
// append run (delta := new states only) from an in-place rewrite (full
// invalidation required).
//
// Evaluators do not read a Trace directly: they read a TraceWindow, the
// positions [base, base + size) of one trace read as a computation of its
// own.  A Trace converts implicitly to the window over itself, so offline
// callers never see the distinction.  Online, one trace is the store of one
// state stream, written once per appended state by its owner (the
// MonitorService coordinator, a BatchMonitor, or a standalone Monitor), and
// every monitor subscribed to the stream reads it through its own window:
// the window starts where the monitor joined, grows as the monitor
// advances, and stutters its *own* last state.  Each state is stored once
// however many monitors read it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/state.h"
#include "util/assert.h"

namespace il {

class Trace {
 public:
  Trace() : id_(next_id()), stable_id_(id_) {}
  explicit Trace(std::vector<State> states)
      : states_(std::move(states)), id_(next_id()), stable_id_(id_) {}

  Trace(const Trace& other) : states_(other.states_), id_(next_id()), stable_id_(id_) {}
  Trace& operator=(const Trace& other) {
    states_ = other.states_;
    id_ = next_id();
    stable_id_ = id_;
    appends_ = 0;
    rewrites_ = 0;
    var_bytes_stale_ = true;
    return *this;
  }
  Trace(Trace&&) = default;  ///< moves keep the ids: same logical trace
  Trace& operator=(Trace&&) = default;

  /// Identity for memoization keys.  Unique per distinct state sequence the
  /// process has observed: fresh per construction/copy, refreshed on push().
  std::uint32_t id() const { return id_; }

  /// Lineage identity: fresh per construction/copy, *not* refreshed by
  /// push() or the mutable-state accessors.  Two snapshots with the same
  /// stable_id() are the same growing sequence; combine with appends() and
  /// rewrites() to learn how its content evolved in between.
  std::uint32_t stable_id() const { return stable_id_; }

  /// Number of push() calls since construction/copy.  A consumer that saw
  /// (stable_id, appends, rewrites) == (s, a, r) and now sees (s, a', r)
  /// knows exactly the states [size()-(a'-a), size()) are new and every
  /// earlier position is bit-identical — the append-only delta.
  std::uint64_t appends() const { return appends_; }

  /// Number of mutable-state handouts (back_mut/state_mut) since
  /// construction/copy.  Any change here means existing positions may have
  /// been rewritten in place: delta reasoning is off, invalidate fully.
  std::uint64_t rewrites() const { return rewrites_; }

  /// Number of explicitly stored states.  Must be >= 1 before evaluation.
  std::size_t size() const { return states_.size(); }
  bool empty() const { return states_.empty(); }

  /// State at index k of the *infinite* stuttering-extended sequence:
  /// indices past the end read the final state.
  const State& at(std::size_t k) const;

  /// Pre-sizes the state storage; identity and counters are untouched
  /// (capacity is not content).
  void reserve(std::size_t n) { states_.reserve(n); }

  /// Appends a state (invalidating previously cached results by id change;
  /// append-delta consumers instead watch appends() tick under an unchanged
  /// stable_id()).
  void push(State s) {
    states_.push_back(std::move(s));
    var_bytes_ += var_bytes(states_.back());
    id_ = next_id();
    ++appends_;
  }

  /// Drops the first n states: every later position moves down by n.  A
  /// stream's owner calls this once no reader's window starts below n, then
  /// rebases the windows (TraceWindow::rebase), which keeps every window's
  /// content — and so every cache keyed by window position — unchanged.
  /// For whole-trace consumers it is a rewrite.  Capacity is kept, so the
  /// store refills without reallocating.
  void drop_front(std::size_t n);

  /// Bytes resident in the state storage: the vector's capacity in State
  /// headers plus every state's variable array (gauge).  O(1) while the
  /// trace only grows or drops its front; after a copy or a mutable
  /// handout it recounts once, so call it from the thread that writes the
  /// trace.
  std::size_t bytes() const;

  /// Last explicitly stored state (requires non-empty).
  const State& back() const;
  /// Mutable access to the last state.  The identity id is refreshed when
  /// the reference is handed out, so finish mutating through it before the
  /// next evaluation — a reference retained across a memoized check would
  /// let later mutations alias the id the cache already stored under.
  State& back_mut();
  /// Mutable access to the state at index k (same identity contract as
  /// back_mut).  Lets exhaustive sweeps (core/bounded.h) advance one state
  /// of a reused trace instead of rebuilding the whole sequence.
  State& state_mut(std::size_t k);

  /// Index of the last explicitly stored state (requires non-empty).
  std::size_t last_index() const;

  std::string to_string() const;

  const std::vector<State>& states() const { return states_; }

  /// A fresh process-unique identity (never 0), from the counter that
  /// mints id() and stable_id(); TraceWindow draws its identities here too,
  /// so a window id never collides with a trace id.
  static std::uint32_t next_id();

 private:
  static std::size_t var_bytes(const State& s) {
    return s.vars().capacity() * sizeof(s.vars()[0]);
  }

  std::vector<State> states_;
  std::uint32_t id_ = 0;
  std::uint32_t stable_id_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t rewrites_ = 0;
  // Variable-array bytes, kept by push()/drop_front(); a mutable handout or
  // a copy marks it stale and bytes() recounts.
  mutable std::size_t var_bytes_ = 0;
  mutable bool var_bytes_stale_ = true;
};

/// Positions [base, base + size) of one Trace, read as a computation of
/// their own: position k is trace position base + k, and every position at
/// or past size() stutters the window's last state (Chapter 3's extension
/// applied to the window, not to the trace — the trace may already hold
/// states the window's reader has not reached).
///
/// Identity follows Trace's two-level scheme.  id() keys memoization of
/// whole-window results and changes on every advance(); stable_id() names
/// the window's lineage — fresh per at_end(), kept across advance() and
/// rebase() — and keys results about settled positions, which neither
/// changes.  The whole-trace window carries the trace's own ids.
///
/// A window reads its trace's storage directly: it stays valid while the
/// trace is appended to, but a reader must not read it concurrently with
/// an append (the stream's owner appends before it fans readers out).
class TraceWindow {
 public:
  /// The whole trace as one window.  Implicit: every evaluator takes a
  /// window, and a trace is the window over itself.
  TraceWindow(const Trace& trace)  // NOLINT(google-explicit-constructor)
      : trace_(&trace),
        size_(trace.size()),
        id_(trace.id()),
        stable_id_(trace.stable_id()) {}

  /// An empty window at the current end of `trace`, with a fresh lineage:
  /// a reader that joins the stream now sees exactly the states appended
  /// from here on.
  static TraceWindow at_end(const Trace& trace);

  /// Grows the window by `count` states already stored in the trace, and
  /// takes a fresh id().
  void advance(std::size_t count);

  /// The trace dropped its first `dropped` states (Trace::drop_front); the
  /// window moves down with them, reading the same states as before.
  void rebase(std::size_t dropped);

  /// State at window position k (stuttering past the window's end).
  /// Inline: every atom evaluation reads through it.
  const State& at(std::size_t k) const {
    IL_REQUIRE(size_ != 0, "trace must contain at least one state");
    return trace_->states()[base_ + (k < size_ ? k : size_ - 1)];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t last_index() const;
  /// Trace position of window position 0.
  std::size_t base() const { return base_; }
  std::uint32_t id() const { return id_; }
  std::uint32_t stable_id() const { return stable_id_; }
  const Trace& trace() const { return *trace_; }

 private:
  TraceWindow(const Trace& trace, std::size_t base, std::uint32_t lineage)
      : trace_(&trace), base_(base), id_(lineage), stable_id_(lineage) {}

  const Trace* trace_;
  std::size_t base_ = 0;
  std::size_t size_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t stable_id_ = 0;
};

/// Builder that records a system's evolution: mutate the working state via
/// set()/set_bool() and call commit() to append a snapshot.  Used by all the
/// Chapter 5-8 system simulators.
class TraceBuilder {
 public:
  TraceBuilder() = default;

  void set(const std::string& name, std::int64_t value) { working_.set(name, value); }
  void set_bool(const std::string& name, bool value) { working_.set_bool(name, value); }
  std::int64_t get(const std::string& name) const { return working_.get(name); }

  /// Appends a snapshot of the working state to the trace.
  void commit() { trace_.push(working_); }

  /// Convenience: apply `fn` to the working state, then commit.
  template <typename Fn>
  void step(Fn&& fn) {
    fn(working_);
    commit();
  }

  const Trace& trace() const { return trace_; }
  Trace take() { return std::move(trace_); }

 private:
  State working_;
  Trace trace_;
};

}  // namespace il
