// Subformula memoization for interval-logic evaluation.
//
// Evaluating [] / <> over an interval re-evaluates the body at every start
// position, and nested interval formulas re-run the F interval-construction
// search from each of those positions; the same (node, interval, bindings)
// queries therefore recur many times within one check.  An EvalCache
// remembers those results.  Keys are fully packed integers:
//
//   - the AST node by hash-cons id (core/intern.h) — structurally identical
//     subformulas built anywhere in the process share entries,
//   - the trace window by TraceWindow::id() (caches outlive a single
//     Evaluator: the engine keeps one per worker thread across a whole
//     batch, and the id changes whenever a trace is mutated or a window
//     advances),
//   - the evaluation interval, search direction, and the meta-variable
//     bindings the node can observe, as a short (meta id, value) span.
//
// The table is insert-only open addressing (linear probing, power-of-two
// capacity): no buckets, no per-entry allocation, and lookups touch one
// cache line in the common case.  Because keys capture every input of the
// memoized functions exactly, cached evaluation is bit-identical to uncached
// evaluation; tests assert this across all case-study specifications.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace il {

class Env;

class EvalCache {
 public:
  /// What a key's node/interval meant when the entry was stored.
  enum class Op : std::uint8_t { Sat, FindFwd, FindBwd };

  /// Meta-variable bindings a key can carry inline.  Keys are restricted to
  /// the node's *free* metas before caching (see core/semantics.cpp), which
  /// in practice is a handful; nodes observing more bindings than this are
  /// evaluated uncached (counted in env_overflows()).
  static constexpr std::size_t kMaxEnv = 4;

  struct Key {
    std::uint32_t node = 0;   ///< hash-cons node id (Formula or Term)
    std::uint32_t trace = 0;  ///< TraceWindow::id() (or the owner's override)
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    Op op = Op::Sat;
    std::uint8_t n_env = 0;   ///< bindings in use
    std::uint32_t metas[kMaxEnv] = {0, 0, 0, 0};   ///< sorted meta ids
    std::int64_t values[kMaxEnv] = {0, 0, 0, 0};

    bool operator==(const Key& o) const {
      if (node != o.node || trace != o.trace || lo != o.lo || hi != o.hi || op != o.op ||
          n_env != o.n_env) {
        return false;
      }
      for (std::uint8_t i = 0; i < n_env; ++i) {
        if (metas[i] != o.metas[i] || values[i] != o.values[i]) return false;
      }
      return true;
    }
  };

  /// Cached result: a sat() boolean or a found interval, stored uniformly as
  /// (lo, hi, null) with `value` carrying the boolean for Op::Sat.
  struct Entry {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool null = true;
    bool value = false;
  };

  EvalCache();

  /// Returns the entry for `key`, or nullptr on a miss.  Hit/miss counters
  /// are updated either way.  The pointer is invalidated by the next store().
  const Entry* lookup(const Key& key);

  /// Stores `entry`; no-op once the soft capacity is reached (the cache
  /// never evicts — batch lifetimes are short and bounded).
  void store(const Key& key, const Entry& entry);

  void clear();

  /// Drops every stored entry but keeps the lifetime hit/miss/insert
  /// counters and the allocated table.  For long-lived owners
  /// (core/monitor.h): entries orphaned by a trace identity change are
  /// unreachable forever, so they are evicted wholesale instead of
  /// accumulating toward the capacity cap.
  void evict_entries();

  /// Frees the slot table itself (unlike evict_entries(), which keeps the
  /// allocation) while preserving the lifetime counters (unlike clear(),
  /// which resets them).  For resource-budget enforcement: demoting or
  /// quarantining a monitor must actually return the bytes.
  void release();

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  std::size_t inserts() const { return inserts_; }
  std::size_t env_overflows() const { return env_overflows_; }
  std::size_t size() const { return count_; }

  /// Bytes held by the slot table (gauge; capacity, not load, since the
  /// table is what the allocator charges us for).
  std::size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// Called by the evaluator when a node's observable bindings exceed
  /// kMaxEnv and the query bypasses the cache.
  void note_env_overflow() { ++env_overflows_; }

  /// Counter-export hook for the introspection surface
  /// (engine/introspect.h): calls fn(name, value) for every counter.
  /// `entries` is a gauge (resident now); the rest are lifetime counters.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    fn("hits", static_cast<std::uint64_t>(hits_));
    fn("misses", static_cast<std::uint64_t>(misses_));
    fn("inserts", static_cast<std::uint64_t>(inserts_));
    fn("entries", static_cast<std::uint64_t>(count_));
    fn("env_overflows", static_cast<std::uint64_t>(env_overflows_));
    fn("bytes", static_cast<std::uint64_t>(bytes()));
  }

  /// Soft cap on stored entries; 0 means unlimited.
  void set_capacity(std::size_t cap) { capacity_ = cap; }

 private:
  struct Slot {
    Key key;
    Entry entry;
    bool used = false;
  };

  static std::size_t hash_key(const Key& k);
  std::size_t probe(const Key& key) const;  ///< slot index of key or first free
  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;       ///< slots_.size() - 1 (power of two)
  std::size_t count_ = 0;
  std::size_t capacity_ = 1u << 22;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t inserts_ = 0;
  std::size_t env_overflows_ = 0;
};

/// Restricts the ambient bindings to a node's free metas (both sides sorted
/// by id: a linear merge) into an inline (meta, value) span of capacity
/// EvalCache::kMaxEnv, so cache/obligation keys are shared across bindings
/// the node never reads.  Returns false when the observable bindings
/// overflow the span, in which case the caller evaluates unkeyed.  Shared by
/// the memoizing evaluator (core/semantics.cpp) and the incremental
/// evaluator (core/incremental.cpp).
bool restrict_env_span(const std::vector<std::uint32_t>& metas, const Env& env,
                       std::uint8_t& n_env, std::uint32_t* metas_out,
                       std::int64_t* values_out);

// ---------------------------------------------------------------------------
// IntervalIndex: augmented balanced tree over trace-sensitivity intervals.
// ---------------------------------------------------------------------------

/// An augmented AVL interval tree mapping closed intervals [lo, hi] (hi may
/// be kInf for half-open sensitivity windows) to 32-bit payloads, supporting
/// stabbing queries: "which intervals contain point p?" in
/// O(log n + reported) node visits.  This is the index behind
/// ObligationGraph::begin_epoch(): each open obligation registers the trace
/// interval it is sensitive to, and an epoch stabs the tree at the new
/// horizon instead of walking a sentinel's reverse-dependency list — the
/// same tree-structured version indexing that lets multiversion B-trees pay
/// only for overlapping versions.
///
/// Nodes live in a dense vector with a free list (no per-node allocation);
/// entries are keyed by the composite (lo, payload), so removal needs the
/// same (lo, payload) pair the entry was inserted under.  Single-threaded,
/// like the graph that owns it.
class IntervalIndex {
 public:
  using Payload = std::uint32_t;
  static constexpr std::uint64_t kInf = ~0ull;

  /// Inserts [lo, hi] for `ob`.  The caller keeps (lo, ob) pairs unique.
  void insert(std::uint64_t lo, std::uint64_t hi, Payload ob);

  /// Removes the entry inserted as (lo, ob); false if absent.
  bool remove(std::uint64_t lo, Payload ob);

  /// Appends every payload whose interval contains `point` to `out`, in
  /// (lo, payload) order; returns the tree nodes visited (the
  /// O(log n + reported) work bound, exported as a counter).
  std::size_t stab(std::uint64_t point, std::vector<Payload>& out) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

  /// Bytes held by the node pool and free list (capacity: what the
  /// allocator charges, not the live count).
  std::size_t bytes() const {
    return nodes_.capacity() * sizeof(Node) + free_.capacity() * sizeof(std::uint32_t);
  }
  /// Per-node footprint, for freed-bytes accounting by the owner.
  static std::size_t node_bytes() { return sizeof(Node); }

 private:
  struct Node {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t max_hi = 0;  ///< max hi over this subtree (the augmentation)
    std::uint32_t left = kNil;
    std::uint32_t right = kNil;
    Payload ob = 0;
    std::int32_t height = 1;
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  std::int32_t height(std::uint32_t n) const { return n == kNil ? 0 : nodes_[n].height; }
  std::uint64_t max_hi(std::uint32_t n) const { return n == kNil ? 0 : nodes_[n].max_hi; }
  void pull(std::uint32_t n);                ///< recompute height and max_hi
  std::uint32_t rotate_left(std::uint32_t n);
  std::uint32_t rotate_right(std::uint32_t n);
  std::uint32_t rebalance(std::uint32_t n);
  /// (lo, ob) composite order.
  static bool less(std::uint64_t alo, Payload aob, std::uint64_t blo, Payload bob) {
    return alo != blo ? alo < blo : aob < bob;
  }
  std::uint32_t insert_rec(std::uint32_t n, std::uint32_t fresh);
  std::uint32_t remove_rec(std::uint32_t n, std::uint64_t lo, Payload ob, bool& removed);
  std::uint32_t detach_min(std::uint32_t n, std::uint32_t& min_out);
  std::size_t stab_rec(std::uint32_t n, std::uint64_t point, std::vector<Payload>& out) const;

  std::uint32_t root_ = kNil;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// ObligationGraph: settled/open obligation states for incremental monitoring.
// ---------------------------------------------------------------------------

/// The obligation store behind the incremental monitor (core/incremental.h).
///
/// Where an EvalCache remembers *answers* — entries that are either valid or
/// evicted wholesale — an ObligationGraph remembers *questions in flight*
/// over one growing trace.  Each obligation is a suffix-sensitive query
/// (node id, <lo, inf>, op, restricted env) together with:
///
///   - its current result and whether that result is SETTLED (pinned forever:
///     no future append can change it) or OPEN (provisional, recomputed when
///     the trace grows),
///   - per-kind resume state, so re-settlement is a delta pass instead of a
///     re-evaluation: [] / <> keep a scan frontier plus the list of start
///     positions whose body verdict is still open; event searches keep the
///     rolling changeset probe at the frontier,
///   - explicit dependency edges to the child obligations (and to the
///     distinguished `kHorizon` sentinel when the recomputation read the
///     stuttering horizon), reverse-indexed for invalidation.
///
/// When a state is appended, begin_epoch(horizon) runs the
/// change-propagation pass.  Under the default Invalidation::Indexed mode,
/// every open obligation that reads the stuttering horizon is registered in
/// an IntervalIndex under the half-open sensitivity window
/// [key.lo, inf) — removed the moment it settles or is freed — and an epoch
/// is a stabbing query at the new horizon: O(log n + touched) to produce
/// exactly the overlapping open obligations, which seed the
/// reverse-dependency dirty closure.  Invalidation::ReverseWalk keeps the
/// pre-index pass (walk the reverse-dependency list of the `kHorizon`
/// sentinel) behind a switch for differential testing and benchmarking.
/// Either way settled obligations are firewalls — they are never marked and
/// the closure does not pass through them — which is exactly how verdicts
/// for closed intervals stay pinned while only the live suffix re-settles.
/// Recomputation itself is lazy: the evaluator re-settles a dirty
/// obligation the next time a root verdict needs it.
///
/// Records are reclaimed two ways.  Directly: when an open event find
/// relocates its interval, the evaluator unlinks the superseded body record
/// (unlink_superseded), and a record left with no parents and no root mark
/// is freed on the spot, cascading.  In bulk: a mark-and-sweep pass
/// (gc_sweep) marks everything reachable from the root verdict obligations
/// — traversing dependency edges through *open* records only, since a
/// settled record never re-reads its children — and frees the rest:
/// detached settled subtrees, leftover orphans, cycles.  Sweeps run on
/// demand, automatically when the record count outgrows the last sweep's
/// live set by Options::obligation_gc_fraction, and as the first rung of
/// the service budget ladder.  Freed slots are recycled through a free
/// list, but only from the *next* epoch on, so ObIds held by an in-flight
/// evaluation stay inert.
///
/// Single-threaded by design: one graph belongs to one monitor over one
/// trace (parallel fleets get one graph per monitor; see engine/stream.h).
class ObligationGraph {
 public:
  using ObId = std::uint32_t;
  static constexpr ObId kNoOb = 0xffffffffu;
  /// Sentinel obligation: "the trace's live suffix".  Under
  /// Invalidation::ReverseWalk, obligations whose recomputation read the
  /// stuttering horizon register a dependency on it and the invalidation
  /// walk starts here; under Invalidation::Indexed the sentinel slot is
  /// kept (so ObIds are stable across modes) but carries no edges.
  static constexpr ObId kHorizon = 0;

  /// How begin_epoch() finds the obligations an append can touch.
  enum class Invalidation : std::uint8_t {
    Indexed,      ///< IntervalIndex stab at the new horizon (default)
    ReverseWalk,  ///< legacy reverse-dependency walk from kHorizon
  };

  /// What question an obligation answers.
  enum class Op : std::uint8_t {
    Sat,       ///< s<lo,inf> |= node
    FindFwd,   ///< F(node, <lo,inf>, Forward)
    FindBwd,   ///< F(node, <lo,inf>, Backward)
    StarsFwd,  ///< star_requirements(node, <lo,inf>, Forward)
    StarsBwd,  ///< star_requirements(node, <lo,inf>, Backward)
  };

  /// Obligation identity.  The interval is always <lo, inf>: queries with a
  /// finite right end are settled by construction and live in the monitor's
  /// settled EvalCache instead (the trace never changes below its horizon).
  struct Key {
    std::uint32_t node = 0;  ///< hash-cons node id (Formula or Term)
    std::uint64_t lo = 0;
    Op op = Op::Sat;
    std::uint8_t n_env = 0;
    std::uint32_t metas[EvalCache::kMaxEnv] = {0, 0, 0, 0};
    std::int64_t values[EvalCache::kMaxEnv] = {0, 0, 0, 0};

    bool operator==(const Key& o) const {
      if (node != o.node || lo != o.lo || op != o.op || n_env != o.n_env) return false;
      for (std::uint8_t i = 0; i < n_env; ++i) {
        if (metas[i] != o.metas[i] || values[i] != o.values[i]) return false;
      }
      return true;
    }
  };

  struct Obligation {
    Key key;
    EvalCache::Entry result;  ///< boolean for Sat/Stars*, interval for Find*
    bool settled = false;     ///< pinned: no future append can change result
    bool dirty = true;        ///< must re-settle before result is reusable
    std::uint64_t epoch = 0;  ///< epoch the result was (re)computed at
    /// Trace horizon (last visible index) the result was computed at.  An
    /// open result is only reusable at the *same* horizon: a batched epoch
    /// (one begin_epoch() covering several appended states) evaluates the
    /// block's intermediate verdicts at increasing virtual horizons, and
    /// this field — not the dirty bit, which the single invalidation walk
    /// cleared block-wide — is what forces re-settlement between them.
    std::uint64_t horizon = 0;

    // Resume state for the delta pass (meaning depends on the node kind):
    std::uint64_t frontier = 0;     ///< next start position to scan ([], <>, event searches)
    std::uint64_t scanned_top = 0;  ///< highest position scanned (bwd search)
    bool have_prev = false;         ///< rolling probe below seeded?
    bool prev = false;              ///< changeset probe value at frontier-1
    /// Kind-specific auxiliary interval: for a sensitive backward event
    /// search, the best (maximum) rising edge inside the settled prefix;
    /// for an interval-formula obligation, the lo of the body obligation
    /// the last recomputation attached (so a relocating find can unlink the
    /// superseded record).  Valid only while have_aux.
    std::uint64_t aux_lo = 0;
    std::uint64_t aux_hi = 0;
    bool have_aux = false;

    // Lifecycle (maintained by the graph, read-only to the evaluator):
    bool freed = false;    ///< slot is on the free list awaiting reuse
    bool is_root = false;  ///< queried directly by a verdict: a GC root
    bool in_tree = false;  ///< registered in the interval index
    std::uint32_t gc_mark = 0;  ///< stamp of the last marking sweep that reached it
    /// Start positions in [lo, frontier) whose body verdict was still OPEN
    /// at the last recomputation — whatever its current sign.  For [] these
    /// are mostly true-but-open conjuncts, plus possibly the false-but-open
    /// position a short-circuited scan stopped at; for <> dually.  Every
    /// listed position must be rechecked each epoch; settled positions are
    /// dropped (and a settled-false / settled-true one pins the operator).
    std::vector<std::uint64_t> open_positions;
    /// Child obligations read by the last recomputation (kHorizon included
    /// when the scan touched the stuttering horizon).  Monotone across
    /// epochs: an over-approximation is safe for invalidation.
    std::vector<ObId> deps;
  };

  ObligationGraph();

  /// Current epoch (== number of begin_epoch() calls).
  std::uint64_t epoch() const { return epoch_; }

  /// How epochs find the obligations an append can touch.  Switching is
  /// only allowed while the graph is empty (mode shapes the registration
  /// structures from the first obligation on).
  void set_invalidation(Invalidation mode);
  Invalidation invalidation() const { return invalidation_; }
  bool indexed() const { return invalidation_ == Invalidation::Indexed; }

  /// Starts a new epoch at the given trace horizon (last visible index):
  /// bumps the clock, recycles slots freed since the previous epoch, and
  /// runs the invalidation pass — an IntervalIndex stab at `horizon`
  /// seeding the reverse-dependency dirty closure (Indexed), or the legacy
  /// walk from kHorizon (ReverseWalk).  Call once per appended block,
  /// before re-reading root verdicts.
  void begin_epoch(std::uint64_t horizon);

  /// The obligation for `key`, created open+dirty on first sight (freed
  /// slots recycled first).
  ObId obtain(const Key& key);
  Obligation& at(ObId id) { return obligations_[id]; }
  const Obligation& at(ObId id) const { return obligations_[id]; }

  /// Records "recomputing `parent` read `child`" in both directions
  /// (idempotent per edge).
  void add_dep(ObId parent, ObId child);

  /// Records "recomputing `attach` read the stuttering horizon": registers
  /// the sensitivity window [attach.key.lo, inf) in the interval index
  /// (Indexed; once — the window already contains every later horizon), or
  /// adds the kHorizon dependency edge (ReverseWalk).  No-op on kNoOb.
  void touch_horizon(ObId attach);

  /// Tells the graph `id` just settled: its interval-index registration is
  /// dropped — a settled record can never be touched by an epoch again.
  void on_settle(ObId id);

  /// Called by the evaluator as it starts recomputing `self`: drops the
  /// edges to children that have settled since (a settled child can never
  /// dirty anyone, and any child this recomputation actually re-reads
  /// re-registers through add_dep).  This is what bounds the dependency
  /// lists of long-lived open obligations and detaches exhausted settled
  /// subtrees for the sweep to collect.  Indexed mode only (ReverseWalk
  /// keeps the pre-index monotone-edge behavior exactly).
  void begin_recompute(ObId self);

  /// Marks `id` as queried directly by a verdict: a GC root, never swept.
  void mark_root(ObId id);

  /// The orphaned-obligation fix: when an open find relocates, the body
  /// record it previously attached (identified by `child_key`) is
  /// superseded — its edge from `parent` is unlinked immediately, and if
  /// that leaves the record unreachable (no parents, not a root) it is
  /// freed on the spot, cascading into children left the same way.  The
  /// sweep then only handles cycles and bulk detachment.
  void unlink_superseded(ObId parent, const Key& child_key);

  // -- mark-and-sweep GC ---------------------------------------------------

  /// Automatic-sweep pacing: a sweep runs (from maybe_gc()) once the
  /// resident record count exceeds the last sweep's live set by this
  /// fraction — i.e. once the potential dead-record fraction, measured
  /// against the last known live baseline, crosses the knob.  <= 0
  /// disables automatic sweeps (explicit gc_sweep() still works).
  void set_gc_fraction(double fraction) { gc_fraction_ = fraction; }
  double gc_fraction() const { return gc_fraction_; }

  /// Runs gc_sweep() if the pacing condition is met; call at an epoch
  /// boundary only (no evaluation in flight).  Returns whether it swept.
  bool maybe_gc();

  /// Mark-and-sweep: marks everything reachable from the root obligations
  /// (dependency edges are traversed through open records only — a settled
  /// record never re-reads its children, so its subtree stays only if some
  /// open parent still reads its crown) and frees every unmarked record:
  /// index and interval-tree entries dropped, edges purged from both
  /// directions, resume state returned, slot queued for reuse at the next
  /// epoch boundary.  Verdicts are unaffected: a freed record that is ever
  /// queried again is simply recomputed from scratch.  Returns the records
  /// freed.  Call at an epoch boundary only.
  std::size_t gc_sweep();

  /// Drops every obligation and edge (counters keep accumulating); for
  /// owners whose trace was rewritten rather than appended to.
  void reset();

  /// Forced settled-parent sweep: frees the resume state (open-position
  /// lists, dependency lists) of every settled obligation and drops every
  /// edge with a settled endpoint from the reverse index and the edge set.
  /// Safe because settlement is permanent — a settled obligation is never
  /// recomputed and the invalidation pass never passes through it, so none
  /// of the freed structure can be read again.  This is the second rung of
  /// the budget-degradation ladder (engine/service.h), after a gc_sweep();
  /// begin_epoch() performs the same pruning lazily, edge by edge, as its
  /// closure happens to touch them, while this sweeps everything at once.
  /// Returns the obligations swept; counted in compactions().
  std::size_t compact_settled();

  /// Estimated bytes resident in the store (gauge): the obligation and
  /// reverse-index vectors at capacity, per-obligation resume state
  /// (open-position and dependency lists), the interval-index node pool,
  /// the GC bookkeeping (root/free lists, walk scratch), and the index/edge
  /// hash tables at their per-entry footprint.  O(n); meant for budget
  /// checks at epoch boundaries, not per-query accounting.
  std::size_t bytes() const;

  // Accounting (lifetime counters unless noted).
  /// Resident records: slots minus the sentinel minus freed-awaiting-reuse.
  std::size_t size() const { return obligations_.size() - 1 - freed_count_; }
  std::size_t edges() const { return edge_set_.size(); }
  std::size_t settled_count() const;          ///< resident settled obligations
  std::size_t open_count() const;             ///< resident open obligations
  std::size_t last_dirtied() const { return last_dirtied_; }  ///< by last begin_epoch()
  std::size_t total_dirtied() const { return total_dirtied_; }  ///< lifetime sum
  std::size_t recomputes() const { return recomputes_; }
  std::size_t settled_hits() const { return settled_hits_; }
  std::size_t fresh_hits() const { return fresh_hits_; }
  /// Open-world queries whose observable bindings overflowed the inline key
  /// capacity and were evaluated without an obligation record.
  std::size_t env_overflows() const { return env_overflows_; }
  /// Forced settled-parent sweeps (compact_settled() calls), lifetime.
  std::size_t compactions() const { return compactions_; }

  // Interval-index accounting.
  std::size_t index_nodes() const { return tree_.size(); }  ///< gauge
  std::size_t index_stabs() const { return stabs_; }        ///< epochs stabbed, lifetime
  std::size_t index_visited() const { return stab_visited_; }  ///< tree nodes visited
  std::size_t touched_total() const { return touched_total_; }  ///< seeds, lifetime
  std::size_t last_touched() const { return last_touched_; }  ///< by last begin_epoch()

  // GC accounting (lifetime counters).
  std::size_t gc_sweeps() const { return gc_sweeps_; }
  std::size_t gc_marked() const { return gc_marked_; }
  std::size_t gc_freed() const { return gc_freed_; }  ///< sweeps + orphan cascades
  std::size_t gc_freed_bytes() const { return gc_freed_bytes_; }
  std::size_t orphan_unlinks() const { return orphan_unlinks_; }

  /// Called by the evaluator: an obligation was re-settled this epoch / was
  /// answered from its pinned result / was answered because it was already
  /// fresh (recomputed earlier in the same epoch) / a query's bindings
  /// overflowed the inline key span.
  void note_recompute() { ++recomputes_; }
  void note_settled_hit() { ++settled_hits_; }
  void note_fresh_hit() { ++fresh_hits_; }
  void note_env_overflow() { ++env_overflows_; }

  /// Counter-export hook for the introspection surface
  /// (engine/introspect.h): calls fn(name, value) for every counter.
  /// entries/settled/open/edges are gauges; the rest lifetime counters.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    fn("entries", static_cast<std::uint64_t>(size()));
    fn("settled", static_cast<std::uint64_t>(settled_count()));
    fn("open", static_cast<std::uint64_t>(open_count()));
    fn("edges", static_cast<std::uint64_t>(edges()));
    fn("dirtied", static_cast<std::uint64_t>(total_dirtied_));
    fn("recomputed", static_cast<std::uint64_t>(recomputes_));
    fn("settled_hits", static_cast<std::uint64_t>(settled_hits_));
    fn("fresh_hits", static_cast<std::uint64_t>(fresh_hits_));
    fn("env_overflows", static_cast<std::uint64_t>(env_overflows_));
    fn("compactions", static_cast<std::uint64_t>(compactions_));
    fn("index_nodes", static_cast<std::uint64_t>(index_nodes()));
    fn("index_stabs", static_cast<std::uint64_t>(stabs_));
    fn("index_visited", static_cast<std::uint64_t>(stab_visited_));
    fn("index_touched", static_cast<std::uint64_t>(touched_total_));
    fn("gc_sweeps", static_cast<std::uint64_t>(gc_sweeps_));
    fn("gc_marked", static_cast<std::uint64_t>(gc_marked_));
    fn("gc_freed", static_cast<std::uint64_t>(gc_freed_));
    fn("gc_freed_bytes", static_cast<std::uint64_t>(gc_freed_bytes_));
    fn("gc_orphans", static_cast<std::uint64_t>(orphan_unlinks_));
    fn("bytes", static_cast<std::uint64_t>(bytes()));
  }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  static std::uint64_t pack_edge(ObId parent, ObId child) {
    return (static_cast<std::uint64_t>(parent) << 32) | child;
  }
  void erase_from(std::vector<ObId>& v, ObId id);  ///< unordered erase-if-found
  /// Frees `id`: unlinks every edge in both directions, drops the index and
  /// interval-tree entries, returns the resume state, and queues the slot
  /// for reuse at the next epoch.  Cascades into children left with no
  /// parents and no root mark.
  void free_record(ObId id);
  void maybe_cascade_free(ObId id);
  void seed_and_close(std::vector<ObId>& stack);  ///< dirty closure over reverse_

  std::vector<Obligation> obligations_;  ///< [0] is the horizon sentinel
  std::unordered_map<Key, ObId, KeyHash> index_;
  std::vector<std::vector<ObId>> reverse_;  ///< child -> parents
  std::unordered_set<std::uint64_t> edge_set_;  ///< packed parent<<32|child
  Invalidation invalidation_ = Invalidation::Indexed;
  IntervalIndex tree_;             ///< open horizon-readers by sensitivity window
  std::vector<ObId> roots_;        ///< GC roots (is_root set)
  std::vector<ObId> free_list_;    ///< freed slots, reusable now
  std::vector<ObId> free_pending_; ///< freed this epoch, reusable next epoch
  std::vector<ObId> stab_out_;     ///< scratch: last stab's seed set
  std::vector<ObId> walk_stack_;   ///< scratch: dirty-closure stack
  std::vector<ObId> prune_scratch_;  ///< scratch: begin_recompute's pruned set
  std::size_t freed_count_ = 0;    ///< free_list_ + free_pending_
  std::uint32_t gc_stamp_ = 0;
  std::size_t last_gc_live_ = 0;   ///< live records after the last sweep
  double gc_fraction_ = 0.25;
  std::uint64_t epoch_ = 0;
  std::size_t last_dirtied_ = 0;
  std::size_t total_dirtied_ = 0;
  std::size_t recomputes_ = 0;
  std::size_t settled_hits_ = 0;
  std::size_t fresh_hits_ = 0;
  std::size_t env_overflows_ = 0;
  std::size_t compactions_ = 0;
  std::size_t stabs_ = 0;
  std::size_t stab_visited_ = 0;
  std::size_t touched_total_ = 0;
  std::size_t last_touched_ = 0;
  std::size_t gc_sweeps_ = 0;
  std::size_t gc_marked_ = 0;
  std::size_t gc_freed_ = 0;
  std::size_t gc_freed_bytes_ = 0;
  std::size_t orphan_unlinks_ = 0;
};

}  // namespace il
