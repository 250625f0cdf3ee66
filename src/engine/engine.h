// Parallel batch-checking engine.
//
// The paper's case studies check one specification against one recorded
// trace; a production monitor checks many (spec, trace) pairs — scenario
// sweeps, per-session traces, seed fans.  The engine takes a batch of N
// CheckJobs and fans them out across a pool of worker threads.  The design
// is share-nothing in the style of batch-oriented multiversion systems:
//
//   - workers claim job indices from a single atomic counter (no queues,
//     no locks on the data path),
//   - each worker owns a private EvalCache, so subformula memoization never
//     crosses a cache line between threads, and the cache survives across
//     all jobs the worker claims (keys carry trace identity),
//   - results land in a pre-sized vector slot per job, so the output order
//     is the input order no matter how the scheduler interleaves workers.
//
// Determinism: results[i] is bit-identical to running the sequential
// checker on jobs[i] — the same axioms fail, reported in the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/check.h"
#include "core/memo.h"
#include "trace/trace.h"

namespace il {
namespace engine {

/// One unit of checking work.  The spec and trace are borrowed: the caller
/// must keep them alive until run() returns.
struct CheckJob {
  const Spec* spec = nullptr;
  const Trace* trace = nullptr;
  Env env;
};

/// The engine's one options struct, shared by every front-end: the offline
/// batch families (BatchChecker, BatchDecider) and the resident
/// MonitorService.  Each front-end reads the knobs that concern it.
struct Options {
  /// Worker threads; 0 means std::thread::hardware_concurrency().  The
  /// effective pool never exceeds the number of jobs, and batches of at
  /// most one job run inline on the calling thread.
  std::size_t num_threads = 0;

  /// Per-worker subformula memoization (see core/memo.h).  Disabling it is
  /// only useful for measuring the cache's own benefit.
  bool memoize = true;

  /// Soft cap on entries per worker cache; 0 = unlimited.
  std::size_t memo_capacity = 1u << 22;

  /// Cross-batch decision-result cache on BatchDecider (engine/decision.h)
  /// and MonitorService::decide(): (job kind, formula/expression id) → full
  /// DecisionResult, consulted on the calling thread before any work fans
  /// out, so repeated formulas — within one batch or across a regression
  /// corpus of batches — are decided once.  Irrelevant to BatchChecker.
  bool decision_cache = true;

  /// Soft cap on decision-cache entries; 0 = unlimited.
  std::size_t decision_cache_capacity = 1u << 20;

  /// BatchDecider and MonitorService::decide() only: worker width lent to a
  /// *single* decision's internal frontiers — tableau expansion waves, the
  /// per-eventuality deletion sweeps, and the LLL subset-construction waves
  /// — via nested runs on the family's resident pool.  0 or 1 runs each
  /// decision inline.  Verdicts, graphs, and node ids are bit-identical at
  /// any width: the parallel phases compute pure per-item values and all
  /// interning happens on a sequential merge in fixed input order.
  std::size_t intra_decision_threads = 1;

  /// MonitorService only: bounded ingest-queue depth.  append() blocks (and
  /// try_append() reports QueueFull) while this many commands are pending —
  /// backpressure instead of unbounded buffering.  Must be >= 1.
  std::size_t queue_capacity = 1024;

  /// MonitorService only: number of monitor shards; 0 means one per worker.
  std::size_t num_shards = 0;

  /// MonitorService only: how many queued Append commands the coordinator
  /// may fold into one multi-state epoch (one pool wake and one
  /// begin_epoch() invalidation pass per monitor for the whole block;
  /// verdict rows are bit-identical to per-state epochs at any value).
  /// Larger batches amortize per-state overhead — higher ingest throughput
  /// — at the cost of verdict latency for the states early in a block; 1
  /// restores strict per-state epochs.  Register/Retire commands always
  /// act as batch barriers.  Must be >= 1.
  std::size_t max_epoch_batch = 32;

  /// MonitorService only: per-monitor byte budget for the evaluation stores
  /// (Monitor::footprint_bytes(): obligation graph + memo cache).  0 (the
  /// default) disables accounting entirely.  A monitor found over budget at
  /// an epoch boundary degrades one rung per epoch: first a forced
  /// mark-and-sweep GC (Monitor::gc_obligations), then demotion to
  /// Mode::Scratch (correct but slower, and with the stores freed), then
  /// quarantine — each transition counted in ServiceStats and rendered by
  /// dump().  The stream stores the monitors read are not charged
  /// (ServiceStats::totals.trace_bytes reports them).
  std::size_t obligation_byte_budget = 0;

  /// Automatic obligation-graph GC pacing, applied to every monitor the
  /// engine creates (Monitor::set_gc_fraction): a mark-and-sweep runs at an
  /// epoch boundary once the resident record count outgrows the last
  /// sweep's live set by this fraction.  <= 0 disables automatic sweeps.
  double obligation_gc_fraction = 0.25;

  /// MonitorService only: how many times a quarantined monitor may be
  /// reinstate()d.  A monitor quarantined more than this many times has its
  /// reinstate requests refused (ServiceStats::reinstate_refused).
  /// Reinstatement is also backoff-gated: after its k-th fault a monitor
  /// must sit out 2^(k-1) states of its stream (capped at 2^16) before a
  /// reinstate is accepted.
  std::size_t max_reinstate_attempts = 3;
};

// ---------------------------------------------------------------------------
// Per-family statistics.  One struct per workload class, with one naming
// convention for every cache/store family: *_hits / *_misses / *_inserts /
// *_entries (gauges named *_entries count what is resident now; the rest
// are lifetime counters).
// ---------------------------------------------------------------------------

/// BatchChecker counters from the last run().  The memo_* fields sum the
/// per-worker EvalCache counters (each worker owns a private cache over the
/// shared read-only symbol/node tables), so a batch result reports exactly
/// how much memoization paid across the whole fleet.
struct CheckStats {
  std::size_t jobs = 0;
  std::size_t threads = 0;       ///< workers actually spawned (0 = inline)
  std::size_t memo_hits = 0;     ///< summed over worker caches
  std::size_t memo_misses = 0;
  std::size_t memo_inserts = 0;  ///< entries stored across worker caches
  std::size_t memo_entries = 0;  ///< entries resident at end of run
  std::size_t axioms_checked = 0;
  std::size_t axioms_failed = 0;
};

/// How a counter behaves over a fleet's life.  A Gauge reads what is
/// resident now and drops when a monitor leaves.  A Lifetime counter never
/// goes backwards: a departing monitor's share is folded into its owner's
/// accumulator (add_lifetime_counters, engine/service.cpp).
enum class CounterKind : std::uint8_t { Gauge, Lifetime };

/// The streaming-fleet counters, one row each:
///   X(field, dump group, dump key, kind, value read from Monitor m).
/// The StreamStats field, the fleet sum (operator+=), the lifetime and
/// resident folds over a monitor (engine/service.cpp), and the `group.key`
/// dump line (engine/introspect.h) are all generated from the row.  Rows
/// reading 0 are kept by the fleet's owner (a service shard) rather than
/// by any one monitor; `monitors` reads 1 per resident monitor.  memo_* are
/// the settled caches, obligation_* the obligation graphs (core/memo.h).
#define IL_STREAM_COUNTERS(X)                                                              \
  X(monitors, engine, monitors, Gauge, 1)                                                  \
  X(threads, engine, threads, Gauge, 0) /* pool workers serving the fleet */               \
  X(states, engine, states, Lifetime, 0)                                                   \
  X(verdicts, engine, verdicts, Lifetime, 0) /* states x monitors */                       \
  X(axioms_checked, engine, axioms_checked, Lifetime, 0)                                   \
  X(axioms_failed, engine, axioms_failed, Lifetime, 0)                                     \
  X(memo_hits, memo, hits, Lifetime, m.cache().hits())                                     \
  X(memo_misses, memo, misses, Lifetime, m.cache().misses())                               \
  X(memo_inserts, memo, inserts, Lifetime, m.cache().inserts())                            \
  X(memo_evicted, memo, evicted, Lifetime, m.cache().evicted())                            \
  X(memo_entries, memo, entries, Gauge, m.cache().size())                                  \
  X(memo_bytes, memo, bytes, Gauge, m.cache().bytes())                                     \
  X(obligation_entries, obligation, entries, Gauge, m.obligations().size())                \
  X(obligation_settled, obligation, settled, Gauge, m.obligations().settled_count())       \
  X(obligation_open, obligation, open, Gauge, m.obligations().open_count())                \
  X(obligation_edges, obligation, edges, Gauge, m.obligations().edges())                   \
  X(obligation_bytes, obligation, bytes, Gauge, m.obligations().bytes())                   \
  X(obligation_dirtied, obligation, dirtied, Lifetime, m.obligations().total_dirtied())    \
  X(obligation_recomputed, obligation, recomputed, Lifetime, m.obligations().recomputes()) \
  X(obligation_index_nodes, obligation_index, nodes, Gauge, m.obligations().index_nodes()) \
  X(obligation_index_stabs, obligation_index, stabs, Lifetime,                             \
    m.obligations().index_stabs())                                                         \
  X(obligation_index_visited, obligation_index, visited, Lifetime,                         \
    m.obligations().index_visited())                                                       \
  X(obligation_index_touched, obligation_index, touched, Lifetime,                         \
    m.obligations().touched_total())                                                       \
  X(gc_sweeps, gc, sweeps, Lifetime, m.obligations().gc_sweeps())                          \
  X(gc_marked, gc, marked, Lifetime, m.obligations().gc_marked())                          \
  X(gc_freed, gc, freed, Lifetime, m.obligations().gc_freed()) /* + orphan cascades */     \
  X(gc_freed_bytes, gc, freed_bytes, Lifetime, m.obligations().gc_freed_bytes())           \
  X(gc_orphans, gc, orphans, Lifetime, m.obligations().orphan_unlinks())

/// Declares one counter-table row as a zero-initialized field.
#define IL_COUNTER_FIELD(field, ...) std::size_t field = 0;

/// Streaming-fleet counters (per shard inside MonitorService, and summed
/// in ServiceStats::totals), generated from IL_STREAM_COUNTERS.  Streams
/// are not shard-owned, so a shard's trace_bytes is 0 and the service
/// reports its stores in ServiceStats::totals.
struct StreamStats {
  IL_STREAM_COUNTERS(IL_COUNTER_FIELD)
  /// Bytes of the stream traces the monitors read (Trace::bytes), counted
  /// once per stream however many monitors read it (gauge).  Not a table
  /// row: no monitor owns it, and the service dumps it per stream.
  std::size_t trace_bytes = 0;

  /// Adds every field of `o`: the fleet sum over shards.
  StreamStats& operator+=(const StreamStats& o) {
#define IL_STREAM_ADD(field, ...) field += o.field;
    IL_STREAM_COUNTERS(IL_STREAM_ADD)
#undef IL_STREAM_ADD
    trace_bytes += o.trace_bytes;
    return *this;
  }

  /// Calls fn(group, key, kind, value) for every table row, in row order.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
#define IL_STREAM_VISIT(field, group, key, kind, read) \
  fn(#group, #key, CounterKind::kind, field);
    IL_STREAM_COUNTERS(IL_STREAM_VISIT)
#undef IL_STREAM_VISIT
  }
};

class BatchChecker {
 public:
  explicit BatchChecker(Options options = {});

  /// Checks every job; results[i] corresponds to jobs[i].  Deterministic:
  /// independent of thread count and scheduling.  Exceptions thrown by a
  /// job (e.g. evaluation over an empty trace) are captured and rethrown
  /// on the calling thread for the lowest-indexed failing job.
  std::vector<CheckResult> run(const std::vector<CheckJob>& jobs);

  const Options& options() const { return options_; }
  /// Counters from the last run().
  const CheckStats& check_stats() const { return check_stats_; }

 private:
  Options options_;
  CheckStats check_stats_;
};

/// Checks one job with an optional caller-provided cache.  This is the unit
/// of work a BatchChecker worker executes, exposed so the sequential path
/// (core/check.cpp) is a thin wrapper over the very same code.
CheckResult run_job(const CheckJob& job, EvalCache* cache);

/// One-shot convenience over a temporary BatchChecker.
std::vector<CheckResult> check_batch(const std::vector<CheckJob>& jobs,
                                     Options options = {});

/// Builds the common "one spec, many traces" batch shape.
std::vector<CheckJob> jobs_for_traces(const Spec& spec, const std::vector<Trace>& traces,
                                      const Env& env = {});

}  // namespace engine
}  // namespace il
