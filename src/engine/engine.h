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
/// batch families (BatchChecker, BatchDecider), the streaming fleet
/// (BatchMonitor), and the resident MonitorService.  Each front-end reads
/// the knobs that concern it and documents any family-specific meaning.
struct Options {
  /// Worker threads; 0 means std::thread::hardware_concurrency() for the
  /// offline families and for MonitorService.  The effective pool never
  /// exceeds the number of jobs, and batches of at most one job run inline
  /// on the calling thread.  BatchMonitor is the exception: 0 means
  /// *inline* there (see stream.h).
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
  /// begin_epoch() invalidation walk per monitor for the whole block;
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
  /// mark-and-sweep GC (Monitor::gc_obligations), then a settled-parent
  /// compaction sweep, then demotion to Mode::Scratch (correct but slower,
  /// and with the stores freed), then quarantine — each transition counted
  /// in ServiceStats and rendered by dump().  The stream stores the monitors
  /// read are not charged (ServiceStats::totals.trace_bytes reports them).
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

/// Streaming-fleet counters (BatchMonitor, and per shard inside
/// MonitorService): the monitors' settled caches summed into memo_*, their
/// obligation graphs into obligation_*.  Streams are not shard-owned, so a
/// shard's trace_bytes is 0 and the service reports its stores in
/// ServiceStats::totals.
struct StreamStats {
  std::size_t monitors = 0;  ///< resident monitors
  std::size_t threads = 0;   ///< pool workers serving the fleet (0 = inline)
  std::size_t states = 0;    ///< states fed
  std::size_t verdicts = 0;  ///< verdict rows emitted (states × monitors)
  std::size_t axioms_checked = 0;
  std::size_t axioms_failed = 0;
  std::size_t memo_hits = 0;  ///< settled-cache counters, summed
  std::size_t memo_misses = 0;
  std::size_t memo_inserts = 0;
  std::size_t memo_entries = 0;
  std::size_t memo_bytes = 0;          ///< resident cache tables, summed (gauge)
  std::size_t obligation_entries = 0;  ///< resident obligations, all graphs
  std::size_t obligation_settled = 0;  ///< of which pinned forever
  std::size_t obligation_open = 0;     ///< of which still provisional
  std::size_t obligation_edges = 0;    ///< dependency edges resident
  std::size_t obligation_bytes = 0;    ///< resident graph bytes, summed (gauge)
  std::size_t obligation_dirtied = 0;  ///< invalidation-pass marks, lifetime
  std::size_t obligation_recomputed = 0;  ///< re-settlements, lifetime
  std::size_t obligation_index_nodes = 0;    ///< interval-tree nodes resident (gauge)
  std::size_t obligation_index_stabs = 0;    ///< stabbing queries run, lifetime
  std::size_t obligation_index_visited = 0;  ///< tree nodes visited by stabs, lifetime
  std::size_t obligation_index_touched = 0;  ///< obligations seeded by stabs, lifetime
  std::size_t gc_sweeps = 0;       ///< mark-and-sweep passes, lifetime
  std::size_t gc_marked = 0;       ///< records marked reachable, lifetime
  std::size_t gc_freed = 0;        ///< records freed (sweeps + orphan cascades)
  std::size_t gc_freed_bytes = 0;  ///< estimated bytes returned, lifetime
  std::size_t gc_orphans = 0;      ///< superseded records unlinked directly
  /// Bytes of the stream traces the monitors read (Trace::bytes), counted
  /// once per stream however many monitors read it (gauge).
  std::size_t trace_bytes = 0;
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
