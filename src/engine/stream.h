// Streaming monitor fleets: the engine's third workload class.
//
// BatchChecker fans many finished (spec, trace) pairs across a pool;
// BatchDecider fans decision questions.  A *streaming* deployment is the
// transpose: one live state stream, many subscribed specifications — the
// per-session compliance monitors, SLO watchdogs, and protocol validators a
// production system keeps current while the trace grows.  BatchMonitor
// owns the stream's one Trace and one incremental Monitor (core/monitor.h)
// per subscription; on every fed state it stores the state once, then runs
// each monitor's append-delta pass — Monitor::advance over the shared
// trace — across the worker pool (engine/pool.h):
//
//   - workers claim monitor indices from one atomic counter; the fed
//     state is stored before the fan-out, so the trace is read-only while
//     workers run, and everything a monitor writes (its window, settled
//     cache, and obligation graph) is its own: there is no synchronization
//     on the data path,
//   - the pool is *persistent and parked* (detail::ParkedPool, engine/pool.h):
//     workers are spawned once at construction and sleep on a condition
//     variable between fed states, so a feed() is a wake + drain, not a
//     thread create + join per state,
//   - verdicts land in a pre-sized slot per job, so the verdict stream is
//     input-ordered and bit-identical for any thread count — the same
//     determinism contract as the other two job families, proven by
//     tests/test_monitor_incremental.cpp across 1/2/4-thread pools,
//   - exceptions rethrow on the feeding thread for the lowest-indexed
//     failing monitor.
//
// Aggregate accounting lands in StreamStats (engine.h): memo_* sums the
// monitors' settled caches, obligation_* their obligation graphs,
// trace_bytes is the one shared trace, and states/verdicts count what
// flowed through.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/check.h"
#include "core/monitor.h"
#include "engine/engine.h"
#include "trace/trace.h"

namespace il {
namespace engine {

namespace detail {
class ParkedPool;
}

/// One stream subscription.  The spec is borrowed: the caller must keep it
/// alive for the BatchMonitor's lifetime.
struct MonitorJob {
  const Spec* spec = nullptr;
  Env env;
  Monitor::Mode mode = Monitor::Mode::Incremental;
};

class BatchMonitor {
 public:
  /// Builds one monitor per job.  Only Options::num_threads is consulted
  /// (each monitor owns its memoization stores; the memoize /
  /// cache-capacity knobs govern the offline job families).  Unlike those
  /// families, num_threads = 0 here means *inline*, not hardware
  /// concurrency: an incremental append is small, so fanning out pays only
  /// past a fleet size worth a pool — opt in with an explicit thread
  /// count.  With num_threads > 1 the pool is created once, here, and
  /// parked between feeds (engine/pool.h), so per-state fan-out costs a
  /// condvar wake rather than a thread spawn.
  explicit BatchMonitor(const std::vector<MonitorJob>& jobs, Options options = {});
  ~BatchMonitor();
  BatchMonitor(BatchMonitor&&) noexcept;
  BatchMonitor& operator=(BatchMonitor&&) noexcept;

  /// Feeds one state to every monitor and refreshes every verdict.
  /// verdicts()[i] belongs to jobs[i] — input-ordered and independent of
  /// thread count.  The reference is valid until the next feed().  If an
  /// append throws (lowest-indexed exception rethrown here), the fleet is
  /// torn — some monitors consumed the state, some did not — and every
  /// later feed() refuses rather than emitting rows that silently compare
  /// different prefixes.
  const std::vector<CheckResult>& feed(const State& s);

  /// Feeds every explicit state of `t` in order; returns the final verdicts.
  const std::vector<CheckResult>& feed_all(const Trace& t);

  /// Feeds `count` consecutive states as ONE block: each monitor consumes
  /// the whole block through Monitor::append_block — one obligation-graph
  /// epoch per monitor instead of one per state — and the returned rows are
  /// bit-identical to `count` feed() calls: row[k][i] is monitors_[i]'s
  /// verdict after states[k].  verdicts() refreshes to the last row.  The
  /// reference is valid until the next feed()/feed_block().  Poisoning rule
  /// as for feed(): a throw mid-block tears the fleet.
  const std::vector<std::vector<CheckResult>>& feed_block(const State* states,
                                                          std::size_t count);

  /// The verdicts from the last feed() (empty before the first).
  const std::vector<CheckResult>& verdicts() const { return verdicts_; }

  std::size_t size() const { return monitors_.size(); }
  std::size_t states_fed() const { return states_fed_; }
  /// True once a feed threw mid-state: the fleet's prefixes diverged and
  /// every later feed will refuse.  Lets a caller distinguish "torn, stop
  /// feeding" from a per-feed error it can skip (the resident
  /// MonitorService offers per-monitor quarantine instead; see service.h).
  bool poisoned() const { return poisoned_; }
  const Monitor& monitor(std::size_t i) const { return monitors_[i]; }
  const Options& options() const { return options_; }

  /// Aggregate counters over the fleet's whole lifetime (see header).
  const StreamStats& stream_stats() const;

 private:
  Options options_;
  std::unique_ptr<Trace> trace_;  ///< heap: monitors' windows survive moves
  std::vector<Monitor> monitors_;
  std::vector<CheckResult> verdicts_;
  std::vector<std::vector<CheckResult>> block_;  ///< rows of the last feed_block()
  std::unique_ptr<detail::ParkedPool> pool_;  ///< persistent; null = inline
  std::size_t states_fed_ = 0;
  bool poisoned_ = false;  ///< a feed threw mid-state: fleet prefixes differ
  std::size_t axioms_checked_ = 0;
  std::size_t axioms_failed_ = 0;
  mutable StreamStats stream_stats_;  ///< materialized on stream_stats()
};

/// Builds the common "every spec watches the same stream" job list.
std::vector<MonitorJob> jobs_for_specs(const std::vector<Spec>& specs, const Env& env = {});

/// Adds `m`'s share of every Lifetime row of IL_STREAM_COUNTERS (engine.h)
/// to `out`.  The one fold a retiring or quarantined monitor leaves in its
/// owner's accumulator, so lifetime totals never go backwards when a
/// monitor leaves.
void add_lifetime_counters(StreamStats& out, const Monitor& m);

/// Adds a resident monitor's share of every row, gauges included.
void add_monitor_counters(StreamStats& out, const Monitor& m);

}  // namespace engine
}  // namespace il
