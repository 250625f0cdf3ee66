// MonitorService: monitoring as a *service* rather than a library call.
//
// A standalone Monitor (core/monitor.h) watches one stream from the
// caller's thread.  A production deployment needs fleets and the transpose
// of control: monitors come and go at runtime while ingest streams flow,
// the caller must never be blocked by evaluation (only by explicit
// backpressure), and an operator must be able to watch the engine's
// internals live.  The MonitorService is that resident process component
// and the engine's one fleet implementation:
//
//   Ingest — append()/try_append() enqueue states onto a *bounded* command
//   queue (Options::queue_capacity).  append() blocks while the queue is
//   full; try_append() returns AppendStatus::QueueFull instead.  There is no
//   unbounded buffering anywhere on the ingest path.  Ingestion is
//   *multi-stream*: open_stream() mints a named StreamId (stream 0 always
//   exists), every append carries (stream, seq) with per-stream FIFO
//   sequencing, and a monitor subscribes to exactly one stream at
//   registration.  Distinct streams share the queue and coalesce into the
//   same batched epochs; within a stream, order is the caller's call order.
//
//   Registry — register_spec() may be called at any time and returns a
//   stable MonitorId; retire() frees the monitor's obligation graph and
//   settled-cache entries.  Both are sequenced through the same command
//   queue as appends, so a monitor observes exactly the states appended
//   after its registration and before its retirement — the interleaving is
//   the caller's call order, deterministically.  A registered monitor is a
//   stream monitor (core/monitor.h): it holds no states of its own, only a
//   window over its stream's store that starts at the store's end at the
//   Register barrier (reinstate() likewise takes a fresh window).
//   Retirement tombstones the monitor's shard slot; a shard whose
//   tombstones exceed 1/4 of its slots is compacted
//   (shardN.retired_compactions counts the sweeps), so a retire-heavy fleet
//   does not leak slots.
//
//   Storage — the coordinator owns one Trace per stream and moves each
//   Append's state into it once, before the epoch fans out; shard tasks
//   only read it, without a lock.  The store holds what resident monitors
//   can still read: each stream keeps a list of its Active monitors (its
//   readers; maintained on register, retire, quarantine and reinstate),
//   and after every batch and every departure the coordinator drops the
//   prefix below the lowest read floor among them (Monitor::read_floor:
//   the lowest position any later verdict can read, not where the window
//   starts) once that prefix is at least half the store — the
//   oldest-active-reader reclamation rule of multiversion stores.  So a
//   resident stream's memory is bounded by what its monitors can read, not
//   by its length.  Under Options::obligation_byte_budget every reader pins
//   its base instead, because a Scratch demotion re-reads the window from
//   there.  A stream with no Active monitor stores nothing.
//   service.trace_bytes (dump()) and ServiceStats::totals.trace_bytes count
//   the stores once per stream; service.streamN.trace_dropped counts the
//   states each store has released over its lifetime.
//
//   Evaluation — a coordinator thread drains the queue in *batched epochs*:
//   it greedily folds consecutive queued Appends — any mix of streams, up
//   to Options::max_epoch_batch — into one multi-state epoch; Register and
//   Retire act as batch barriers (applied singly, so membership is fixed
//   within a block).  The epoch stores the block's states, then fans one
//   work item per *dirty* shard (a shard with no monitor on any of the
//   block's streams is never touched) across a persistent *parked* worker
//   pool (detail::ParkedPool, engine/pool.h), and each shard advances every
//   subscribed monitor's window over its stream's whole sub-block in one
//   Monitor::advance call — one begin_epoch() invalidation pass and one
//   settled-cache pass cover the block, which is what converts per-state
//   coordinator overhead (wake + stab + drain x N) into per-batch overhead.
//
//   Verdicts — every appended state produces one VerdictRow (stream, seq,
//   and the per-monitor verdicts of that stream, ordered by MonitorId) into
//   an output buffer the caller drains.  Rows are ingest-ordered by
//   construction and bit-identical for any thread/shard count AND any
//   max_epoch_batch (monitors share only the read-only stores; blocked
//   evaluation uses virtual horizons, pinned against per-state epochs by
//   the differential suite in tests/test_service_batch.cpp).  Row slots
//   are pre-assigned by rank before the fan-out, so shard tasks write
//   disjoint slots and no post-epoch sort is needed.
//
//   Decisions — decide() serves decision batches through the same resident
//   pool with per-shard cross-batch DecisionCaches (jobs shard by content
//   key), so a resident deployment keeps one warm process for both
//   workload classes.
//
//   Introspection — dump() / dump_shard() render every counter family as
//   stable `key value` text (engine/introspect.h): service-level gauges
//   (including queue_peak, epoch_batches, states_per_batch_max), then per
//   shard the engine, eval-cache (memo.*), obligation-graph, slot and
//   budget-ladder, and decision-cache (decision.*) counters.  A shard dump
//   is snapshot-consistent: all of its lines are read under the shard's
//   mutex, between epochs touching that shard.
//
//   Fault isolation — a monitor whose evaluation throws is *quarantined*,
//   not fatal: the throw is caught inside the shard task at the epoch
//   boundary, the monitor's obligation graph and settled-cache entries are
//   freed (the retire path's accounting), and the captured exception_ptr is
//   parked on the slot.  Every row slot the monitor would have filled —
//   including the whole failing block — renders as Verdict::Faulted carrying
//   that exception; every *other* monitor's verdict stream is bit-identical
//   to a fleet that never contained the faulty spec (pinned by
//   tests/test_service_fault.cpp across batch/shard/thread sweeps).
//   reinstate() re-registers a quarantined monitor from its stored spec,
//   gated by a capped exponential backoff (after its k-th fault the monitor
//   must sit out 2^(k-1) states of its stream, capped at 2^16) and a retry
//   budget (Options::max_reinstate_attempts).  Resource faults feed the same
//   machinery: with Options::obligation_byte_budget set, a monitor found
//   over budget at an epoch boundary degrades one rung per epoch —
//   forced obligation GC, then demotion to Mode::Scratch, then
//   quarantine — each rung counted in ServiceStats and rendered by dump().
//
// Error contract: *poisoning* remains only for coordinator-level invariant
// violations (a throw escaping the command loop itself, e.g. an injected
// pool-dispatch fault) — the coordinator stops and every later
// append()/flush()/pause() throws ServiceFault (try_append() reports
// AppendStatus::Poisoned).  The offending exception is captured once; the
// rethrown ServiceFault is a stable wrapper, so concurrent producers never
// race on shared exception state.  Per-monitor evaluation throws never
// poison: they quarantine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/monitor.h"
#include "engine/decision.h"
#include "engine/engine.h"
#include "trace/trace.h"

namespace il {
namespace engine {

namespace detail {
class ParkedPool;
}

/// Stable handle for a registered monitor.  Never reused, even after
/// retirement.
using MonitorId = std::uint64_t;

/// Handle for an ingest stream (open_stream()).  Stream 0 — kDefaultStream
/// — always exists, so single-stream callers never open anything.
using StreamId = std::uint32_t;
constexpr StreamId kDefaultStream = 0;

enum class AppendStatus : std::uint8_t {
  Ok,
  QueueFull,  ///< bounded ingest queue is full; state was NOT enqueued
  Poisoned,   ///< service hit a coordinator-level fault; see ServiceFault
  Stopped,    ///< service is shutting down; state was NOT enqueued
};

/// Row-level verdict kind, derived per slot by VerdictRow::verdict_at().
/// Ok/Failed mirror CheckResult::ok; Faulted marks a slot whose monitor is
/// quarantined — its CheckResult carries no axiom information and
/// VerdictRow::faults holds the quarantining exception.
enum class Verdict : std::uint8_t {
  Ok,
  Failed,
  Faulted,
};

/// The stable exception every producer-facing call throws once the service
/// is poisoned.  The coordinator extracts the offending exception's message
/// exactly once; producers each get their own ServiceFault, so no two
/// throwers share (or race on) the captured exception object.
class ServiceFault : public std::runtime_error {
 public:
  explicit ServiceFault(const std::string& what) : std::runtime_error(what) {}
};

/// One monitor's verdict for one appended state.  Deliberately identical to
/// the pre-quarantine layout: the drain path tears down fleet-width vectors
/// of these every epoch, so fault state lives in VerdictRow::faults instead
/// of widening every element.
struct ServiceVerdict {
  MonitorId id = 0;
  CheckResult result;
};

/// All verdicts for one appended state, ordered by MonitorId.  seq is the
/// 0-based index of the state in its *stream's* ingest order (streams
/// sequence independently; rows from distinct streams interleave in the
/// service-wide ingest order).
struct VerdictRow {
  StreamId stream = kDefaultStream;
  std::uint64_t seq = 0;
  std::vector<ServiceVerdict> verdicts;
  /// Sparse fault payloads, index-ascending: one (index into `verdicts`,
  /// quarantining exception) entry per Faulted slot in this row
  /// (std::rethrow_exception() to inspect; the pointer is shared with the
  /// slot).  Kept out of ServiceVerdict so a healthy fleet's drain path
  /// never pays per-verdict exception_ptr storage or teardown.
  std::vector<std::pair<std::uint32_t, std::exception_ptr>> faults;

  /// The exception that quarantined `verdicts[index]`'s monitor, or null if
  /// that slot is not Faulted in this row.
  std::exception_ptr fault_at(std::size_t index) const {
    for (const auto& entry : faults) {
      if (entry.first == index) return entry.second;
    }
    return nullptr;
  }

  /// True iff `verdicts[index]`'s monitor is quarantined in this row.
  bool faulted_at(std::size_t index) const {
    for (const auto& entry : faults) {
      if (entry.first == index) return true;
    }
    return false;
  }

  /// The row-level verdict kind for `verdicts[index]`.
  Verdict verdict_at(std::size_t index) const {
    if (faulted_at(index)) return Verdict::Faulted;
    return verdicts[index].result.ok ? Verdict::Ok : Verdict::Failed;
  }
};

/// The counters every shard keeps about its slots, one row each:
///   X(field, shard dump key, kind)   (CounterKind, engine.h)
/// The Shard field, the ServiceStats field summing it over shards, and the
/// dump lines `service.<field>` and `shardN.<key>` are generated from the
/// row.  Two tables because the service section renders the coordinator's
/// reinstate counters between them.
#define IL_SHARD_SLOT_COUNTERS(X)                                              \
  X(retired_compactions, retired_compactions, Lifetime) /* tombstone sweeps */ \
  X(monitors_quarantined, quarantined, Gauge)                                  \
  X(quarantines, quarantines, Lifetime)
/// The byte-budget ladder (Options::obligation_byte_budget), one rung each.
#define IL_SHARD_BUDGET_COUNTERS(X)                                     \
  X(budget_gcs, budget_gcs, Lifetime) /* rung 1: forced GC sweeps */    \
  X(budget_demotions, budget_demotions, Lifetime) /* rung 2: Scratch */ \
  X(budget_quarantines, budget_quarantines, Lifetime) /* rung 3 */

/// Service-level gauges and counters (per-shard detail via shard_stats()).
struct ServiceStats {
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::size_t streams = 0;  ///< open ingest streams (incl. the default)
  std::size_t queue_capacity = 0;
  std::size_t queue_depth = 0;  ///< commands pending right now
  std::size_t queue_peak = 0;   ///< high-water mark of queue_depth, lifetime
  std::size_t states_ingested = 0;  ///< summed over streams
  std::size_t states_applied = 0;
  std::size_t epoch_batches = 0;  ///< batched append epochs run
  std::size_t states_per_batch_max = 0;  ///< largest block folded so far
  std::size_t rows_pending = 0;  ///< rows awaiting drain()
  std::size_t monitors_registered = 0;  ///< lifetime
  std::size_t monitors_resident = 0;
  std::size_t monitors_retired = 0;
  std::size_t retire_misses = 0;  ///< retire() of an unknown/already-retired id
  IL_SHARD_SLOT_COUNTERS(IL_COUNTER_FIELD)  // summed over shards
  std::size_t reinstates = 0;   ///< successful reinstate()s, lifetime
  std::size_t reinstate_misses = 0;   ///< reinstate() of unknown/active id
  std::size_t reinstate_refused = 0;  ///< refused by backoff or retry budget
  IL_SHARD_BUDGET_COUNTERS(IL_COUNTER_FIELD)  // summed over shards
  std::size_t decision_jobs = 0;  ///< lifetime, via decide()
  /// Summed over shards, plus trace_bytes summed over the stream stores.
  /// The stores are not charged to Options::obligation_byte_budget nor to
  /// any Monitor::footprint_bytes(): no degradation rung can shed a state
  /// other monitors still read, so the ladder does not count them.
  StreamStats totals;
  std::vector<std::size_t> stream_trace_bytes;  ///< per stream, by StreamId
  /// States released from the stream stores (trimmed below the readers'
  /// floors, or dropped with a store nobody reads), lifetime: summed, and
  /// per stream by StreamId.
  std::size_t trace_dropped = 0;
  std::vector<std::size_t> stream_trace_dropped;
};

class MonitorService {
 public:
  explicit MonitorService(Options options = {});
  ~MonitorService();

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  // -- streams ------------------------------------------------------------

  /// Opens a new ingest stream and returns its id.  `name` is a label for
  /// operators (dump()); it need not be unique.  Streams are never closed:
  /// a stream nobody appends to costs one sequence counter.
  StreamId open_stream(std::string name = {});

  // -- registry -----------------------------------------------------------

  /// Registers a monitor for `spec` (copied; the caller need not keep it
  /// alive) subscribed to `stream`, and returns its stable id.  Sequenced
  /// on the command queue: the monitor sees exactly the states appended to
  /// its stream after this call.  Blocks while the queue is full.
  MonitorId register_spec(StreamId stream, const Spec& spec, Env env = {},
                          Monitor::Mode mode = Monitor::Mode::Incremental);

  /// Single-stream convenience: register on kDefaultStream.
  MonitorId register_spec(const Spec& spec, Env env = {},
                          Monitor::Mode mode = Monitor::Mode::Incremental);

  /// Retires `id`: the monitor's obligation graph and settled-cache entries
  /// are freed when the command is applied.  Retiring an unknown id is
  /// counted (retire_misses), not an error.  Blocks while the queue is full.
  /// Quarantined monitors retire like any other (their stores are already
  /// freed; the slot is released).
  void retire(MonitorId id);

  /// Asks the service to bring a quarantined monitor back.  Sequenced on
  /// the command queue as a barrier, so the rebuilt monitor observes
  /// exactly the states appended after this call.  The request is counted
  /// and dropped — never an error — when the id is unknown or not
  /// quarantined (reinstate_misses), when the monitor's retry budget
  /// (Options::max_reinstate_attempts) is exhausted, or when its backoff
  /// window — 2^(k-1) states of its stream after the k-th fault, capped at
  /// 2^16 — has not yet elapsed (reinstate_refused).  An accepted reinstate
  /// rebuilds the monitor from the registration-time spec with fresh
  /// stores; if the rebuild itself throws, the monitor is re-quarantined
  /// with the new fault.  Blocks while the queue is full.
  void reinstate(MonitorId id);

  // -- ingest -------------------------------------------------------------

  /// Enqueues one state for every monitor subscribed to `stream`; blocks
  /// while the bounded queue is full (backpressure).
  void append(StreamId stream, const State& s);

  /// Single-stream convenience: append to kDefaultStream.
  void append(const State& s);

  /// Non-blocking append: QueueFull if the bounded queue is full.
  AppendStatus try_append(StreamId stream, const State& s);
  AppendStatus try_append(const State& s);

  /// Blocks until every command enqueued before this call has been applied;
  /// rethrows the poisoning exception if an epoch failed.
  void flush();

  /// Pauses the coordinator between blocks (ingestion keeps queueing up
  /// to the backpressure bound); returns once no command is mid-flight.
  /// For maintenance windows and deterministic backpressure tests.
  void pause();
  void resume();

  // -- verdicts -----------------------------------------------------------

  /// All completed verdict rows since the last drain, in ingest order.
  std::vector<VerdictRow> drain();

  // -- decisions ----------------------------------------------------------

  /// Decides a batch through the resident pool, consulting per-shard
  /// cross-batch DecisionCaches (jobs shard by content key).  Results are
  /// input-ordered and thread-count-invariant, like BatchDecider's.  Runs
  /// on the calling thread plus the parked pool; independent of the ingest
  /// queue.
  std::vector<DecisionResult> decide(const std::vector<DecisionJob>& jobs);

  // -- observation --------------------------------------------------------

  std::size_t shards() const { return shards_.size(); }
  std::size_t threads() const;
  /// Resident (registered and not yet retired) monitors.  Counts a
  /// registration as soon as register_spec() returns, even while the
  /// command is still queued.  Quarantined monitors are resident: they
  /// still hold a slot and may be reinstate()d.
  std::size_t resident() const;

  /// True once a coordinator-level fault stopped the service; producer
  /// calls throw (or report) rather than hang.  Per-monitor quarantines
  /// never set this.
  bool poisoned() const;

  ServiceStats stats() const;
  /// Aggregate counters for one shard (snapshot-consistent).
  StreamStats shard_stats(std::size_t shard) const;

  /// The full debugfs-style text dump: service section, then every shard.
  void dump(std::ostream& os) const;
  /// One shard's section only — the per-shard text endpoint.
  void dump_shard(std::size_t shard, std::ostream& os) const;

 private:
  struct Command;
  struct Shard;
  struct StreamInfo {
    std::string name;
    std::uint64_t next_seq = 0;  ///< per-stream FIFO sequence
    std::size_t trace_bytes = 0;  ///< the store's Trace::bytes(), set by the coordinator
    std::size_t trace_dropped = 0;  ///< states the store released, lifetime
  };
  /// One stream's store and its readers.  Coordinator only.
  struct StreamStore {
    std::unique_ptr<Trace> trace;  ///< null = nothing stored
    /// The stream's Active monitors, in no order.  Monitors are heap-held
    /// by their slots, so tombstone compaction moves none of them.
    std::vector<const Monitor*> readers;
  };

  void coordinator_loop();
  void apply_barrier(Command& cmd);  ///< Register / Retire / Reinstate
  void run_epoch_batch(std::vector<Command>& block);  ///< Appends only
  void enqueue(Command cmd);  ///< blocks on backpressure; throws if poisoned
  /// Folds the monitor in sh.monitors[slot_index] into the shard's
  /// lifetime accumulator (Shard::kept) and frees it: the one accounting path
  /// for retire and quarantine.  Caller holds sh.mu.
  void release_monitor_locked(Shard& sh, std::size_t slot_index);
  /// Frees the faulting monitor in sh.monitors[slot_index] (the retire
  /// path's accounting) and parks `fault` on the slot.  Caller holds sh.mu.
  void quarantine_slot_locked(Shard& sh, std::size_t slot_index,
                              std::exception_ptr fault);
  /// The stream's store, created empty on first use.  Coordinator only.
  Trace& stream_trace(StreamId stream);
  /// Removes a departing monitor from its stream's reader list.
  void drop_reader(StreamId stream, const Monitor* monitor);
  /// Drops the store of a stream nobody reads, or its prefix below the
  /// readers' lowest read floor once that is at least half the store, and
  /// republishes trace_bytes and trace_dropped.  Coordinator only, between
  /// epochs.
  void reclaim_stream(StreamId stream);
  StreamStats shard_stats_locked(const Shard& sh) const;  ///< caller holds sh.mu

  Options options_;
  std::size_t max_batch_ = 1;  ///< resolved Options::max_epoch_batch
  std::unique_ptr<detail::ParkedPool> pool_;  ///< null = single worker, inline epochs
  /// One store per stream (by StreamId), owned and written by the
  /// coordinator only.  The traces are heap-held so monitors' windows stay
  /// valid as the vector grows; declared before shards_ so the stores
  /// outlive their readers.
  std::vector<StreamStore> stores_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex mu_;  ///< queue + lifecycle state
  std::condition_variable queue_space_;  ///< waiters: append/register/retire
  std::condition_variable queue_ready_;  ///< waiter: coordinator
  std::condition_variable applied_;      ///< waiters: flush/pause
  std::deque<Command> queue_;
  std::vector<StreamInfo> streams_;  ///< [0] is the default stream
  std::uint64_t submitted_ = 0;  ///< commands enqueued, lifetime
  std::uint64_t applied_count_ = 0;  ///< commands fully applied, lifetime
  std::uint64_t states_applied_ = 0;  ///< states epoch'd without poisoning
  std::size_t queue_peak_ = 0;
  std::size_t epoch_batches_ = 0;
  std::size_t states_per_batch_max_ = 0;
  MonitorId next_id_ = 1;
  std::size_t resident_ = 0;  ///< registered minus retired (incl. queued)
  std::size_t registered_ = 0;
  std::size_t retired_ = 0;
  std::size_t retire_misses_ = 0;
  std::size_t reinstates_ = 0;
  std::size_t reinstate_misses_ = 0;
  std::size_t reinstate_refused_ = 0;
  std::size_t decision_jobs_ = 0;
  bool stopping_ = false;
  bool paused_ = false;
  bool in_flight_ = false;  ///< coordinator is mid-block
  bool poisoned_ = false;
  std::exception_ptr error_;    ///< captured once; never rethrown to producers
  std::string fault_message_;   ///< what() extracted once; feeds ServiceFault

  mutable std::mutex out_mu_;
  std::vector<VerdictRow> rows_;
  /// rows_.size(), published under out_mu_: drain() returns at once,
  /// without the lock, while it reads 0.
  std::atomic<std::size_t> rows_ready_{0};

  std::thread coordinator_;  ///< last member: joined before the rest dies
};

}  // namespace engine
}  // namespace il
