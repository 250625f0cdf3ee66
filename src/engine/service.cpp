#include "engine/service.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "engine/introspect.h"
#include "engine/pool.h"
#include "util/assert.h"
#include "util/fault.h"

namespace il {
namespace engine {

namespace {

/// Adds `m`'s share of every Lifetime row of IL_STREAM_COUNTERS (engine.h)
/// to `out`: the one fold a retiring or quarantined monitor leaves in its
/// shard's accumulator, so lifetime totals never go backwards when a
/// monitor leaves.
void add_lifetime_counters(StreamStats& out, const Monitor& m) {
#define IL_FOLD_LIFETIME(field, group, key, kind, read) \
  if constexpr (CounterKind::kind == CounterKind::Lifetime) out.field += (read);
  IL_STREAM_COUNTERS(IL_FOLD_LIFETIME)
#undef IL_FOLD_LIFETIME
}

/// Adds a resident monitor's share of every row, gauges included.
void add_monitor_counters(StreamStats& out, const Monitor& m) {
#define IL_FOLD_RESIDENT(field, group, key, kind, read) out.field += (read);
  IL_STREAM_COUNTERS(IL_FOLD_RESIDENT)
#undef IL_FOLD_RESIDENT
}

}  // namespace

/// One command on the ingest queue.  Register/Retire ride the same queue as
/// Append, which is what makes lifecycle interleavings deterministic: a
/// monitor observes exactly the states enqueued after its registration and
/// before its retirement.  They are also the *batch barriers*: the
/// coordinator folds consecutive Appends into one epoch, so membership is
/// fixed within a block.
struct MonitorService::Command {
  enum class Kind : std::uint8_t { Append, Register, Retire, Reinstate };

  Kind kind = Kind::Append;
  State state;            ///< Append
  StreamId stream = kDefaultStream;  ///< Append / Register
  std::uint64_t seq = 0;  ///< Append: per-stream sequence number
  MonitorId id = 0;       ///< Register / Retire / Reinstate
  Spec spec;              ///< Register (owned copy)
  Env env;                ///< Register
  Monitor::Mode mode = Monitor::Mode::Incremental;  ///< Register
};

/// Monitors live in the shard owning their id (id % shards).  The shard
/// mutex covers the slot vector, the counters, and the decision cache, so a
/// dump_shard() between epochs reads one consistent snapshot.
///
/// Slots are id-ascending by construction: ids are minted monotonically and
/// Register commands apply in queue (= mint) order.  retire() tombstones
/// the slot in place (binary search by id) instead of erasing, so the
/// vector never shifts under an id lookup; once tombstones exceed 1/4 of
/// the slots the vector is compacted in one sweep (retired_compactions).
struct MonitorService::Shard {
  /// Slot lifecycle.  Retired slots are tombstones awaiting the compaction
  /// sweep and drop out of every epoch plan.  Quarantined slots also hold
  /// no monitor, but they stay in the plan — their row slots render
  /// Verdict::Faulted — and may be reinstate()d.
  enum class SlotState : std::uint8_t { Active, Quarantined, Retired };

  struct Slot {
    MonitorId id = 0;
    StreamId stream = kDefaultStream;
    std::unique_ptr<Monitor> monitor;  ///< null unless Active
    SlotState state = SlotState::Active;
    // Registration-time inputs, kept so reinstate() rebuilds the monitor
    // from scratch after its stores were freed by the quarantine.
    Spec spec;
    Env env;
    Monitor::Mode mode = Monitor::Mode::Incremental;
    std::exception_ptr fault;  ///< set while Quarantined
    std::uint32_t faults = 0;  ///< quarantine events on this slot, lifetime
    /// States of the slot's stream applied since the last fault — the
    /// deterministic backoff clock gating reinstate().
    std::uint64_t states_since_fault = 0;
    std::uint8_t degrade = 0;  ///< budget-ladder rungs already taken (0..2)
  };

  mutable std::mutex mu;
  std::vector<Slot> monitors;  ///< id order = deterministic row order
  std::size_t tombstones = 0;
  IL_SHARD_SLOT_COUNTERS(IL_COUNTER_FIELD)
  IL_SHARD_BUDGET_COUNTERS(IL_COUNTER_FIELD)

  // The shard's lifetime stream counters: the owner-kept rows of
  // IL_STREAM_COUNTERS (states, verdicts, axioms_*), counted by the
  // epochs, plus the cache/graph counters inherited from monitors that
  // left (retired or quarantined; add_lifetime_counters), so the shard's
  // lifetime totals are monotone while the resident entries (gauges) drop
  // with the departure.  Only the lifetime fields are ever non-zero.
  StreamStats kept;

  DecisionCache decisions;  ///< cross-batch cache for decide()
  std::size_t decision_jobs = 0;
  IntraDecisionStats intra;  ///< intra-decision work decided on this shard
};

MonitorService::MonitorService(Options options) : options_(options) {
  IL_REQUIRE(options_.queue_capacity >= 1, "MonitorService needs a queue capacity of at least 1");
  IL_REQUIRE(options_.max_epoch_batch >= 1, "MonitorService needs max_epoch_batch >= 1");
  max_batch_ = options_.max_epoch_batch;
  std::size_t threads = options_.num_threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  std::size_t shards = options_.num_shards;
  if (shards == 0) shards = threads;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
  std::size_t intra = options_.intra_decision_threads;
  if (intra == 0) intra = 1;
  for (const auto& sh : shards_) {
    sh->decisions.set_capacity(options_.decision_cache_capacity);
    sh->intra.threads = intra;
  }
  streams_.push_back(StreamInfo{"default", 0});
  // Sharding follows num_threads; the pool additionally covers the
  // intra-decision width so nested decision frontiers have workers to fan
  // across even in a single-shard deployment.
  const std::size_t workers = threads > intra ? threads : intra;
  if (workers > 1) pool_ = std::make_unique<detail::ParkedPool>(workers);
  coordinator_ = std::thread([this]() { coordinator_loop(); });
}

MonitorService::~MonitorService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();
  applied_.notify_all();
  coordinator_.join();
}

std::size_t MonitorService::threads() const { return pool_ ? pool_->size() : 1; }

std::size_t MonitorService::resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_;
}

bool MonitorService::poisoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_;
}

StreamId MonitorService::open_stream(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  const StreamId id = static_cast<StreamId>(streams_.size());
  streams_.push_back(StreamInfo{std::move(name), 0});
  return id;
}

// ---------------------------------------------------------------------------
// Ingest side: every public mutation is an enqueue under backpressure.
// ---------------------------------------------------------------------------

void MonitorService::enqueue(Command cmd) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_space_.wait(lock, [&]() {
    return poisoned_ || stopping_ || queue_.size() < options_.queue_capacity;
  });
  // The captured exception itself is never handed out: every producer gets
  // its own ServiceFault built from the once-extracted message, so
  // concurrent throwers share no exception state.
  if (poisoned_) throw ServiceFault(fault_message_);
  IL_REQUIRE(!stopping_, "MonitorService is shutting down");
  if (cmd.kind == Command::Kind::Append) {
    IL_REQUIRE(cmd.stream < streams_.size(), "append to an unopened stream");
    cmd.seq = streams_[cmd.stream].next_seq++;
  }
  queue_.push_back(std::move(cmd));
  if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
  ++submitted_;
  queue_ready_.notify_one();
}

MonitorId MonitorService::register_spec(StreamId stream, const Spec& spec, Env env,
                                        Monitor::Mode mode) {
  MonitorId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    IL_REQUIRE(stream < streams_.size(), "register on an unopened stream");
    id = next_id_++;
    ++registered_;
    ++resident_;
  }
  Command cmd;
  cmd.kind = Command::Kind::Register;
  cmd.stream = stream;
  cmd.id = id;
  cmd.spec = spec;
  cmd.env = std::move(env);
  cmd.mode = mode;
  enqueue(std::move(cmd));
  return id;
}

MonitorId MonitorService::register_spec(const Spec& spec, Env env, Monitor::Mode mode) {
  return register_spec(kDefaultStream, spec, std::move(env), mode);
}

void MonitorService::retire(MonitorId id) {
  Command cmd;
  cmd.kind = Command::Kind::Retire;
  cmd.id = id;
  enqueue(std::move(cmd));
}

void MonitorService::reinstate(MonitorId id) {
  Command cmd;
  cmd.kind = Command::Kind::Reinstate;
  cmd.id = id;
  enqueue(std::move(cmd));
}

void MonitorService::append(StreamId stream, const State& s) {
  Command cmd;
  cmd.kind = Command::Kind::Append;
  cmd.stream = stream;
  cmd.state = s;
  enqueue(std::move(cmd));
}

void MonitorService::append(const State& s) { append(kDefaultStream, s); }

AppendStatus MonitorService::try_append(StreamId stream, const State& s) {
  Command cmd;
  cmd.kind = Command::Kind::Append;
  cmd.stream = stream;
  cmd.state = s;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Distinct statuses instead of throws: a non-blocking producer polls —
    // it should learn *why* the enqueue failed, not unwind.
    if (poisoned_) return AppendStatus::Poisoned;
    if (stopping_) return AppendStatus::Stopped;
    IL_REQUIRE(stream < streams_.size(), "append to an unopened stream");
    if (queue_.size() >= options_.queue_capacity) return AppendStatus::QueueFull;
    cmd.seq = streams_[stream].next_seq++;
    queue_.push_back(std::move(cmd));
    if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
    ++submitted_;
  }
  queue_ready_.notify_one();
  return AppendStatus::Ok;
}

AppendStatus MonitorService::try_append(const State& s) {
  return try_append(kDefaultStream, s);
}

void MonitorService::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t target = submitted_;
  applied_.wait(lock, [&]() { return poisoned_ || stopping_ || applied_count_ >= target; });
  if (poisoned_) throw ServiceFault(fault_message_);
}

void MonitorService::pause() {
  std::unique_lock<std::mutex> lock(mu_);
  // Fail fast: a poisoned coordinator is gone, so "pause" can never mean
  // anything again — surface the fault instead of silently succeeding.
  if (poisoned_) throw ServiceFault(fault_message_);
  paused_ = true;
  applied_.wait(lock, [&]() { return poisoned_ || !in_flight_; });
  if (poisoned_) throw ServiceFault(fault_message_);
}

void MonitorService::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  queue_ready_.notify_all();
}

std::vector<VerdictRow> MonitorService::drain() {
  std::vector<VerdictRow> rows;
  // Nothing published: return without the lock the coordinator publishes
  // under.  A row published right after this load is drained by the next
  // call.
  if (rows_ready_.load(std::memory_order_acquire) == 0) return rows;
  std::lock_guard<std::mutex> lock(out_mu_);
  rows.swap(rows_);
  rows_ready_.store(0, std::memory_order_relaxed);
  return rows;
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

void MonitorService::coordinator_loop() {
  std::vector<Command> block;
  for (;;) {
    block.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_ready_.wait(lock,
                        [&]() { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // Shutdown drains the queue (stopping_ overrides paused_), so a
      // destructor never abandons accepted commands.
      //
      // Batch assembly: greedily fold consecutive Appends — whatever
      // streams they belong to — into one block, up to max_epoch_batch.
      // A Register/Retire at the queue head is a barrier and goes alone.
      if (queue_.front().kind == Command::Kind::Append) {
        while (!queue_.empty() && queue_.front().kind == Command::Kind::Append &&
               block.size() < max_batch_) {
          block.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      } else {
        block.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ = true;
      queue_space_.notify_all();
    }
    // Monitor-evaluation throws are caught *inside* the epoch (quarantine);
    // anything escaping to here — a barrier that failed an invariant, a
    // fault injected into the command loop or the pool dispatch itself —
    // is a coordinator-level violation and poisons the service.  The
    // message is extracted exactly once, here, so the producer-facing
    // ServiceFault never touches the captured exception again.
    try {
      IL_INJECT_FAULT("service.command");
      if (block.front().kind != Command::Kind::Append) {
        apply_barrier(block.front());
      } else {
        run_epoch_batch(block);
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      poisoned_ = true;
      error_ = std::current_exception();
      fault_message_ = e.what();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      poisoned_ = true;
      error_ = std::current_exception();
      fault_message_ = "unknown coordinator fault";
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ = false;
      applied_count_ += block.size();
      if (poisoned_) {
        // Wake everyone so blocked producers observe the stored exception.
        applied_.notify_all();
        queue_space_.notify_all();
        return;
      }
    }
    applied_.notify_all();
  }
}

void MonitorService::apply_barrier(Command& cmd) {
  if (cmd.kind == Command::Kind::Register) {
    Shard& sh = *shards_[cmd.id % shards_.size()];
    Shard::Slot slot;
    slot.id = cmd.id;
    slot.stream = cmd.stream;
    slot.spec = std::move(cmd.spec);
    slot.env = std::move(cmd.env);
    slot.mode = cmd.mode;
    try {
      IL_FAULT_SCOPE(cmd.id);
      IL_INJECT_FAULT("service.register");
      // The window starts at the stream store's end: the monitor observes
      // exactly the states appended after this barrier.
      slot.monitor = std::make_unique<Monitor>(slot.spec, slot.env, slot.mode,
                                               stream_trace(slot.stream));
      slot.monitor->set_gc_fraction(options_.obligation_gc_fraction);
    } catch (...) {
      // Quarantined at birth: the spec failed to build.  The slot still
      // exists — its row slots render Faulted, and reinstate() may retry
      // the build later — and nothing else about the fleet changes.
      slot.state = Shard::SlotState::Quarantined;
      slot.fault = std::current_exception();
      slot.faults = 1;
    }
    const bool born_quarantined = slot.state == Shard::SlotState::Quarantined;
    if (!born_quarantined) stores_[slot.stream].readers.push_back(slot.monitor.get());
    std::lock_guard<std::mutex> lock(sh.mu);
    // Ids are minted monotonically and applied in mint order: push_back
    // keeps the vector id-ascending.
    sh.monitors.push_back(std::move(slot));
    if (born_quarantined) {
      ++sh.monitors_quarantined;
      ++sh.quarantines;
    }
    return;
  }
  if (cmd.kind == Command::Kind::Reinstate) {
    Shard& sh = *shards_[cmd.id % shards_.size()];
    enum class Outcome : std::uint8_t { Miss, Refused, Reinstated, Requarantined };
    Outcome outcome = Outcome::Miss;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      auto it = std::lower_bound(
          sh.monitors.begin(), sh.monitors.end(), cmd.id,
          [](const Shard::Slot& slot, MonitorId id) { return slot.id < id; });
      if (it != sh.monitors.end() && it->id == cmd.id &&
          it->state == Shard::SlotState::Quarantined) {
        Shard::Slot& slot = *it;
        // Backoff gate: after the k-th fault the monitor must have sat out
        // 2^(k-1) states of its stream (capped at 2^16), and the retry
        // budget must not be exhausted.
        const std::uint64_t backoff =
            std::uint64_t{1} << std::min<std::uint32_t>(slot.faults > 0 ? slot.faults - 1 : 0, 16);
        if (slot.faults > options_.max_reinstate_attempts ||
            slot.states_since_fault < backoff) {
          outcome = Outcome::Refused;
        } else {
          try {
            IL_FAULT_SCOPE(cmd.id);
            IL_INJECT_FAULT("service.register");
            // A fresh window at the store's end: the rebuilt monitor reads
            // only states appended after this barrier.
            slot.monitor = std::make_unique<Monitor>(slot.spec, slot.env, slot.mode,
                                                     stream_trace(slot.stream));
            slot.monitor->set_gc_fraction(options_.obligation_gc_fraction);
            stores_[slot.stream].readers.push_back(slot.monitor.get());
            slot.state = Shard::SlotState::Active;
            slot.fault = nullptr;
            slot.degrade = 0;
            slot.states_since_fault = 0;
            --sh.monitors_quarantined;
            outcome = Outcome::Reinstated;
          } catch (...) {
            // The rebuild itself failed: stay quarantined with the new
            // fault and restart the backoff clock.
            slot.fault = std::current_exception();
            ++slot.faults;
            slot.states_since_fault = 0;
            ++sh.quarantines;
            outcome = Outcome::Requarantined;
          }
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    switch (outcome) {
      case Outcome::Miss: ++reinstate_misses_; break;
      case Outcome::Refused: ++reinstate_refused_; break;
      case Outcome::Reinstated: ++reinstates_; break;
      case Outcome::Requarantined: break;  // counted as a quarantine above
    }
    return;
  }
  IL_CHECK(cmd.kind == Command::Kind::Retire);
  Shard& sh = *shards_[cmd.id % shards_.size()];
  bool found = false;
  StreamId stream = kDefaultStream;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = std::lower_bound(
        sh.monitors.begin(), sh.monitors.end(), cmd.id,
        [](const Shard::Slot& slot, MonitorId id) { return slot.id < id; });
    if (it != sh.monitors.end() && it->id == cmd.id &&
        it->state != Shard::SlotState::Retired) {
      found = true;
      stream = it->stream;
      if (it->state == Shard::SlotState::Active) {
        // Retiring frees the monitor's obligations and settled-cache
        // entries; the slot stays as a tombstone so ranks/lookups are stable.
        drop_reader(stream, it->monitor.get());
        release_monitor_locked(sh, static_cast<std::size_t>(it - sh.monitors.begin()));
      } else {
        // Quarantined: stores already freed and counters already folded.
        --sh.monitors_quarantined;
      }
      it->state = Shard::SlotState::Retired;
      it->fault = nullptr;
      ++sh.tombstones;
      if (sh.tombstones * 4 > sh.monitors.size()) {
        // Retired fraction exceeds 1/4: sweep the tombstones so a
        // retire-heavy fleet does not hold dead slots forever.  Reader
        // lists hold monitors, not slot indices, so the sweep moves none.
        sh.monitors.erase(
            std::remove_if(sh.monitors.begin(), sh.monitors.end(),
                           [](const Shard::Slot& slot) {
                             return slot.state == Shard::SlotState::Retired;
                           }),
            sh.monitors.end());
        sh.tombstones = 0;
        ++sh.retired_compactions;
      }
    }
  }
  // The monitor's window no longer pins the stream's store.
  if (found) reclaim_stream(stream);
  std::lock_guard<std::mutex> lock(mu_);
  if (found) {
    ++retired_;
    --resident_;
  } else {
    ++retire_misses_;
  }
}

void MonitorService::release_monitor_locked(Shard& sh, std::size_t slot_index) {
  Shard::Slot& slot = sh.monitors[slot_index];
  // Lifetime counters stay monotone; the resident gauges drop with the
  // freed stores, which is the point of leaving.
  add_lifetime_counters(sh.kept, *slot.monitor);
  slot.monitor.reset();  // frees the obligation graph and settled cache
}

void MonitorService::quarantine_slot_locked(Shard& sh, std::size_t slot_index,
                                            std::exception_ptr fault) {
  release_monitor_locked(sh, slot_index);  // the retire path's accounting
  Shard::Slot& slot = sh.monitors[slot_index];
  slot.state = Shard::SlotState::Quarantined;
  slot.fault = std::move(fault);
  ++slot.faults;
  slot.states_since_fault = 0;
  ++sh.monitors_quarantined;
  ++sh.quarantines;
}

Trace& MonitorService::stream_trace(StreamId stream) {
  if (stream >= stores_.size()) stores_.resize(stream + 1);
  if (stores_[stream].trace == nullptr) stores_[stream].trace = std::make_unique<Trace>();
  return *stores_[stream].trace;
}

void MonitorService::drop_reader(StreamId stream, const Monitor* monitor) {
  std::vector<const Monitor*>& readers = stores_[stream].readers;
  const auto it = std::find(readers.begin(), readers.end(), monitor);
  IL_CHECK(it != readers.end(), "a departing monitor was not on its stream's reader list");
  *it = readers.back();
  readers.pop_back();
}

void MonitorService::reclaim_stream(StreamId stream) {
  if (stream >= stores_.size() || stores_[stream].trace == nullptr) return;
  StreamStore& store = stores_[stream];
  Trace& trace = *store.trace;
  // The oldest-active-reader rule, with a reader's position the lowest one
  // it can still read.  Under a byte budget any monitor may be demoted to
  // Scratch, which re-reads its window from the base, so every base pins.
  // Windows and floors move only inside an epoch's shard tasks, and
  // membership only on this thread, so between epochs the readers are read
  // without the shard locks.
  const bool pin_bases = options_.obligation_byte_budget != 0;
  std::size_t released = 0;
  if (store.readers.empty()) {
    released = trace.size();
    store.trace.reset();  // nobody reads the stream: store nothing
  } else {
    std::size_t low = trace.dropped() + trace.size();
    for (const Monitor* m : store.readers) {
      low = std::min(low, pin_bases ? m->base() : m->read_floor());
    }
    // Amortized: drop once the dead prefix is at least half the store, so
    // the move is paid for by the appends that made it dead.
    if (low <= trace.dropped()) return;
    const std::size_t dead = low - trace.dropped();
    if (2 * dead < trace.size()) return;
    trace.drop_front(dead);
    released = dead;
  }
  const std::size_t bytes = store.trace != nullptr ? store.trace->bytes() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  streams_[stream].trace_bytes = bytes;
  streams_[stream].trace_dropped += released;
}

void MonitorService::run_epoch_batch(std::vector<Command>& block) {
  const std::size_t nstates = block.size();

  // Group the block's states by stream, preserving block (= ingest) order.
  // A batch touches few distinct streams, so a linear scan beats a map.
  std::vector<StreamId> batch_streams;
  std::vector<std::vector<std::size_t>> positions;  ///< block indices per stream
  std::vector<std::size_t> stream_of(nstates);      ///< block index -> batch stream index
  for (std::size_t j = 0; j < nstates; ++j) {
    std::size_t si = 0;
    for (; si < batch_streams.size(); ++si) {
      if (batch_streams[si] == block[j].stream) break;
    }
    if (si == batch_streams.size()) {
      batch_streams.push_back(block[j].stream);
      positions.emplace_back();
    }
    positions[si].push_back(j);
    stream_of[j] = si;
  }

  // Membership snapshot and row-slot ranks.  Only the coordinator mutates
  // shard membership (Register/Retire are barriers applied on this thread),
  // so the slot vectors can be read without the shard locks here; the
  // ranks fix each monitor's verdict slot in every row of its stream, so
  // the shard tasks below write disjoint slots concurrently and no
  // post-epoch sort is needed.
  struct WorkItem {
    std::size_t slot = 0;  ///< index into the shard's monitor vector
    std::size_t si = 0;    ///< batch stream index
    std::size_t rank = 0;  ///< id-ascending rank within the stream
  };
  struct Candidate {
    MonitorId id;
    std::size_t shard;
    std::size_t slot;
    std::size_t si;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    for (std::size_t k = 0; k < sh.monitors.size(); ++k) {
      const Shard::Slot& slot = sh.monitors[k];
      // Quarantined slots stay in the plan: they hold their rank and their
      // row slots render Faulted, so every *other* monitor's verdict stream
      // is bit-identical to a fleet that never contained the faulty spec.
      if (slot.state == Shard::SlotState::Retired) continue;
      for (std::size_t si = 0; si < batch_streams.size(); ++si) {
        if (batch_streams[si] == slot.stream) {
          candidates.push_back(Candidate{slot.id, i, k, si});
          break;
        }
      }
    }
  }

  // Store each state once, in its stream's trace, before the fan-out: the
  // shard tasks only read the stores, so the read path takes no lock.  A
  // stream nobody reads stores nothing (a later reader starts at the end
  // anyway).
  std::vector<char> read(batch_streams.size(), 0);  ///< has an Active reader
  for (std::size_t si = 0; si < batch_streams.size(); ++si) {
    const StreamId stream = batch_streams[si];
    read[si] = stream < stores_.size() && !stores_[stream].readers.empty();
    if (read[si] == 0) continue;
    Trace& trace = stream_trace(stream);
    for (const std::size_t j : positions[si]) trace.push(std::move(block[j].state));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
  std::vector<std::size_t> stream_live(batch_streams.size(), 0);
  std::vector<std::vector<WorkItem>> plan(shards_.size());
  for (const Candidate& c : candidates) {
    plan[c.shard].push_back(WorkItem{c.slot, c.si, stream_live[c.si]++});
  }

  std::vector<VerdictRow> rows(nstates);
  for (std::size_t j = 0; j < nstates; ++j) {
    rows[j].stream = block[j].stream;
    rows[j].seq = block[j].seq;
    rows[j].verdicts.resize(stream_live[stream_of[j]]);
  }

  // One work item per *dirty* shard: a shard with no monitor on any of the
  // block's streams is never locked, never woken for, never touched.
  std::vector<std::size_t> dirty;
  dirty.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!plan[i].empty()) dirty.push_back(i);
  }

  const std::size_t budget = options_.obligation_byte_budget;
  // Fault payloads are collected per dirty shard and folded into the rows
  // after the epoch: the shard tasks keep writing disjoint preassigned row
  // slots, and the (rare) exception_ptr traffic stays off the healthy path.
  struct FaultMark {
    std::size_t row;      ///< index into rows
    std::uint32_t rank;   ///< index into that row's verdicts
    std::exception_ptr fault;
  };
  std::vector<std::vector<FaultMark>> marks(dirty.size());
  /// Monitors quarantined by each dirty shard's task, by stream: they leave
  /// their stream's reader list once the fan-out is over.
  std::vector<std::vector<std::pair<StreamId, const Monitor*>>> departed(dirty.size());
  const auto body = [&](std::size_t k) {
    Shard& sh = *shards_[dirty[k]];
    std::lock_guard<std::mutex> lock(sh.mu);
    std::vector<CheckResult> column;
    std::vector<char> touched(batch_streams.size(), 0);
    // Fills every row slot of a (possibly mid-block) faulted monitor.
    const auto emit_faulted = [&](const Shard::Slot& slot, const WorkItem& w,
                                  std::size_t count) {
      for (std::size_t t = 0; t < count; ++t) {
        ServiceVerdict& v = rows[positions[w.si][t]].verdicts[w.rank];
        v.id = slot.id;
        v.result.ok = false;
        marks[k].push_back(FaultMark{positions[w.si][t],
                                     static_cast<std::uint32_t>(w.rank),
                                     slot.fault});
      }
      sh.kept.verdicts += count;
    };
    for (const WorkItem& w : plan[dirty[k]]) {
      Shard::Slot& slot = sh.monitors[w.slot];
      const std::size_t count = positions[w.si].size();
      touched[w.si] = 1;
      if (slot.state == Shard::SlotState::Quarantined) {
        // The stream advances without the monitor: tick the backoff clock
        // and render the slot's rows as Faulted.
        slot.states_since_fault += count;
        emit_faulted(slot, w, count);
        continue;
      }
      column.clear();
      column.resize(count);
      bool threw = false;
      {
        // Scope injected faults to this monitor's id, so a site armed with
        // key == MonitorId fires deterministically at any pool width.
        IL_FAULT_SCOPE(slot.id);
        try {
          // The whole sub-block in one call: the window grows over the
          // states just stored, then one begin_epoch() pass, one
          // settled-cache pass, per-state verdicts at virtual horizons.
          slot.monitor->advance(count, column.data());
        } catch (...) {
          // Per-monitor fault isolation: the throw stops at the epoch
          // boundary.  Free the stores, park the fault, render the whole
          // failing block Faulted — nobody else notices.
          threw = true;
          departed[k].emplace_back(slot.stream, slot.monitor.get());
          quarantine_slot_locked(sh, w.slot, std::current_exception());
        }
      }
      if (threw) {
        emit_faulted(slot, w, count);
        continue;
      }
      for (std::size_t t = 0; t < count; ++t) {
        sh.kept.axioms_failed += column[t].failed.size();
        // In place: the slot was value-initialized by the row build, so
        // only id/result need stores and no temporary is built.
        ServiceVerdict& v = rows[positions[w.si][t]].verdicts[w.rank];
        v.id = slot.id;
        v.result = std::move(column[t]);
      }
      sh.kept.axioms_checked += slot.monitor->spec().all().size() * count;
      sh.kept.verdicts += count;
      // Staged degradation: one rung per epoch while the monitor's stores
      // exceed the byte budget — obligation GC, then Scratch demotion, then
      // quarantine.  The rows of the epoch that crossed a rung are already
      // written (the degradation applies from the *next* epoch on).
      if (budget != 0 && slot.monitor->footprint_bytes() > budget) {
        if (slot.degrade == 0 && slot.mode == Monitor::Mode::Incremental) {
          slot.monitor->gc_obligations();
          slot.degrade = 1;
          ++sh.budget_gcs;
        } else if (slot.degrade <= 1 && slot.mode == Monitor::Mode::Incremental) {
          slot.monitor->demote_to_scratch();
          slot.degrade = 2;
          ++sh.budget_demotions;
        } else {
          departed[k].emplace_back(slot.stream, slot.monitor.get());
          quarantine_slot_locked(sh, w.slot,
                                 std::make_exception_ptr(std::runtime_error(
                                     "monitor exceeded obligation_byte_budget")));
          ++sh.budget_quarantines;
        }
      }
    }
    for (std::size_t si = 0; si < batch_streams.size(); ++si) {
      if (touched[si]) sh.kept.states += positions[si].size();
    }
  };
  if (pool_ != nullptr && dirty.size() > 1) {
    pool_->run(dirty.size(), body);
  } else {
    // Inline: in-order execution, so the first throw is the lowest index —
    // the same contract the pool provides.
    for (std::size_t k = 0; k < dirty.size(); ++k) body(k);
  }

  // Fold the per-shard fault marks into their rows, then order each touched
  // row's payloads rank-ascending so drain() output is independent of shard
  // layout and pool width.
  for (std::vector<FaultMark>& list : marks) {
    for (FaultMark& m : list) {
      rows[m.row].faults.emplace_back(m.rank, std::move(m.fault));
    }
  }
  for (VerdictRow& row : rows) {
    if (row.faults.size() > 1) {
      std::sort(row.faults.begin(), row.faults.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    }
  }

  // A quarantined monitor no longer reads its stream; every reader's floor
  // may have risen.  Trim each store to what its readers can still read.
  for (const auto& list : departed) {
    for (const auto& [stream, monitor] : list) drop_reader(stream, monitor);
  }
  for (const StreamId stream : batch_streams) reclaim_stream(stream);

  {
    std::lock_guard<std::mutex> lock(out_mu_);
    rows_.reserve(rows_.size() + rows.size());
    for (VerdictRow& row : rows) rows_.push_back(std::move(row));
    rows_ready_.store(rows_.size(), std::memory_order_release);
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t si = 0; si < batch_streams.size(); ++si) {
    const StreamId stream = batch_streams[si];
    if (read[si] != 0 && stores_[stream].trace != nullptr) {
      streams_[stream].trace_bytes = stores_[stream].trace->bytes();
    }
  }
  states_applied_ += nstates;
  ++epoch_batches_;
  if (nstates > states_per_batch_max_) states_per_batch_max_ = nstates;
}

// ---------------------------------------------------------------------------
// Decision batches through the resident pool.
// ---------------------------------------------------------------------------

std::vector<DecisionResult> MonitorService::decide(const std::vector<DecisionJob>& jobs) {
  std::vector<DecisionResult> results(jobs.size());
  if (jobs.empty()) return results;
  {
    std::lock_guard<std::mutex> lock(mu_);
    decision_jobs_ += jobs.size();
  }

  // Resolve phase on the calling thread: jobs shard by content key, each
  // shard's cross-batch DecisionCache answers repeats, and within-batch
  // duplicates collapse to one decision — BatchDecider's contract, with the
  // cache sharded so hit rates show up per shard in dump().
  constexpr std::size_t kResolved = ~std::size_t{0};
  const bool use_cache = options_.decision_cache;
  DecisionCache::KeyHash hasher;
  std::vector<std::size_t> slot(jobs.size(), kResolved);
  std::vector<std::size_t> distinct;
  std::vector<DecisionCache::Key> distinct_keys;
  std::vector<std::size_t> distinct_shard;
  if (use_cache) {
    std::unordered_map<DecisionCache::Key, std::size_t, DecisionCache::KeyHash> first_seen;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const DecisionCache::Key key = DecisionCache::key_for(jobs[i]);
      const std::size_t shard = hasher(key) % shards_.size();
      Shard& sh = *shards_[shard];
      bool hit = false;
      {
        std::lock_guard<std::mutex> lock(sh.mu);
        ++sh.decision_jobs;
        if (const DecisionResult* cached = sh.decisions.lookup(key)) {
          results[i] = *cached;
          hit = true;
        }
      }
      if (hit) continue;
      const auto [it, inserted] = first_seen.try_emplace(key, distinct.size());
      if (inserted) {
        distinct.push_back(i);
        distinct_keys.push_back(key);
        distinct_shard.push_back(shard);
      }
      slot[i] = it->second;
    }
  } else {
    distinct.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      slot[i] = distinct.size();
      distinct.push_back(i);
    }
    std::lock_guard<std::mutex> lock(shards_[0]->mu);
    shards_[0]->decision_jobs += jobs.size();
  }

  // Intra-decision handle: nested runs on the same resident pool, so a
  // decision's internal frontiers fan across parked workers even while the
  // outer claim loop is active (contexts stack; see engine/pool.h).
  util::ParallelFor intra;
  const util::ParallelFor* intra_par = nullptr;
  const std::size_t intra_width =
      options_.intra_decision_threads == 0 ? 1 : options_.intra_decision_threads;
  if (pool_ != nullptr && intra_width > 1) {
    intra.width = intra_width;
    intra.run = [p = pool_.get()](std::size_t count,
                                  const std::function<void(std::size_t)>& item) {
      p->run_nested(count, item);
    };
    intra_par = &intra;
  }

  std::vector<DecisionResult> decided(distinct.size());
  if (!distinct.empty()) {
    if (pool_ != nullptr && distinct.size() > 1) {
      pool_->run(distinct.size(), [&](std::size_t d) {
        decided[d] = run_decision_job(jobs[distinct[d]], intra_par);
      });
    } else {
      for (std::size_t d = 0; d < distinct.size(); ++d) {
        decided[d] = run_decision_job(jobs[distinct[d]], intra_par);
      }
    }
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (slot[i] != kResolved) results[i] = decided[slot[i]];
  }
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    const std::size_t shard = use_cache ? distinct_shard[d] : 0;
    Shard& sh = *shards_[shard];
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.intra.add(decided[d]);
    if (use_cache) sh.decisions.store(distinct_keys[d], decided[d]);
  }
  return results;
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

StreamStats MonitorService::shard_stats_locked(const Shard& sh) const {
  StreamStats out = sh.kept;
  out.threads = threads();
  for (const Shard::Slot& slot : sh.monitors) {
    if (slot.monitor != nullptr) add_monitor_counters(out, *slot.monitor);
  }
  return out;
}

StreamStats MonitorService::shard_stats(std::size_t shard) const {
  IL_REQUIRE(shard < shards_.size(), "shard index out of range");
  const Shard& sh = *shards_[shard];
  std::lock_guard<std::mutex> lock(sh.mu);
  return shard_stats_locked(sh);
}

ServiceStats MonitorService::stats() const {
  ServiceStats out;
  out.shards = shards_.size();
  out.threads = threads();
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.streams = streams_.size();
    out.queue_capacity = options_.queue_capacity;
    out.queue_depth = queue_.size();
    out.queue_peak = queue_peak_;
    out.stream_trace_bytes.reserve(streams_.size());
    out.stream_trace_dropped.reserve(streams_.size());
    for (const StreamInfo& stream : streams_) {
      out.states_ingested += static_cast<std::size_t>(stream.next_seq);
      out.stream_trace_bytes.push_back(stream.trace_bytes);
      out.stream_trace_dropped.push_back(stream.trace_dropped);
      out.totals.trace_bytes += stream.trace_bytes;
      out.trace_dropped += stream.trace_dropped;
    }
    out.states_applied = static_cast<std::size_t>(states_applied_);
    out.epoch_batches = epoch_batches_;
    out.states_per_batch_max = states_per_batch_max_;
    out.monitors_registered = registered_;
    out.monitors_resident = resident_;
    out.monitors_retired = retired_;
    out.retire_misses = retire_misses_;
    out.reinstates = reinstates_;
    out.reinstate_misses = reinstate_misses_;
    out.reinstate_refused = reinstate_refused_;
    out.decision_jobs = decision_jobs_;
  }
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    out.rows_pending = rows_.size();
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
#define IL_SUM_SHARD(field, ...) out.field += sh.field;
    IL_SHARD_SLOT_COUNTERS(IL_SUM_SHARD)
    IL_SHARD_BUDGET_COUNTERS(IL_SUM_SHARD)
#undef IL_SUM_SHARD
    out.totals += shard_stats_locked(sh);
  }
  // Threads are the pool's, not a per-shard sum, and a shard's `states`
  // counts the states that actually touched it, so the fleet-level figure
  // is the service's own applied count.
  out.totals.threads = out.threads;
  out.totals.states = out.states_applied;
  return out;
}

void MonitorService::dump(std::ostream& os) const {
  const ServiceStats s = stats();
  KvWriter kv(os);
  KvWriter service = kv.scoped("service");
  service.emit("shards", s.shards);
  service.emit("threads", s.threads);
  service.emit("streams", s.streams);
  service.emit("queue_capacity", s.queue_capacity);
  service.emit("queue_depth", s.queue_depth);
  service.emit("queue_peak", s.queue_peak);
  service.emit("states_ingested", s.states_ingested);
  service.emit("states_applied", s.states_applied);
  service.emit("epoch_batches", s.epoch_batches);
  service.emit("states_per_batch_max", s.states_per_batch_max);
  service.emit("rows_pending", s.rows_pending);
  service.emit("monitors_registered", s.monitors_registered);
  service.emit("monitors_resident", s.monitors_resident);
  service.emit("monitors_retired", s.monitors_retired);
  service.emit("retire_misses", s.retire_misses);
#define IL_EMIT_SERVICE(field, ...) service.emit(#field, s.field);
  IL_SHARD_SLOT_COUNTERS(IL_EMIT_SERVICE)
  service.emit("reinstates", s.reinstates);
  service.emit("reinstate_misses", s.reinstate_misses);
  service.emit("reinstate_refused", s.reinstate_refused);
  IL_SHARD_BUDGET_COUNTERS(IL_EMIT_SERVICE)
#undef IL_EMIT_SERVICE
  service.emit("decision_jobs", s.decision_jobs);
  service.emit("trace_bytes", s.totals.trace_bytes);
  service.emit("trace_dropped", s.trace_dropped);
  for (std::size_t i = 0; i < s.stream_trace_bytes.size(); ++i) {
    KvWriter stream = service.scoped("stream" + std::to_string(i));
    stream.emit("trace_bytes", s.stream_trace_bytes[i]);
    stream.emit("trace_dropped", s.stream_trace_dropped[i]);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) dump_shard(i, os);
}

void MonitorService::dump_shard(std::size_t shard, std::ostream& os) const {
  IL_REQUIRE(shard < shards_.size(), "shard index out of range");
  const Shard& sh = *shards_[shard];
  // One lock for the whole section: a shard dump is a consistent snapshot
  // taken between epochs touching this shard.
  std::lock_guard<std::mutex> lock(sh.mu);
  const StreamStats ss = shard_stats_locked(sh);
  KvWriter kv(os, "shard" + std::to_string(shard) + ".");
  dump_counters(kv, ss);
#define IL_EMIT_SHARD(field, key, kind) kv.emit(#key, sh.field);
  IL_SHARD_SLOT_COUNTERS(IL_EMIT_SHARD)
  IL_SHARD_BUDGET_COUNTERS(IL_EMIT_SHARD)
#undef IL_EMIT_SHARD
  KvWriter dec = kv.scoped("decision");
  dump_counters(dec, sh.decisions);
  dec.emit("jobs", sh.decision_jobs);
  dump_counters(dec.scoped("intra"), sh.intra);
}

}  // namespace engine
}  // namespace il
