#include "engine/stream.h"

#include "engine/pool.h"
#include "util/assert.h"
#include "util/fault.h"

namespace il {
namespace engine {

BatchMonitor::BatchMonitor(const std::vector<MonitorJob>& jobs, Options options)
    : options_(options), trace_(std::make_unique<Trace>()) {
  monitors_.reserve(jobs.size());
  for (const MonitorJob& job : jobs) {
    IL_REQUIRE(job.spec != nullptr, "MonitorJob must bind a spec");
    monitors_.emplace_back(*job.spec, job.env, job.mode, *trace_);
    monitors_.back().set_gc_fraction(options_.obligation_gc_fraction);
  }
  verdicts_.resize(monitors_.size());
  // The pool outlives every feed: workers park between states instead of
  // being spawned per state (the pre-service design respawned here, which
  // made fine-grained streaming pay only at coarse grain).
  const std::size_t pool =
      options_.num_threads <= 1 ? 1 : detail::effective_pool(monitors_.size(), options_.num_threads);
  if (pool > 1) pool_ = std::make_unique<detail::ParkedPool>(pool);
}

BatchMonitor::~BatchMonitor() = default;
BatchMonitor::BatchMonitor(BatchMonitor&&) noexcept = default;
BatchMonitor& BatchMonitor::operator=(BatchMonitor&&) noexcept = default;

const std::vector<CheckResult>& BatchMonitor::feed(const State& s) {
  // Monitors are stateful: if one append throws mid-feed, earlier-indexed
  // monitors have consumed the state and later ones have not, so the fleet's
  // verdict rows would silently compare different trace prefixes.  A feed
  // that threw therefore poisons the fleet — further feeds refuse instead
  // of diverging quietly.
  IL_REQUIRE(!poisoned_, "a previous feed() threw mid-state; the fleet is torn");
  const std::size_t count = monitors_.size();
  trace_->push(s);  // stored once, before the fan-out: workers only read it
  try {
    const auto one = [&](std::size_t i) {
      IL_FAULT_SCOPE(i);
      monitors_[i].advance(1, &verdicts_[i]);
    };
    if (pool_ == nullptr || count <= 1) {
      // Inline fast path: the sequential-equivalent case never touches the pool.
      for (std::size_t i = 0; i < count; ++i) one(i);
    } else {
      pool_->run(count, one);
    }
  } catch (...) {
    poisoned_ = true;
    throw;
  }
  ++states_fed_;
  for (std::size_t i = 0; i < count; ++i) {
    axioms_checked_ += monitors_[i].spec().all().size();
    axioms_failed_ += verdicts_[i].failed.size();
  }
  return verdicts_;
}

const std::vector<CheckResult>& BatchMonitor::feed_all(const Trace& t) {
  for (const State& s : t.states()) feed(s);
  return verdicts_;
}

const std::vector<std::vector<CheckResult>>& BatchMonitor::feed_block(const State* states,
                                                                      std::size_t count) {
  IL_REQUIRE(!poisoned_, "a previous feed() threw mid-state; the fleet is torn");
  const std::size_t monitors = monitors_.size();
  block_.assign(count, std::vector<CheckResult>(monitors));
  if (count == 0) return block_;
  for (std::size_t k = 0; k < count; ++k) trace_->push(states[k]);
  // One column per monitor, written into the rows after the block lands —
  // columns are monitor-private, so the pooled path writes nothing shared.
  const auto column = [&](std::size_t i) {
    IL_FAULT_SCOPE(i);
    std::vector<CheckResult> col(count);
    monitors_[i].advance(count, col.data());
    for (std::size_t k = 0; k < count; ++k) block_[k][i] = std::move(col[k]);
  };
  try {
    if (pool_ == nullptr || monitors <= 1) {
      for (std::size_t i = 0; i < monitors; ++i) column(i);
    } else {
      pool_->run(monitors, column);
    }
  } catch (...) {
    poisoned_ = true;
    throw;
  }
  states_fed_ += count;
  for (std::size_t i = 0; i < monitors; ++i) {
    axioms_checked_ += monitors_[i].spec().all().size() * count;
  }
  for (const auto& row : block_) {
    for (const CheckResult& r : row) axioms_failed_ += r.failed.size();
  }
  if (!block_.empty()) verdicts_ = block_.back();
  return block_;
}

const StreamStats& BatchMonitor::stream_stats() const {
  stream_stats_ = StreamStats{};
  stream_stats_.monitors = monitors_.size();
  stream_stats_.threads = pool_ ? pool_->size() : 0;
  stream_stats_.states = states_fed_;
  stream_stats_.verdicts = states_fed_ * monitors_.size();
  stream_stats_.axioms_checked = axioms_checked_;
  stream_stats_.axioms_failed = axioms_failed_;
  stream_stats_.trace_bytes = trace_->bytes();
  for (const Monitor& m : monitors_) add_monitor_counters(stream_stats_, m);
  return stream_stats_;
}

std::vector<MonitorJob> jobs_for_specs(const std::vector<Spec>& specs, const Env& env) {
  std::vector<MonitorJob> jobs;
  jobs.reserve(specs.size());
  for (const Spec& spec : specs) jobs.push_back(MonitorJob{&spec, env, Monitor::Mode::Incremental});
  return jobs;
}

void add_lifetime_counters(StreamStats& out, const Monitor& m) {
  const EvalCache& c = m.cache();
  out.memo_hits += c.hits();
  out.memo_misses += c.misses();
  out.memo_inserts += c.inserts();
  const ObligationGraph& g = m.obligations();
  out.obligation_dirtied += g.total_dirtied();
  out.obligation_recomputed += g.recomputes();
  out.obligation_index_stabs += g.index_stabs();
  out.obligation_index_visited += g.index_visited();
  out.obligation_index_touched += g.touched_total();
  out.gc_sweeps += g.gc_sweeps();
  out.gc_marked += g.gc_marked();
  out.gc_freed += g.gc_freed();
  out.gc_freed_bytes += g.gc_freed_bytes();
  out.gc_orphans += g.orphan_unlinks();
}

void add_monitor_counters(StreamStats& out, const Monitor& m) {
  add_lifetime_counters(out, m);
  const EvalCache& c = m.cache();
  out.memo_entries += c.size();
  out.memo_bytes += c.bytes();
  const ObligationGraph& g = m.obligations();
  out.obligation_entries += g.size();
  out.obligation_settled += g.settled_count();
  out.obligation_open += g.open_count();
  out.obligation_edges += g.edges();
  out.obligation_bytes += g.bytes();
  out.obligation_index_nodes += g.index_nodes();
}

}  // namespace engine
}  // namespace il
