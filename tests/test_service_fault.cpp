// Fault-isolation coverage for MonitorService: a monitor whose evaluation
// throws is quarantined — its row slots render Verdict::Faulted carrying the
// captured exception — while every other monitor's verdict stream stays
// bit-identical to a fleet that never contained the faulty spec, across
// batch sizes 1/4/16 x shards 1/2/4 x pool widths 1/2/4.  The organic
// thrower needs no build flag: `[] (boom = 1 -> $unbound > 0)` evaluates its
// unbound meta variable (std::invalid_argument) exactly when a state with
// boom=1 arrives, and short-circuits safely on every other state.  On top
// of that: the reinstate lifecycle (backoff gate, retry budget, rebuild
// failure), the byte-budget degradation ladder (GC -> Scratch demotion ->
// quarantine), decide() errors not poisoning ingest, and —
// under IL_FAULT_INJECTION — per-site differentials for the injected
// harness plus a seeded soak (IL_FAULT_SOAK_SECONDS bounds it).
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "il.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"
#include "util/fault.h"

namespace il {
namespace {

/// A spec that throws organically: the implication short-circuits until a
/// state carries boom=1, whereupon the unbound meta variable $unbound
/// throws std::invalid_argument from predicate evaluation.
Spec boom_spec() {
  Spec s;
  s.name = "boom";
  s.axioms.push_back(Axiom{"no_boom", parse_formula("[] (boom = 1 -> $unbound > 0)")});
  return s;
}

/// The mutex run with boom=1 spliced onto state `boom_at` (absent keys read
/// 0, so every other state is safe for the boom spec).
Trace boom_trace(std::size_t boom_at, std::size_t entries = 4) {
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = entries;
  const Trace base = sys::run_mutex(mc);
  std::vector<State> states = base.states();
  if (boom_at < states.size()) states[boom_at].set("boom", 1);
  return Trace(std::move(states));
}

struct FleetResult {
  std::vector<VerdictRow> rows;
  ServiceStats stats;
};

/// Runs `trace` through a fleet of three mutex monitors with (optionally)
/// a boom monitor registered second, so the victim sits between survivors
/// in rank order.
FleetResult run_fleet(const Trace& trace, bool with_victim, std::size_t batch,
                      std::size_t shards, std::size_t threads,
                      MonitorId* victim_out = nullptr) {
  const Spec mutex_spec = sys::mutex_spec(3);
  const Spec victim_spec = boom_spec();
  Options opts;
  opts.num_threads = threads;
  opts.num_shards = shards;
  opts.max_epoch_batch = batch;
  opts.queue_capacity = trace.size() + 8;
  FleetResult out;
  MonitorService service(opts);
  service.pause();
  service.register_spec(mutex_spec);
  if (with_victim) {
    const MonitorId victim = service.register_spec(victim_spec);
    if (victim_out != nullptr) *victim_out = victim;
  }
  service.register_spec(mutex_spec, {}, Monitor::Mode::Scratch);
  service.register_spec(mutex_spec);
  for (const State& s : trace.states()) service.append(s);
  service.resume();
  service.flush();
  out.stats = service.stats();
  out.rows = service.drain();
  return out;
}

/// Asserts the survivors' verdicts in `got` (victim slots removed) equal
/// the victimless fleet's rows bit for bit.
void expect_survivors_match(const std::vector<VerdictRow>& got, MonitorId victim,
                            const std::vector<VerdictRow>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].stream, want[k].stream) << label << " row " << k;
    ASSERT_EQ(got[k].seq, want[k].seq) << label << " row " << k;
    std::vector<std::size_t> survivors;  ///< indices into got[k].verdicts
    for (std::size_t i = 0; i < got[k].verdicts.size(); ++i) {
      if (got[k].verdicts[i].id != victim) survivors.push_back(i);
    }
    ASSERT_EQ(survivors.size(), want[k].verdicts.size()) << label << " row " << k;
    for (std::size_t j = 0; j < survivors.size(); ++j) {
      const ServiceVerdict& v = got[k].verdicts[survivors[j]];
      ASSERT_EQ(got[k].verdict_at(survivors[j]) == Verdict::Faulted, false)
          << label << " row " << k << " slot " << j;
      ASSERT_EQ(v.result.ok, want[k].verdicts[j].result.ok)
          << label << " row " << k << " slot " << j;
      ASSERT_EQ(v.result.failed, want[k].verdicts[j].result.failed)
          << label << " row " << k << " slot " << j;
    }
  }
}

TEST(ServiceFault, QuarantineIsolatesTheFaultyMonitorAcrossGrids) {
  const Trace trace = boom_trace(3);
  ASSERT_GE(trace.size(), 6u);

  // Reference: the same fleet that never contained the faulty spec.
  const FleetResult reference = run_fleet(trace, false, 1, 1, 1);
  ASSERT_EQ(reference.rows.size(), trace.size());
  EXPECT_EQ(reference.stats.quarantines, 0u);

  for (const std::size_t batch : {1u, 4u, 16u}) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        MonitorId victim = 0;
        const FleetResult got = run_fleet(trace, true, batch, shards, threads, &victim);
        const std::string label = "batch " + std::to_string(batch) + " shards " +
                                  std::to_string(shards) + " threads " +
                                  std::to_string(threads);
        expect_survivors_match(got.rows, victim, reference.rows, label);
        EXPECT_EQ(got.stats.quarantines, 1u) << label;
        EXPECT_EQ(got.stats.monitors_quarantined, 1u) << label;
        EXPECT_EQ(got.stats.monitors_resident, 4u) << label;
        // Every row still carries the victim's slot, and from the faulting
        // block on it renders Faulted.
        for (const VerdictRow& row : got.rows) {
          ASSERT_EQ(row.verdicts.size(), 4u) << label;
        }
        EXPECT_EQ(got.rows.back().verdicts[1].id, victim) << label;
        EXPECT_EQ(got.rows.back().verdict_at(1), Verdict::Faulted) << label;
      }
    }
  }
}

TEST(ServiceFault, FaultedRowsCarryTheQuarantiningException) {
  const Trace trace = boom_trace(2);
  MonitorId victim = 0;
  const FleetResult got = run_fleet(trace, true, 1, 1, 1, &victim);

  // With per-state epochs the victim's rows are Ok before the boom state
  // and Faulted from it on; the parked exception rides every Faulted row.
  bool saw_faulted = false;
  for (std::size_t k = 0; k < got.rows.size(); ++k) {
    const ServiceVerdict& v = got.rows[k].verdicts[1];
    ASSERT_EQ(v.id, victim);
    if (k < 2) {
      EXPECT_EQ(got.rows[k].verdict_at(1), Verdict::Ok) << "row " << k;
      EXPECT_EQ(got.rows[k].fault_at(1), nullptr) << "row " << k;
      continue;
    }
    saw_faulted = true;
    EXPECT_EQ(got.rows[k].verdict_at(1), Verdict::Faulted) << "row " << k;
    EXPECT_FALSE(v.result.ok) << "row " << k;
    const std::exception_ptr fault = got.rows[k].fault_at(1);
    ASSERT_NE(fault, nullptr) << "row " << k;
    try {
      std::rethrow_exception(fault);
      FAIL() << "fault did not rethrow";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unbound meta variable"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_faulted);
}

TEST(ServiceFault, ThrowAtEveryBatchPositionNeverTearsTheFleet) {
  // The boom state walks every offset of a 4-state block: wherever the
  // throw lands inside append_block, the survivors are untouched and the
  // victim's whole failing block renders Faulted.
  const FleetResult reference = run_fleet(boom_trace(0, 6), false, 4, 2, 2);
  for (std::size_t boom_at = 0; boom_at < 8; ++boom_at) {
    const Trace trace = boom_trace(boom_at, 6);
    ASSERT_GT(trace.size(), boom_at);
    MonitorId victim = 0;
    const FleetResult got = run_fleet(trace, true, 4, 2, 2, &victim);
    const std::string label = "boom at " + std::to_string(boom_at);
    expect_survivors_match(got.rows, victim, reference.rows, label);
    EXPECT_EQ(got.stats.quarantines, 1u) << label;
    // From the block containing the boom state on, the victim's slot is
    // Faulted; the block boundary is boom_at rounded down to a multiple of
    // the batch (the queue was fully loaded under pause()).
    const std::size_t block_start = (boom_at / 4) * 4;
    for (std::size_t k = 0; k < got.rows.size(); ++k) {
      EXPECT_EQ(got.rows[k].verdict_at(1) == Verdict::Faulted, k >= block_start)
          << label << " row " << k;
    }
  }
}

TEST(ServiceFault, ReinstateRebuildsAfterBackoffAndHonorsTheRetryBudget) {
  const Spec victim_spec = boom_spec();
  Options opts;
  opts.num_threads = 1;
  opts.num_shards = 1;
  opts.max_epoch_batch = 1;
  opts.max_reinstate_attempts = 2;
  MonitorService service(opts);
  const MonitorId victim = service.register_spec(victim_spec);

  const Trace trace = boom_trace(0, 2);
  State safe = trace.states()[1];  // no boom key
  State boom = trace.states()[0];  // boom=1

  // Fault 1: quarantined with zero stream states since the fault.
  service.append(boom);
  service.flush();
  EXPECT_EQ(service.stats().quarantines, 1u);
  EXPECT_EQ(service.stats().monitors_quarantined, 1u);

  // Immediate reinstate: the backoff clock (2^0 = 1 state) has not run.
  service.reinstate(victim);
  service.flush();
  EXPECT_EQ(service.stats().reinstate_refused, 1u);
  EXPECT_EQ(service.stats().reinstates, 0u);

  // One quarantined state later the clock has run; the rebuild succeeds
  // and the fresh monitor verdicts normally from the next state on.
  service.append(safe);
  service.reinstate(victim);
  service.append(safe);
  service.flush();
  EXPECT_EQ(service.stats().reinstates, 1u);
  EXPECT_EQ(service.stats().monitors_quarantined, 0u);
  {
    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].verdict_at(0), Verdict::Faulted);
    EXPECT_EQ(rows[1].verdict_at(0), Verdict::Faulted);  // pre-reinstate
    EXPECT_EQ(rows[2].verdict_at(0), Verdict::Ok);       // rebuilt
  }

  // Fault 2: backoff doubles (2^1 = 2 states).
  service.append(boom);
  service.append(safe);
  service.reinstate(victim);  // only 1 state since fault: refused
  service.append(safe);
  service.reinstate(victim);  // 2 states since fault: accepted
  service.flush();
  EXPECT_EQ(service.stats().quarantines, 2u);
  EXPECT_EQ(service.stats().reinstate_refused, 2u);
  EXPECT_EQ(service.stats().reinstates, 2u);

  // Fault 3 exceeds max_reinstate_attempts = 2: refused forever.
  service.append(boom);
  for (int k = 0; k < 8; ++k) service.append(safe);
  service.reinstate(victim);
  service.flush();
  EXPECT_EQ(service.stats().quarantines, 3u);
  EXPECT_EQ(service.stats().reinstate_refused, 3u);
  EXPECT_EQ(service.stats().reinstates, 2u);
  EXPECT_EQ(service.stats().monitors_quarantined, 1u);

  // Unknown and not-quarantined ids are counted misses, never errors.
  service.reinstate(9999);
  service.flush();
  EXPECT_EQ(service.stats().reinstate_misses, 1u);

  // A quarantined monitor retires like any other.
  service.retire(victim);
  service.flush();
  EXPECT_EQ(service.stats().monitors_quarantined, 0u);
  EXPECT_EQ(service.stats().monitors_retired, 1u);
}

TEST(ServiceFault, BudgetLadderDegradesOneRungPerEpoch) {
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace run = sys::run_mutex(mc);
  ASSERT_GE(run.size(), 5u);

  // Reference: the same spec, no budget.
  const auto reference = [&]() {
    Options opts;
    opts.num_threads = 1;
    opts.max_epoch_batch = 1;
    MonitorService service(opts);
    service.register_spec(sys::mutex_spec(3));
    for (const State& s : run.states()) service.append(s);
    service.flush();
    return service.drain();
  }();

  Options opts;
  opts.num_threads = 1;
  opts.num_shards = 1;
  opts.max_epoch_batch = 1;
  opts.obligation_byte_budget = 1;  // always over budget: one rung per epoch
  MonitorService service(opts);
  service.register_spec(sys::mutex_spec(3));
  for (const State& s : run.states()) service.append(s);
  service.flush();

  // Epoch 1 forced an obligation GC, epoch 2 demoted to Scratch, epoch 3
  // quarantined; the rows of those epochs were evaluated (degradation
  // applies from the next epoch) and stay bit-identical to the unbudgeted
  // monitor — Scratch is the reference semantics.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.budget_gcs, 1u);
  EXPECT_EQ(stats.budget_demotions, 1u);
  EXPECT_EQ(stats.budget_quarantines, 1u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.monitors_quarantined, 1u);

  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_EQ(rows.size(), run.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const ServiceVerdict& v = rows[k].verdicts[0];
    if (k < 3) {
      EXPECT_NE(rows[k].verdict_at(0), Verdict::Faulted) << "row " << k;
      EXPECT_EQ(v.result.ok, reference[k].verdicts[0].result.ok) << "row " << k;
      EXPECT_EQ(v.result.failed, reference[k].verdicts[0].result.failed) << "row " << k;
    } else {
      EXPECT_EQ(rows[k].verdict_at(0), Verdict::Faulted) << "row " << k;
      const std::exception_ptr fault = rows[k].fault_at(0);
      ASSERT_NE(fault, nullptr) << "row " << k;
      try {
        std::rethrow_exception(fault);
        FAIL() << "fault did not rethrow";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("obligation_byte_budget"), std::string::npos);
      }
    }
  }

  // The budget quarantine feeds the same reinstate machinery.
  service.reinstate(rows[0].verdicts[0].id);
  service.flush();
  EXPECT_EQ(service.stats().reinstates, 1u);
}

TEST(ServiceFault, RegistrationAroundAQuarantineStaysSequenced) {
  // Registering after a quarantine must keep the sequenced-membership
  // contract: the late monitor observes exactly the states appended after
  // its registration, and the quarantined slot keeps its rank.
  const Trace trace = boom_trace(1);
  Options opts;
  opts.num_threads = 2;
  opts.num_shards = 2;
  MonitorService service(opts);
  const MonitorId victim = service.register_spec(boom_spec());
  const MonitorId survivor = service.register_spec(sys::mutex_spec(3));
  for (const State& s : trace.states()) service.append(s);
  service.flush();
  EXPECT_EQ(service.stats().quarantines, 1u);
  // Registering *after* the quarantine still works and the new monitor
  // verdicts from its registration point on.
  const MonitorId late = service.register_spec(sys::mutex_spec(3));
  service.append(trace.states()[0]);
  service.flush();
  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_FALSE(rows.empty());
  const VerdictRow& last = rows.back();
  ASSERT_EQ(last.verdicts.size(), 3u);
  EXPECT_EQ(last.verdicts[0].id, victim);
  EXPECT_EQ(last.verdict_at(0), Verdict::Faulted);
  EXPECT_EQ(last.verdicts[1].id, survivor);
  EXPECT_NE(last.verdict_at(1), Verdict::Faulted);
  EXPECT_EQ(last.verdicts[2].id, late);
  EXPECT_NE(last.verdict_at(2), Verdict::Faulted);
}

TEST(ServiceFault, DecideErrorsDoNotPoisonIngest) {
  Options opts;
  opts.num_threads = 2;
  opts.num_shards = 2;
  MonitorService service(opts);
  service.register_spec(sys::mutex_spec(3));

  // A malformed decision job throws on the decide() caller — inside the
  // pool run — and must leave the ingest side (and the pool) untouched.
  std::vector<engine::DecisionJob> bad(2);
  EXPECT_THROW(service.decide(bad), std::invalid_argument);

  sys::MutexRunConfig mc;
  const Trace run = sys::run_mutex(mc);
  for (const State& s : run.states()) service.append(s);
  service.flush();  // no deadlock, no poison
  EXPECT_FALSE(service.poisoned());
  EXPECT_EQ(service.drain().size(), run.size());
}

/// (name, value) of every Lifetime row of the counter tables in one
/// snapshot: IL_STREAM_COUNTERS for the fleet totals and for each shard,
/// IL_SHARD_SLOT_COUNTERS / IL_SHARD_BUDGET_COUNTERS for the service, and
/// the stream stores' trace_dropped (fleet sum and per stream).  The table
/// rows come from the tables, so counters added there later are covered by
/// the monotonicity tests below without editing them.  Gauges (resident
/// entries, bytes, monitors) legitimately fall when a monitor leaves.
using CounterRows = std::vector<std::pair<std::string, std::size_t>>;

void add_lifetime_rows(CounterRows& out, const std::string& prefix, const StreamStats& s) {
  s.for_each_counter(
      [&](const char* group, const char* key, engine::CounterKind kind, std::size_t v) {
        if (kind == engine::CounterKind::Lifetime) {
          out.emplace_back(prefix + group + "." + key, v);
        }
      });
}

CounterRows lifetime_rows(const MonitorService& service) {
  const ServiceStats stats = service.stats();
  CounterRows rows;
  add_lifetime_rows(rows, "totals.", stats.totals);
  for (std::size_t i = 0; i < service.shards(); ++i) {
    add_lifetime_rows(rows, "shard" + std::to_string(i) + ".", service.shard_stats(i));
  }
#define IL_LIFETIME_ROW(field, key, kind)                                     \
  if constexpr (engine::CounterKind::kind == engine::CounterKind::Lifetime) { \
    rows.emplace_back("service." #field, stats.field);                        \
  }
  IL_SHARD_SLOT_COUNTERS(IL_LIFETIME_ROW)
  IL_SHARD_BUDGET_COUNTERS(IL_LIFETIME_ROW)
#undef IL_LIFETIME_ROW
  rows.emplace_back("service.trace_dropped", stats.trace_dropped);
  for (std::size_t i = 0; i < stats.stream_trace_dropped.size(); ++i) {
    rows.emplace_back("service.stream" + std::to_string(i) + ".trace_dropped",
                      stats.stream_trace_dropped[i]);
  }
  return rows;
}

/// Expects no row of `now` below its value in `last`, then advances `last`.
void expect_monotone(CounterRows& last, CounterRows now, const std::string& step) {
  ASSERT_EQ(now.size(), last.size());
  for (std::size_t r = 0; r < now.size(); ++r) {
    ASSERT_EQ(now[r].first, last[r].first);
    EXPECT_GE(now[r].second, last[r].second) << now[r].first << " went backwards on " << step;
  }
  last = std::move(now);
}

TEST(ServiceFault, LifetimeCountersAreMonotoneAcrossRetireQuarantineReinstate) {
  // Past two settled-cache windows, so the incremental monitors' caches
  // have evicted by the time they retire or quarantine.
  constexpr std::size_t kBoom = 2 * Monitor::kSettledWindow + 30;
  const Trace trace = boom_trace(kBoom, 10);
  ASSERT_GT(trace.size(), kBoom + 12);

  Options opts;
  opts.num_threads = 2;
  opts.num_shards = 2;
  opts.max_epoch_batch = 4;
  opts.obligation_gc_fraction = 0.05;  // sweep often, so departures carry gc counts
  MonitorService service(opts);
  const MonitorId first = service.register_spec(sys::mutex_spec(3));
  service.register_spec(sys::mutex_spec(3));
  const MonitorId victim = service.register_spec(boom_spec());
  service.register_spec(sys::mutex_spec(3), {}, Monitor::Mode::Scratch);

  CounterRows last = lifetime_rows(service);
  const auto feed = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) service.append(trace.states()[k]);
    service.flush();
  };

  feed(0, kBoom);
  expect_monotone(last, lifetime_rows(service), "append");
  // The departing monitors have real history in every counter family.
  const StreamStats totals = service.stats().totals;
  EXPECT_GT(totals.obligation_index_stabs, 0u);
  EXPECT_GT(totals.gc_sweeps, 0u);
  EXPECT_GT(totals.gc_freed, 0u);
  EXPECT_GT(totals.memo_hits, 0u);
  EXPECT_GT(totals.memo_evicted, 0u);

  service.retire(first);
  service.flush();
  expect_monotone(last, lifetime_rows(service), "retire");

  feed(kBoom, kBoom + 4);
  EXPECT_EQ(service.stats().quarantines, 1u);
  expect_monotone(last, lifetime_rows(service), "quarantine");

  feed(kBoom + 4, kBoom + 5);  // sits out the one-state backoff
  service.reinstate(victim);
  service.flush();
  EXPECT_EQ(service.stats().reinstates, 1u);
  expect_monotone(last, lifetime_rows(service), "reinstate");

  feed(kBoom + 5, trace.size());
  expect_monotone(last, lifetime_rows(service), "append after reinstate");
}

/// The same table-driven check down the byte-budget ladder: with a budget
/// of one byte every incremental monitor is GC'd, demoted to Scratch and
/// quarantined on consecutive epochs, one on each of two streams, and one
/// is retired mid-ladder and the other reinstated after its backoff.
TEST(ServiceFault, LifetimeCountersAreMonotoneDownTheBudgetLadder) {
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace run = sys::run_mutex(mc);
  ASSERT_GE(run.size(), 8u);

  // The mutex spec plus a per-state invariant whose quantified body stores
  // a settled-cache entry from the first state on, so a demotion has
  // entries to drop (counted in memo.evicted).
  Spec spec = sys::mutex_spec(3);
  spec.axioms.push_back({"boolean_cs1", parse_formula("[] exists a in {0,1} . cs1 = $a")});

  Options opts;
  opts.num_threads = 2;
  opts.num_shards = 2;
  opts.max_epoch_batch = 1;
  opts.obligation_byte_budget = 1;  // always over budget: one rung per epoch
  MonitorService service(opts);
  const StreamId other = service.open_stream("other");
  const MonitorId victim = service.register_spec(spec);
  const MonitorId leaver = service.register_spec(other, spec);
  service.flush();
  CounterRows last = lifetime_rows(service);
  const auto step = [&](const std::string& name) {
    service.flush();
    expect_monotone(last, lifetime_rows(service), name);
  };

  std::size_t k = 0;
  service.append(run.states()[k]);
  service.append(other, run.states()[k++]);
  step("append (rung 1: GC)");
  service.retire(leaver);  // active at retirement: its counters fold
  step("retire");
  service.append(run.states()[k++]);
  step("append (rung 2: Scratch)");
  service.append(run.states()[k++]);
  step("append (rung 3: quarantine)");
  EXPECT_EQ(service.stats().monitors_quarantined, 1u);
  for (int i = 0; i < 2; ++i) {  // sit out the backoff window
    service.append(run.states()[k++]);
    step("append while quarantined");
  }
  service.reinstate(victim);
  step("reinstate");
  while (k < run.size()) {
    service.append(run.states()[k++]);
    step("append after reinstate");
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.reinstates, 1u);
  EXPECT_EQ(stats.monitors_retired, 1u);
  EXPECT_EQ(stats.budget_gcs, 3u);  // both first epochs, and the reinstated one
  EXPECT_EQ(stats.budget_demotions, 2u);
  EXPECT_EQ(stats.budget_quarantines, 2u);
  // Demotion released the settled caches' entries, and the evicted count
  // survived the quarantines that followed.
  EXPECT_GT(stats.totals.memo_evicted, 0u);
}

#ifdef IL_FAULT_INJECTION

using util::FaultInjector;

/// Disarms everything on scope exit so one test's arms never leak into the
/// next (the injector is process-wide).
struct ArmGuard {
  ~ArmGuard() { FaultInjector::instance().disarm_all(); }
};

TEST(ServiceFaultInjection, PerSiteFaultsQuarantineOnlyTheVictim) {
  ArmGuard guard;
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace trace = sys::run_mutex(mc);

  // Reference: two-survivor fleet, nothing armed.
  const auto reference = [&](std::size_t batch, std::size_t shards, std::size_t threads) {
    Options opts;
    opts.num_threads = threads;
    opts.num_shards = shards;
    opts.max_epoch_batch = batch;
    opts.queue_capacity = trace.size() + 8;
    MonitorService service(opts);
    service.pause();
    service.register_spec(sys::mutex_spec(3));
    service.register_spec(sys::mutex_spec(3), {}, Monitor::Mode::Scratch);
    for (const State& s : trace.states()) service.append(s);
    service.resume();
    service.flush();
    return service.drain();
  };

  for (const char* site : {"monitor.append", "monitor.verdict", "incremental.expand"}) {
    for (const std::size_t batch : {1u, 4u, 16u}) {
      for (const std::size_t shards : {1u, 2u, 4u}) {
        for (const std::size_t threads : {1u, 2u, 4u}) {
          const std::string label = std::string(site) + " batch " + std::to_string(batch) +
                                    " shards " + std::to_string(shards) + " threads " +
                                    std::to_string(threads);
          Options opts;
          opts.num_threads = threads;
          opts.num_shards = shards;
          opts.max_epoch_batch = batch;
          opts.queue_capacity = trace.size() + 8;
          MonitorService service(opts);
          service.pause();
          const MonitorId a = service.register_spec(sys::mutex_spec(3));
          const MonitorId victim = service.register_spec(sys::mutex_spec(3));
          const MonitorId b =
              service.register_spec(sys::mutex_spec(3), {}, Monitor::Mode::Scratch);
          (void)a;
          (void)b;
          // Key the site to the victim's id: at any pool width only hits
          // made while a worker advances the victim count, so the fault
          // lands at the same logical point on every run.
          const std::uint64_t fired_before = FaultInjector::instance().fired(site);
          FaultInjector::instance().arm_nth(site, 3, victim);
          for (const State& s : trace.states()) service.append(s);
          service.resume();
          service.flush();
          FaultInjector::instance().disarm_all();

          const ServiceStats stats = service.stats();
          const std::vector<VerdictRow> rows = service.drain();
          // Skip only if this run never reached the armed trigger (fired()
          // is a lifetime counter; compare against the pre-run snapshot).
          if (FaultInjector::instance().fired(site) == fired_before) continue;
          EXPECT_EQ(stats.quarantines, 1u) << label;
          EXPECT_FALSE(service.poisoned()) << label;
          const std::vector<VerdictRow> want = reference(batch, shards, threads);
          expect_survivors_match(rows, victim, want, label);
          EXPECT_EQ(rows.back().verdict_at(1), Verdict::Faulted) << label;
          const std::exception_ptr fault = rows.back().fault_at(1);
          ASSERT_NE(fault, nullptr) << label;
          try {
            std::rethrow_exception(fault);
            FAIL() << label;
          } catch (const util::FaultError& e) {
            EXPECT_NE(std::string(e.what()).find(site), std::string::npos) << label;
          }
        }
      }
    }
  }
}

TEST(ServiceFaultInjection, PoolDispatchFaultPoisonsTheServiceCleanly) {
  ArmGuard guard;
  sys::MutexRunConfig mc;
  const Trace trace = sys::run_mutex(mc);
  Options opts;
  opts.num_threads = 4;
  opts.num_shards = 4;
  opts.queue_capacity = trace.size() + 8;
  MonitorService service(opts);
  service.pause();
  for (int k = 0; k < 4; ++k) service.register_spec(sys::mutex_spec(3));
  for (const State& s : trace.states()) service.append(s);
  FaultInjector::instance().arm_nth("pool.dispatch", 1);
  service.resume();
  EXPECT_THROW(service.flush(), ServiceFault);
  FaultInjector::instance().disarm_all();

  // Every producer-facing entry fails fast with the stable wrapper; the
  // non-blocking probe reports the distinct status instead of throwing.
  EXPECT_TRUE(service.poisoned());
  EXPECT_EQ(service.try_append(trace.states()[0]), AppendStatus::Poisoned);
  EXPECT_THROW(service.append(trace.states()[0]), ServiceFault);
  EXPECT_THROW(service.pause(), ServiceFault);
  try {
    service.flush();
    FAIL() << "flush on a poisoned service must throw";
  } catch (const ServiceFault& e) {
    EXPECT_NE(std::string(e.what()).find("pool.dispatch"), std::string::npos);
  }
  // Destructor joins cleanly (no hang, no leaked workers): end of scope.
}

TEST(ServiceFaultInjection, CommandLoopFaultPoisonsTheServiceCleanly) {
  ArmGuard guard;
  sys::MutexRunConfig mc;
  const Trace trace = sys::run_mutex(mc);
  Options opts;
  opts.num_threads = 2;
  MonitorService service(opts);
  service.register_spec(sys::mutex_spec(3));
  service.flush();
  FaultInjector::instance().arm_nth("service.command", 1);
  service.append(trace.states()[0]);
  EXPECT_THROW(service.flush(), ServiceFault);
  FaultInjector::instance().disarm_all();
  EXPECT_TRUE(service.poisoned());
  EXPECT_EQ(service.try_append(trace.states()[0]), AppendStatus::Poisoned);
}

TEST(ServiceFaultInjection, RegisterFaultQuarantinesAtBirth) {
  ArmGuard guard;
  sys::MutexRunConfig mc;
  const Trace trace = sys::run_mutex(mc);
  Options opts;
  opts.num_threads = 1;
  opts.num_shards = 1;
  opts.max_epoch_batch = 1;
  MonitorService service(opts);
  const MonitorId survivor = service.register_spec(sys::mutex_spec(3));
  // Drain the survivor's Register barrier before arming: the nth=1 trigger
  // must land on the victim's build, not a still-queued survivor's.
  service.flush();
  FaultInjector::instance().arm_nth("service.register", 1);
  const MonitorId victim = service.register_spec(sys::mutex_spec(3));
  service.append(trace.states()[0]);
  service.flush();
  FaultInjector::instance().disarm_all();

  // The build failed at the barrier: quarantined at birth, fleet intact.
  EXPECT_FALSE(service.poisoned());
  EXPECT_EQ(service.stats().quarantines, 1u);
  EXPECT_EQ(service.stats().monitors_quarantined, 1u);
  {
    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].verdicts.size(), 2u);
    EXPECT_EQ(rows[0].verdicts[0].id, survivor);
    EXPECT_NE(rows[0].verdict_at(0), Verdict::Faulted);
    EXPECT_EQ(rows[0].verdicts[1].id, victim);
    EXPECT_EQ(rows[0].verdict_at(1), Verdict::Faulted);
  }

  // With the arm gone and the backoff (1 state) elapsed, reinstate builds
  // the monitor for real.
  service.reinstate(victim);
  service.append(trace.states()[1]);
  service.flush();
  EXPECT_EQ(service.stats().reinstates, 1u);
  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].verdict_at(1), Verdict::Faulted);
}

TEST(ServiceFaultInjection, SeededSoakSurvivesRandomFaults) {
  ArmGuard guard;
  // Bounded by wall clock: ~2s locally, longer in CI via the env knob.
  double seconds = 2.0;
  if (const char* env = std::getenv("IL_FAULT_SOAK_SECONDS")) {
    seconds = std::atof(env);
    if (seconds <= 0.0) seconds = 2.0;
  }
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace mutex_run = sys::run_mutex(mc);
  sys::QueueRunConfig qc;
  qc.seed = 1;
  qc.values = 3;
  const Trace queue_run = sys::run_fifo_queue(qc);
  const Spec specs[] = {sys::mutex_spec(3), sys::queue_spec(std::vector<std::int64_t>{1, 2, 3})};
  const Trace* traces[] = {&mutex_run, &queue_run};
  const char* sites[] = {"monitor.append", "monitor.verdict", "incremental.expand",
                         "service.register"};

  std::mt19937_64 rng(20260808);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<long>(seconds * 1000));
  std::size_t iterations = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    ++iterations;
    const std::size_t which = rng() % 2;
    const Trace& trace = *traces[which];
    Options opts;
    opts.num_threads = 1 + rng() % 4;
    opts.num_shards = 1 + rng() % 4;
    opts.max_epoch_batch = 1 + rng() % 16;
    opts.queue_capacity = trace.size() + 8;

    // Reference rows for the survivor fleet, nothing armed.
    std::vector<MonitorId> ids;
    MonitorService reference(opts);
    reference.pause();
    for (int m = 0; m < 3; ++m) reference.register_spec(specs[which]);
    for (const State& s : trace.states()) reference.append(s);
    reference.resume();
    reference.flush();
    const std::vector<VerdictRow> want = reference.drain();

    MonitorService service(opts);
    service.pause();
    for (int m = 0; m < 3; ++m) ids.push_back(service.register_spec(specs[which]));
    const MonitorId victim = ids[rng() % ids.size()];
    const char* site = sites[rng() % 4];
    if (rng() % 2 == 0) {
      FaultInjector::instance().arm_nth(site, 1 + rng() % 8, victim);
    } else {
      FaultInjector::instance().arm_probability(site, 0.05, rng(), victim);
    }
    for (const State& s : trace.states()) service.append(s);
    service.resume();
    service.flush();
    FaultInjector::instance().disarm_all();

    ASSERT_FALSE(service.poisoned());
    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), want.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      ASSERT_EQ(rows[k].verdicts.size(), want[k].verdicts.size());
      for (std::size_t j = 0; j < rows[k].verdicts.size(); ++j) {
        if (rows[k].verdicts[j].id == victim) continue;  // may be Faulted
        ASSERT_EQ(rows[k].verdict_at(j) == Verdict::Faulted, false)
            << "iteration " << iterations << " row " << k;
        ASSERT_EQ(rows[k].verdicts[j].result.ok, want[k].verdicts[j].result.ok)
            << "iteration " << iterations << " row " << k;
        ASSERT_EQ(rows[k].verdicts[j].result.failed, want[k].verdicts[j].result.failed)
            << "iteration " << iterations << " row " << k;
      }
    }
  }
  EXPECT_GT(iterations, 0u);
}

#endif  // IL_FAULT_INJECTION

}  // namespace
}  // namespace il
