// Store trimming by read floor: a MonitorService keeps each stream's store
// only from the lowest position its monitors can still read
// (Monitor::read_floor), and TraceWindow::at refuses any read below a
// window's published floor — so every row below, compared bit-identically
// with a standalone monitor fed the same states, also checks that no
// verdict read a trimmed state.
//
// The long-horizon fleet (two suffix-sensitive interval formulas at lo 0,
// a [] over an interval search, a pending response) must keep its store
// flat in the stream's length; the mutual-exclusion probe fleet and a
// suffix-insensitive axiom must not pin position 0; Scratch monitors and
// budgeted fleets, which may re-read their whole window, pin their base.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "il.h"
#include "systems/ab_protocol.h"
#include "systems/arbiter.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"
#include "systems/selftimed.h"

namespace il {
namespace {

Spec spec_of(const std::string& name, const std::string& axiom, FormulaPtr formula) {
  Spec s;
  s.name = name;
  s.axioms.push_back(Axiom{axiom, std::move(formula)});
  return s;
}

/// An interval from a suffix-sensitive event search to the end of the
/// trace, whose body waits for a state a passing mutex run never reaches:
/// the search relocates on every entry of `moving`, and the <> stays open.
Spec open_tail_spec(const std::string& name, bool forward, const std::string& moving,
                    const std::string& other) {
  TermPtr search = t::event(f::always(f::negate(f::atom(moving))));
  TermPtr term = forward ? t::fwd(search, nullptr) : t::bwd(search, nullptr);
  return spec_of(name, "tail",
                 f::interval(term, f::eventually(f::conj(f::atom(moving), f::atom(other)))));
}

std::vector<Spec> long_horizon_specs() {
  return {open_tail_spec("relocate", true, "cs1", "cs2"),
          open_tail_spec("latest", false, "cs2", "cs3"),
          spec_of("scan", "A1_scan_1_2", parse_formula("[] [ x1 <= cs1 ] <> !x2")),
          spec_of("pending", "entry", parse_formula("[] (x3 -> <> cs3)"))};
}

Trace mutex_stream(std::size_t steps) {
  sys::MutexRunConfig c;
  c.seed = 1;
  c.processes = 3;
  c.entries = steps;
  c.max_steps = steps;
  return sys::run_mutex(c);
}

/// Verdicts of a standalone monitor fed states [from, to) of `run` one at
/// a time.
std::vector<CheckResult> standalone(const Spec& spec, Monitor::Mode mode, const Trace& run,
                                    std::size_t from = 0, std::size_t to = ~std::size_t{0}) {
  Monitor m(spec, {}, mode);
  std::vector<CheckResult> out;
  to = std::min(to, run.size());
  for (std::size_t k = from; k < to; ++k) out.push_back(m.append(run.states()[k]));
  return out;
}

void expect_same(const CheckResult& got, const CheckResult& want, const std::string& at) {
  ASSERT_EQ(got.ok, want.ok) << at;
  ASSERT_EQ(got.failed, want.failed) << at;
}

std::vector<std::int64_t> domain(std::size_t n) {
  std::vector<std::int64_t> d;
  for (std::size_t i = 1; i <= n; ++i) d.push_back(static_cast<std::int64_t>(i));
  return d;
}

struct LongCase {
  std::string name;
  Spec spec;
  Trace run;
};

/// The case studies on runs long enough for floors to move (several
/// settled-cache windows), correct and misbehaving.
std::vector<LongCase> long_cases() {
  std::vector<LongCase> out;
  sys::MutexRunConfig mc;
  mc.entries = 24;
  mc.max_steps = 3000;
  out.push_back({"mutex", sys::mutex_spec(3), sys::run_mutex(mc)});
  out.push_back({"mutex_buggy", sys::mutex_spec(3), sys::run_mutex_buggy(mc)});
  out.push_back({"mutex_theorem", spec_of("exclusion", "theorem", sys::mutex_theorem(3)),
                 sys::run_mutex_buggy(mc)});
  sys::AbRunConfig ac;
  ac.seed = 7;
  ac.messages = 30;
  out.push_back({"ab_sender", sys::ab_sender_spec(domain(3)), sys::run_ab_protocol(ac).trace});
  out.push_back(
      {"ab_receiver", sys::ab_receiver_spec(domain(3)), sys::run_ab_protocol(ac).trace});
  sys::ArbiterRunConfig arc;
  arc.grants = 40;
  arc.max_steps = 3000;
  out.push_back({"arbiter", sys::arbiter_spec(), sys::run_arbiter(arc)});
  out.push_back({"arbiter_buggy", sys::arbiter_spec(), sys::run_arbiter_buggy(arc)});
  sys::SelfTimedRunConfig sc;
  sc.handshakes = 40;
  sc.max_steps = 3000;
  out.push_back({"request_ack", sys::request_ack_spec(), sys::run_request_ack(sc)});
  out.push_back({"request_ack_buggy", sys::request_ack_spec(), sys::run_request_ack_buggy(sc)});
  sys::QueueRunConfig qc;
  qc.values = 32;
  out.push_back({"queue", sys::queue_spec(domain(32)), sys::run_fifo_queue(qc)});
  return out;
}

TEST(StoreWindow, CaseStudiesOnLongRunsNeverReadBelowTheirFloors) {
  // Each incremental verdict below reads through a window whose floor the
  // monitor publishes as it runs, so a floor set too high throws.  The
  // verdicts match the scratch reference at checkpoints, and a service
  // that trims its store to the floors matches the standalone monitors
  // row by row across a register/retire schedule.
  for (const LongCase& c : long_cases()) {
    const std::size_t n = c.run.size();
    ASSERT_GT(n, 2 * Monitor::kSettledWindow) << c.name;
    const std::vector<CheckResult> inc = standalone(c.spec, Monitor::Mode::Incremental, c.run);
    Monitor scratch(c.spec, {}, Monitor::Mode::Scratch);
    for (std::size_t k = 0; k < n; ++k) {
      scratch.observe(c.run.states()[k]);
      if (k % 41 == 0 || k + 1 == n) {
        expect_same(scratch.current(), inc[k], c.name + " scratch seq " + std::to_string(k));
      }
    }

    const std::size_t join = n / 3;
    const std::size_t leave = 2 * n / 3;
    const std::vector<CheckResult> late =
        standalone(c.spec, Monitor::Mode::Incremental, c.run, join);
    Options opts;
    opts.num_threads = 2;
    opts.num_shards = 2;
    opts.max_epoch_batch = 7;
    opts.queue_capacity = n + 8;
    MonitorService service(opts);
    service.pause();
    const MonitorId first = service.register_spec(c.spec);
    MonitorId second = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == join) second = service.register_spec(c.spec);
      if (k == leave) service.retire(first);
      service.append(c.run.states()[k]);
    }
    service.resume();
    service.flush();
    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), n) << c.name;
    for (std::size_t k = 0; k < n; ++k) {
      const std::string at = c.name + " service seq " + std::to_string(k);
      std::size_t j = 0;
      if (k < leave) {
        ASSERT_EQ(rows[k].verdicts.at(j).id, first) << at;
        ASSERT_FALSE(rows[k].faulted_at(j)) << at;
        expect_same(rows[k].verdicts[j++].result, inc[k], at);
      }
      if (k >= join) {
        ASSERT_EQ(rows[k].verdicts.at(j).id, second) << at;
        ASSERT_FALSE(rows[k].faulted_at(j)) << at;
        expect_same(rows[k].verdicts[j++].result, late[k - join], at);
      }
      ASSERT_EQ(rows[k].verdicts.size(), j) << at;
    }
    EXPECT_EQ(service.stats().quarantines, 0u) << c.name;
  }
}

TEST(StoreWindow, LongHorizonFleetMatchesStandaloneAndKeepsTheStoreFlat) {
  const std::vector<Spec> specs = long_horizon_specs();
  const Trace run = mutex_stream(60000);
  const std::size_t n = run.size();
  constexpr std::size_t kEarly = 6000;
  ASSERT_GT(n, 10 * kEarly);
  std::vector<std::vector<CheckResult>> want;
  for (const Spec& spec : specs) want.push_back(standalone(spec, Monitor::Mode::Incremental, run));

  // Paused feeds fold every block to max_epoch_batch, so the floors, and
  // with them the store's size at each checkpoint, are deterministic.
  Options opts;
  opts.num_threads = 2;
  opts.num_shards = 2;
  opts.max_epoch_batch = 32;
  opts.queue_capacity = n + 8;
  MonitorService service(opts);
  std::vector<MonitorId> ids;
  for (const Spec& spec : specs) ids.push_back(service.register_spec(spec));
  std::size_t checked = 0;
  const auto feed_and_check = [&](std::size_t to) {
    service.pause();
    for (std::size_t k = checked; k < to; ++k) service.append(run.states()[k]);
    service.resume();
    service.flush();
    for (const VerdictRow& row : service.drain()) {
      const std::string at = "seq " + std::to_string(row.seq);
      ASSERT_EQ(row.seq, checked) << at;
      ASSERT_EQ(row.verdicts.size(), specs.size()) << at;
      for (std::size_t j = 0; j < specs.size(); ++j) {
        ASSERT_EQ(row.verdicts[j].id, ids[j]) << at;
        ASSERT_FALSE(row.faulted_at(j)) << at << " " << specs[j].name;
        ASSERT_EQ(row.verdicts[j].result.ok, want[j][checked].ok) << at << " " << specs[j].name;
        ASSERT_EQ(row.verdicts[j].result.failed, want[j][checked].failed) << at;
      }
      ++checked;
    }
  };

  feed_and_check(kEarly);
  const ServiceStats early = service.stats();
  feed_and_check(n);
  ASSERT_EQ(checked, n);
  const ServiceStats late = service.stats();
  EXPECT_EQ(late.quarantines, 0u);
  // The store is bounded by what the monitors can read, not by the stream.
  EXPECT_GT(early.trace_dropped, 0u);
  EXPECT_GT(late.trace_dropped, early.trace_dropped);
  EXPECT_LE(late.totals.trace_bytes, early.totals.trace_bytes * 5 / 4)
      << "store at " << n << " states: " << late.totals.trace_bytes << " bytes, at " << kEarly
      << ": " << early.totals.trace_bytes;
  EXPECT_LT(late.totals.trace_bytes, std::size_t{1} << 20);  // the whole stream: ~8 MB
  EXPECT_EQ(late.stream_trace_dropped[kDefaultStream], late.trace_dropped);
}

/// The read floor a standalone monitor has published after all of `run`.
std::size_t final_floor(const Spec& spec, const Trace& run) {
  Monitor m(spec);
  for (const State& s : run.states()) m.append(s);
  return m.read_floor();
}

TEST(StoreWindow, ProbeFleetAndInsensitiveAxiomsDoNotPinPositionZero) {
  const Trace mutex = mutex_stream(2000);
  const std::size_t n = mutex.size();
  const Spec exclusion = spec_of("exclusion", "theorem", sys::mutex_theorem(3));
  const Spec flag = spec_of("flag", "A2_flag_held_1", parse_formula("[] (cs1 -> x1)"));
  // Read floors trail the horizon by at most two settled-cache windows.
  EXPECT_GE(final_floor(exclusion, mutex) + 2 * Monitor::kSettledWindow, n);
  EXPECT_GE(final_floor(flag, mutex) + 2 * Monitor::kSettledWindow, n);

  sys::SelfTimedRunConfig sc;
  sc.handshakes = 400;
  sc.max_steps = 2000;
  const Trace handshake = sys::run_request_ack(sc);
  ASSERT_GT(handshake.size(), 4 * Monitor::kSettledWindow);
  const Spec init = spec_of("init", "init_low", parse_formula("!R /\\ !A"));
  EXPECT_GE(final_floor(init, handshake) + 2 * Monitor::kSettledWindow, handshake.size());

  // Through the service: the probe fleet's store is trimmed as it runs.
  Options opts;
  opts.num_threads = 2;
  opts.max_epoch_batch = 8;
  MonitorService service(opts);
  for (int copy = 0; copy < 2; ++copy) {
    service.register_spec(flag);
    service.register_spec(exclusion);
  }
  for (const State& s : mutex.states()) service.append(s);
  service.flush();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_GT(stats.trace_dropped, n / 2);
  EXPECT_LT(stats.totals.trace_bytes, n * sizeof(State) / 4);
}

TEST(StoreWindow, ShortCircuitedOperandPinsItsPosition) {
  // `<> a -> [] b` at position 0: while no `a` has occurred the
  // implication short-circuits and never builds `[] b`, so the first state
  // with `a` (late in the run) builds it from scratch and reads the whole
  // prefix from position 0.  The implication's record must keep its floor
  // at 0 until then.
  constexpr std::size_t kLate = 700;
  Trace run;
  for (std::size_t k = 0; k < kLate + 100; ++k) {
    State s;
    s.set_bool("a", k == kLate);
    s.set_bool("b", k != 3);  // [] b fails from position 0 on
    run.push(s);
  }
  const Spec spec = spec_of("late", "late_operand", parse_formula("<> a -> [] b"));
  const std::vector<CheckResult> inc = standalone(spec, Monitor::Mode::Incremental, run);
  const std::vector<CheckResult> ref = standalone(spec, Monitor::Mode::Scratch, run);
  for (std::size_t k = 0; k < run.size(); ++k) {
    expect_same(inc[k], ref[k], "seq " + std::to_string(k));
  }
  EXPECT_TRUE(inc[kLate - 1].ok);
  EXPECT_FALSE(inc[kLate].ok);

  Monitor m(spec);
  for (std::size_t k = 0; k < kLate; ++k) m.append(run.states()[k]);
  EXPECT_EQ(m.read_floor(), 0u);

  Options opts;
  opts.max_epoch_batch = 16;
  MonitorService service(opts);
  service.register_spec(spec);
  for (const State& s : run.states()) service.append(s);
  service.flush();
  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_EQ(rows.size(), run.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    ASSERT_FALSE(rows[k].faulted_at(0)) << "seq " << k;
    expect_same(rows[k].verdicts[0].result, ref[k], "service seq " + std::to_string(k));
  }
}

TEST(StoreWindow, ScratchMonitorsAndBudgetedFleetsKeepTheWholeStore) {
  const Trace run = mutex_stream(1000);
  const std::size_t n = run.size();
  ASSERT_GT(n, 4 * Monitor::kSettledWindow);
  const Spec spec = spec_of("pending", "entry", parse_formula("[] (x3 -> <> cs3)"));

  // A Scratch reader re-reads its whole window, so its base pins the store.
  {
    MonitorService service;
    service.register_spec(spec);
    service.register_spec(spec, {}, Monitor::Mode::Scratch);
    for (const State& s : run.states()) service.append(s);
    service.flush();
    EXPECT_EQ(service.stats().trace_dropped, 0u);
    EXPECT_GE(service.stats().totals.trace_bytes, n * sizeof(State));
  }
  // Under a byte budget any monitor may be demoted to Scratch, so every
  // base pins — even with a budget no monitor ever reaches.
  {
    Options opts;
    opts.obligation_byte_budget = std::size_t{1} << 40;
    MonitorService service(opts);
    service.register_spec(spec);
    for (const State& s : run.states()) service.append(s);
    service.flush();
    EXPECT_EQ(service.stats().budget_gcs, 0u);
    EXPECT_EQ(service.stats().trace_dropped, 0u);
    EXPECT_GE(service.stats().totals.trace_bytes, n * sizeof(State));
  }
  // The same incremental reader alone trims the store.
  {
    MonitorService service;
    service.register_spec(spec);
    for (const State& s : run.states()) service.append(s);
    service.flush();
    EXPECT_GT(service.stats().trace_dropped, 0u);
  }
}

TEST(StoreWindow, DemotedMonitorRereadsItsWholeWindow) {
  // A standalone monitor publishes floors as it runs; demotion lowers its
  // floor back to the base, and the scratch path's verdicts read the whole
  // window without tripping the guard.
  const Trace run = mutex_stream(600);
  const Spec spec = spec_of("pending", "entry", parse_formula("[] (x3 -> <> cs3)"));
  const std::vector<CheckResult> want = standalone(spec, Monitor::Mode::Scratch, run);
  Monitor m(spec);
  const std::size_t half = run.size() / 2;
  for (std::size_t k = 0; k < half; ++k) m.append(run.states()[k]);
  EXPECT_GT(m.read_floor(), 0u);
  m.demote_to_scratch();
  EXPECT_EQ(m.read_floor(), m.base());
  for (std::size_t k = half; k < run.size(); ++k) {
    const CheckResult got = m.append(run.states()[k]);
    ASSERT_EQ(got.ok, want[k].ok) << "seq " << k;
    ASSERT_EQ(got.failed, want[k].failed) << "seq " << k;
  }
}

}  // namespace
}  // namespace il
