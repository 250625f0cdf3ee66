// Tests for the interval-indexed obligation graph: the stabbing-query epoch
// invalidation must be verdict-identical to the scratch reference semantics
// at every prefix, and each epoch must touch a bounded seed set; relocating
// open event searches must unlink the obligation records they supersede;
// mark-and-sweep GC may fire at arbitrary points without changing a single
// verdict; and a GC'd long-run monitor's footprint must plateau instead of
// growing with the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include "core/ast.h"
#include "core/check.h"
#include "core/memo.h"
#include "core/monitor.h"
#include "core/parser.h"
#include "engine/service.h"
#include "systems/ab_protocol.h"
#include "systems/arbiter.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"
#include "systems/selftimed.h"

namespace il {
namespace {

std::vector<std::int64_t> domain(std::size_t n) {
  std::vector<std::int64_t> d;
  for (std::size_t i = 1; i <= n; ++i) d.push_back(static_cast<std::int64_t>(i));
  return d;
}

/// The case-study corpus from tests/test_monitor_incremental.cpp, reused
/// here to hold the indexed graph against Scratch on realistic graphs.
struct StreamCases {
  std::deque<Spec> specs;  ///< deque: spec_of pointers survive growth
  std::vector<const Spec*> spec_of;
  std::vector<Trace> traces;

  StreamCases() {
    traces.reserve(32);

    specs.push_back(sys::mutex_spec(3));
    const Spec* mutex = &specs.back();
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      sys::MutexRunConfig mc;
      mc.seed = seed;
      mc.entries = 4;
      add(mutex, sys::run_mutex(mc));
      add(mutex, sys::run_mutex_buggy(mc));
    }

    specs.push_back(sys::queue_spec(domain(3)));
    const Spec* queue = &specs.back();
    sys::QueueRunConfig qc;
    qc.seed = 1;
    qc.values = 3;
    add(queue, sys::run_fifo_queue(qc));
    add(queue, sys::run_swapping_queue(qc));
    add(queue, sys::run_lifo_stack(qc));

    sys::AbRunConfig ac;
    ac.seed = 7;
    specs.push_back(sys::ab_sender_spec(domain(3)));
    const Spec* ab = &specs.back();
    add(ab, sys::run_ab_protocol(ac).trace);
    add(ab, sys::run_ab_protocol_stuck_bit(ac).trace);

    specs.push_back(sys::request_ack_spec());
    const Spec* selftimed = &specs.back();
    sys::SelfTimedRunConfig sc;
    add(selftimed, sys::run_request_ack(sc));
    add(selftimed, sys::run_request_ack_buggy(sc));

    specs.push_back(sys::arbiter_spec());
    const Spec* arbiter = &specs.back();
    sys::ArbiterRunConfig arc;
    add(arbiter, sys::run_arbiter(arc));
    add(arbiter, sys::run_arbiter_buggy(arc));
  }

  void add(const Spec* spec, Trace trace) {
    traces.push_back(std::move(trace));
    spec_of.push_back(spec);
  }
};

/// One axiom whose interval start is an open forward event search that
/// relocates: the event is []q, which under stuttering extension holds from
/// the position after the *last* !q pulse onward — so every new !q pulse
/// moves the found edge forward and supersedes the previous body obligation.
/// The body <>r stays open while r never occurs.
Spec relocating_spec() {
  Spec spec;
  spec.name = "reloc";
  spec.axioms.push_back(
      {"tail", f::interval(t::fwd(t::event(f::always(f::atom("q"))), nullptr),
                           f::eventually(f::atom("r")))});
  return spec;
}

State qr(bool q, bool r) {
  State s;
  s.set_bool("q", q);
  s.set_bool("r", r);
  return s;
}

/// Satellite 1: a relocating open event find must unlink the obligation
/// record it supersedes immediately, so the graph's resident entry count
/// stays flat across arbitrarily many relocations (GC disabled: the direct
/// unlink alone must hold the line, not the sweeper).
TEST(ObligationIndex, RelocatingEventFindKeepsEntriesFlat) {
  Monitor m(relocating_spec());
  m.set_gc_fraction(0.0);
  constexpr std::size_t kTotal = 1024;
  constexpr std::size_t kPulse = 64;  // q drops every kPulse-th state
  std::vector<std::size_t> phase_entries;  // sampled at a fixed pulse phase
  for (std::size_t k = 0; k < kTotal; ++k) {
    m.append(qr(k % kPulse != kPulse - 1, false));
    if (k >= 4 * kPulse && k % kPulse == 0) {
      phase_entries.push_back(m.obligations().size());
    }
  }
  ASSERT_GE(phase_entries.size(), 8u);
  const auto [lo, hi] = std::minmax_element(phase_entries.begin(), phase_entries.end());
  // ~16 relocations happened; without the unlink each leaves an orphaned
  // body obligation behind and the count climbs monotonically.
  EXPECT_LE(*hi, *lo + 4) << "obligation entries grew across relocations";
  EXPECT_GT(m.obligations().orphan_unlinks(), 0u);
  EXPECT_GT(m.obligations().gc_freed(), 0u);  // superseded records were freed
}

/// The stabbing-query invalidation must produce the exact verdict stream of
/// the scratch evaluator (Monitor::Mode::Scratch, the reference semantics)
/// at every prefix, on every case-study spec plus the relocating one.
TEST(ObligationIndex, IndexedMatchesScratchAtEveryPrefix) {
  StreamCases cases;
  {
    cases.specs.push_back(relocating_spec());
    Trace t;
    for (std::size_t k = 0; k < 256; ++k) t.push(qr(k % 32 != 31, k % 97 == 96));
    cases.add(&cases.specs.back(), std::move(t));
  }
  std::size_t failing_prefixes = 0;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];
    Monitor indexed(spec);
    Monitor oracle(spec, {}, Monitor::Mode::Scratch);
    for (std::size_t k = 0; k < run.size(); ++k) {
      const State& s = run.states()[k];
      const CheckResult a = indexed.append(s);
      const CheckResult b = oracle.append(s);
      ASSERT_EQ(a.ok, b.ok) << "case " << c << " prefix " << k;
      ASSERT_EQ(a.failed, b.failed) << "case " << c << " prefix " << k;
      failing_prefixes += a.ok ? 0 : 1;
    }
    EXPECT_GT(indexed.obligations().index_stabs(), 0u) << "case " << c;
    EXPECT_EQ(oracle.obligations().size(), 0u) << "case " << c;
  }
  EXPECT_GT(failing_prefixes, 0u);  // the corpus must exercise failures
}

/// The whole point of the index: an epoch touches the overlapping open
/// obligations, not the graph.  On a long steady-state stream of the
/// relocating spec the per-epoch seed count stays a small constant (about
/// 3 in bench/BASELINE.md), reclamation keeps the graph itself at a
/// handful of records, and the tree walk stays O(log n + touched) per stab.
TEST(ObligationIndex, EpochTouchesABoundedSeedSet) {
  Monitor m(relocating_spec());
  m.set_gc_fraction(0.0);
  constexpr std::size_t kPulse = 64;  // q drops every kPulse-th state
  std::size_t peak_between = 0;  // resident records between relocations
  std::size_t peak_pulse = 0;    // resident records in a relocating epoch
  for (std::size_t k = 0; k < 2048; ++k) {
    const bool pulse = k % kPulse == kPulse - 1;
    m.append(qr(!pulse, false));
    if (k < 4 * kPulse) continue;
    std::size_t& peak = pulse ? peak_pulse : peak_between;
    peak = std::max(peak, m.obligations().size());
  }
  const ObligationGraph& g = m.obligations();
  ASSERT_GT(g.index_stabs(), 0u);
  const std::size_t avg_touched = g.touched_total() / g.index_stabs();
  EXPECT_LE(avg_touched, 8u);
  // The stab could not be selective if every record it ever made stayed
  // resident: the relocation unlink and settled-child pruning free them.
  // A relocating epoch briefly holds one probe record per position of the
  // pulse period; the next epoch frees them.
  EXPECT_LE(peak_between, 8u);
  EXPECT_LE(peak_pulse, kPulse + 8);
  EXPECT_LT(g.index_visited(), g.index_stabs() * (avg_touched + 2) * 8);
}

/// Satellite 2: footprint honesty — the graph's byte gauge must cover the
/// interval-tree node pool, and the monitor's footprint must cover both
/// stores.
TEST(ObligationIndex, FootprintAccountsForIndexNodes) {
  StreamCases cases;
  Monitor m(*cases.spec_of[0]);
  for (const State& s : cases.traces[0].states()) m.append(s);
  const ObligationGraph& g = m.obligations();
  EXPECT_GT(g.index_nodes(), 0u);
  EXPECT_GE(g.bytes(), g.index_nodes() * IntervalIndex::node_bytes());
  EXPECT_GE(m.footprint_bytes(), g.bytes() + m.cache().bytes());
}

/// Satellite 3 (sequential half): a seeded randomized soak interleaving
/// appends with forced GC sweeps, with auto-GC armed at an aggressive
/// fraction.  Verdicts must stay
/// bit-identical to a scratch monitor (which has no graph, hence no GC) at
/// every prefix, on the corpus and on the relocating spec.
TEST(ObligationIndex, SoakGcPreservesVerdicts) {
  std::mt19937 rng(0xC0FFEEu);
  StreamCases cases;
  {
    cases.specs.push_back(relocating_spec());
    Trace t;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (std::size_t k = 0; k < 768; ++k) t.push(qr(u(rng) < 0.95, u(rng) < 0.02));
    cases.add(&cases.specs.back(), std::move(t));
  }
  std::uniform_int_distribution<int> maintenance(0, 9);
  std::size_t sweeps = 0;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];
    Monitor inc(spec);
    inc.set_gc_fraction(0.05);
    Monitor oracle(spec, {}, Monitor::Mode::Scratch);
    for (std::size_t k = 0; k < run.size(); ++k) {
      const State& s = run.states()[k];
      const CheckResult a = inc.append(s);
      oracle.observe(s);
      const CheckResult b = oracle.current();
      ASSERT_EQ(a.ok, b.ok) << "case " << c << " prefix " << k;
      ASSERT_EQ(a.failed, b.failed) << "case " << c << " prefix " << k;
      if (maintenance(rng) == 0) inc.gc_obligations();
    }
    sweeps += inc.obligations().gc_sweeps();
  }
  EXPECT_GT(sweeps, 0u);
}

/// The same soak through a MonitorService at pool widths 1, 2 and 4 with
/// auto-GC armed fleet-wide: per-state epochs, interleaved incremental and
/// scratch subscribers, and every row equal to the standalone monitor of
/// its mode (GC armed at the same fraction) at every prefix.  The
/// relocating axiom alone keeps its graph below the automatic sweep's
/// 256-record pacing floor on this stream (84 records at peak), so a
/// second axiom grows the graph past it (about 400 records) and the
/// sweeps really run.
TEST(ObligationIndex, SoakPoolWidthsAreDeterministicUnderGc) {
  using Mode = Monitor::Mode;
  std::mt19937 rng(0xB0BACAFEu);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Spec spec = relocating_spec();
  spec.axioms.push_back({"held", parse_formula("[] [ r => !q ] q")});
  std::vector<State> stream;
  for (std::size_t k = 0; k < 512; ++k) stream.push_back(qr(u(rng) < 0.95, u(rng) < 0.02));

  const std::vector<Mode> modes = {Mode::Incremental, Mode::Scratch, Mode::Incremental,
                                   Mode::Scratch};
  std::vector<CheckResult> ref_inc;
  std::vector<CheckResult> ref_scratch;
  {
    Monitor inc(spec, {}, Mode::Incremental);
    Monitor scratch(spec, {}, Mode::Scratch);
    inc.set_gc_fraction(0.05);
    scratch.set_gc_fraction(0.05);
    for (const State& s : stream) {
      ref_inc.push_back(inc.append(s));
      ref_scratch.push_back(scratch.append(s));
    }
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    engine::Options opts;
    opts.num_threads = threads;
    opts.max_epoch_batch = 1;
    opts.obligation_gc_fraction = 0.05;
    engine::MonitorService service(opts);
    for (const Mode mode : modes) service.register_spec(spec, {}, mode);
    for (const State& s : stream) service.append(s);
    service.flush();
    const std::vector<engine::VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), stream.size()) << "threads " << threads;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const auto& v = rows[k].verdicts;
      ASSERT_EQ(v.size(), modes.size());
      for (std::size_t j = 0; j < v.size(); ++j) {
        const CheckResult& want = modes[j] == Mode::Incremental ? ref_inc[k] : ref_scratch[k];
        ASSERT_EQ(v[j].result.ok, want.ok) << "threads " << threads << " state " << k;
        ASSERT_EQ(v[j].result.failed, want.failed) << "threads " << threads << " state " << k;
      }
    }
    // The soak provably ran with GC armed.
    EXPECT_GT(service.stats().totals.gc_sweeps, 0u) << "threads " << threads;
  }
}

/// With GC armed, a long-lived monitor's evaluation-store footprint
/// plateaus — the max over the final quarter of the run stays within 1.5x
/// the max over the second quarter, instead of tracking the trace length.
/// No cap is set: the settled cache is bounded by its horizon window
/// (Monitor::kSettledWindow), the obligation graph by the sweeps.  The
/// second axiom stores one settled entry per start position (each <> runs
/// over the finite interval up to the next !q), so without the window the
/// cache's table keeps doubling with the trace and this check fails.
TEST(ObligationIndex, FootprintPlateausUnderGc) {
  std::mt19937 rng(7u);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Spec spec = relocating_spec();
  spec.axioms.push_back({"settled", parse_formula("[] [ => !q ] <> !q")});
  Monitor m(spec);
  m.set_gc_fraction(0.25);
  constexpr std::size_t kTotal = 4096;
  std::vector<std::size_t> footprint;
  footprint.reserve(kTotal);
  for (std::size_t k = 0; k < kTotal; ++k) {
    m.append(qr(u(rng) < 0.95, u(rng) < 0.02));
    if (k % 257 == 256) m.gc_obligations();
    footprint.push_back(m.footprint_bytes());
  }
  const auto quarter_max = [&](std::size_t q) {
    const std::size_t lo = q * kTotal / 4;
    const std::size_t hi = (q + 1) * kTotal / 4;
    return *std::max_element(footprint.begin() + lo, footprint.begin() + hi);
  };
  const std::size_t second = quarter_max(1);
  const std::size_t last = quarter_max(3);
  EXPECT_LE(last, second + second / 2) << "footprint still growing after 4x the states";
  EXPECT_GT(m.obligations().gc_sweeps(), 0u);
  EXPECT_GT(m.cache().evicted(), 0u);
}

}  // namespace
}  // namespace il
