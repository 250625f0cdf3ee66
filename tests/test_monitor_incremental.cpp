// Differential suite for the incremental obligation-graph monitor: on every
// case-study specification (mutex, queue, AB protocol, self-timed, arbiter)
// the append()-driven verdict stream must be bit-identical — the same
// axioms fail, reported in the same order, at *every* prefix of the trace —
// to (a) the scratch-mode monitor (the pre-incremental evaluation path,
// kept behind Monitor::Mode::Scratch exactly for this comparison) and
// (b) a from-scratch uncached check of each prefix.  Good and misbehaving
// runs are both streamed, sequentially and through engine::MonitorService
// at several pool widths.
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <vector>

#include "core/check.h"
#include "core/monitor.h"
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

/// Every case-study spec paired with good and misbehaving recorded runs —
/// the same corpus the offline differential test uses, replayed as streams.
struct StreamCases {
  std::deque<Spec> specs;  ///< deque: spec_of pointers survive growth
  std::vector<const Spec*> spec_of;  ///< per trace
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

TEST(MonitorIncremental, BitIdenticalToScratchAtEveryPrefix) {
  StreamCases cases;
  std::size_t failing_prefixes = 0;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];
    Monitor inc(spec);  // Mode::Incremental is the default
    Monitor scratch(spec, {}, Monitor::Mode::Scratch);
    Trace prefix;
    for (std::size_t k = 0; k < run.size(); ++k) {
      const State& s = run.states()[k];
      const CheckResult from_inc = inc.append(s);
      scratch.observe(s);
      const CheckResult from_scratch = scratch.current();
      prefix.push(s);
      const CheckResult ground = check_spec_cached(spec, prefix, {}, nullptr);

      ASSERT_EQ(from_inc.ok, ground.ok) << "case " << c << " prefix " << k;
      ASSERT_EQ(from_inc.failed, ground.failed) << "case " << c << " prefix " << k;
      ASSERT_EQ(from_scratch.ok, ground.ok) << "case " << c << " prefix " << k;
      ASSERT_EQ(from_scratch.failed, ground.failed) << "case " << c << " prefix " << k;
      failing_prefixes += ground.ok ? 0 : 1;
    }
  }
  // The corpus must actually exercise failures, or agreement proves little.
  EXPECT_GT(failing_prefixes, 0u);
}

TEST(MonitorIncremental, RepeatedVerdictIsPureReuse) {
  StreamCases cases;
  const Spec& spec = *cases.spec_of[0];
  const Trace& run = cases.traces[0];
  Monitor inc(spec);
  for (const State& s : run.states()) inc.append(s);
  const CheckResult first = inc.current();
  const std::size_t recomputes = inc.obligations().recomputes();
  const std::size_t inserts = inc.cache().inserts();
  const CheckResult second = inc.current();  // no append in between
  EXPECT_EQ(second.ok, first.ok);
  EXPECT_EQ(second.failed, first.failed);
  EXPECT_EQ(inc.obligations().recomputes(), recomputes);
  EXPECT_EQ(inc.cache().inserts(), inserts);
}

TEST(MonitorIncremental, ObligationGraphTracksSettlement) {
  StreamCases cases;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    Monitor inc(*cases.spec_of[c]);
    for (const State& s : cases.traces[c].states()) inc.append(s);
    const ObligationGraph& g = inc.obligations();
    EXPECT_GT(g.size(), 0u) << "case " << c;
    EXPECT_EQ(g.epoch(), cases.traces[c].size()) << "case " << c;
    EXPECT_EQ(g.settled_count() + g.open_count(), g.size()) << "case " << c;
    EXPECT_GT(g.edges(), 0u) << "case " << c;
  }
}

TEST(MonitorIncremental, ServicePoolsAreDeterministicAndIdentical) {
  using Mode = Monitor::Mode;
  StreamCases cases;
  // Four subscribers to one stream: incremental and scratch monitors
  // interleaved, so every row cross-checks the two evaluation paths.
  const std::vector<Mode> modes = {Mode::Incremental, Mode::Scratch, Mode::Incremental,
                                   Mode::Scratch};
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];
    // Reference: standalone monitors of each mode fed by append().
    std::vector<CheckResult> ref_inc;
    std::vector<CheckResult> ref_scratch;
    {
      Monitor inc(spec, {}, Mode::Incremental);
      Monitor scratch(spec, {}, Mode::Scratch);
      for (const State& s : run.states()) {
        ref_inc.push_back(inc.append(s));
        ref_scratch.push_back(scratch.append(s));
      }
    }

    for (const std::size_t threads : {1u, 2u, 4u}) {
      engine::Options opts;
      opts.num_threads = threads;
      engine::MonitorService service(opts);
      for (const Mode mode : modes) service.register_spec(spec, {}, mode);
      for (const State& s : run.states()) service.append(s);
      service.flush();
      const std::vector<engine::VerdictRow> rows = service.drain();
      ASSERT_EQ(rows.size(), run.size()) << "case " << c << " threads " << threads;
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const auto& v = rows[k].verdicts;
        ASSERT_EQ(v.size(), modes.size());
        for (std::size_t j = 0; j < v.size(); ++j) {
          ASSERT_EQ(v[j].result.ok, v[0].result.ok) << "case " << c << " job " << j;
          ASSERT_EQ(v[j].result.failed, v[0].result.failed) << "case " << c << " job " << j;
          const CheckResult& want = modes[j] == Mode::Incremental ? ref_inc[k] : ref_scratch[k];
          ASSERT_EQ(v[j].result.ok, want.ok)
              << "case " << c << " threads " << threads << " state " << k << " job " << j;
          ASSERT_EQ(v[j].result.failed, want.failed)
              << "case " << c << " threads " << threads << " state " << k << " job " << j;
        }
      }
      const engine::StreamStats totals = service.stats().totals;
      EXPECT_EQ(totals.states, run.size());
      EXPECT_EQ(totals.verdicts, run.size() * modes.size());
      EXPECT_GT(totals.obligation_entries, 0u);
      EXPECT_GT(totals.obligation_recomputed, 0u);
    }
  }
}

}  // namespace
}  // namespace il
