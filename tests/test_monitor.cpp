// Tests for the online runtime monitor.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/monitor.h"
#include "core/parser.h"
#include "systems/ab_protocol.h"
#include "systems/arbiter.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"
#include "systems/selftimed.h"

namespace il {
namespace {

Spec simple_spec() {
  Spec spec;
  spec.name = "demo";
  spec.axioms.push_back({"safety", parse_formula("[] (cs -> x)")});
  spec.axioms.push_back({"response", parse_formula("[] [ req => ] *grant")});
  return spec;
}

State st(bool req, bool grant, bool x, bool cs) {
  State s;
  s.set_bool("req", req);
  s.set_bool("grant", grant);
  s.set_bool("x", x);
  s.set_bool("cs", cs);
  return s;
}

TEST(Monitor, RequiresObservationBeforeVerdict) {
  Monitor m(simple_spec());
  EXPECT_THROW(m.current(), std::invalid_argument);
}

TEST(Monitor, TracksSafetyOnline) {
  Monitor m(simple_spec());
  m.observe(st(false, false, false, false));
  EXPECT_TRUE(m.current().ok);
  m.observe(st(false, false, true, true));  // cs with x: fine
  EXPECT_TRUE(m.current().ok);
  m.observe(st(false, false, false, true));  // cs without x: violation
  auto r = m.current();
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.failed.size(), 1u);
  EXPECT_EQ(r.failed[0], "demo.safety");
}

TEST(Monitor, ProvisionalVerdictsRecover) {
  // A pending response obligation fails provisionally (stuttering
  // extension has no grant) and recovers when the grant arrives.
  Monitor m(simple_spec());
  m.observe(st(false, false, false, false));
  m.observe(st(true, false, false, false));  // req rises: grant required
  EXPECT_FALSE(m.current().ok);              // provisional: no grant yet
  m.observe(st(true, true, false, false));   // grant rises
  EXPECT_TRUE(m.current().ok);
}

TEST(Monitor, PersistentCacheHitsGrowAcrossCalls) {
  // Scratch mode: this pins the pre-incremental cache lifecycle (entries
  // die with each trace identity bump, counters accumulate).
  Monitor m(simple_spec(), {}, Monitor::Mode::Scratch);
  m.observe(st(false, false, true, true));
  EXPECT_TRUE(m.current().ok);
  const std::size_t hits_after_first = m.cache().hits();
  const std::size_t inserts_after_first = m.cache().inserts();
  EXPECT_GT(inserts_after_first, 0u);  // the first verdict populated the cache

  // Same trace, same verdict: the second call is answered from the
  // persistent cache, so hits grow while inserts stay put.
  EXPECT_TRUE(m.current().ok);
  const std::size_t hits_after_second = m.cache().hits();
  EXPECT_GT(hits_after_second, hits_after_first);
  EXPECT_EQ(m.cache().inserts(), inserts_after_first);

  // A new observation refreshes the trace identity: old entries can no
  // longer be hit, and the verdict is recomputed (inserts grow again), but
  // the cache object itself persists — its counters keep accumulating.
  m.observe(st(false, false, true, true));
  EXPECT_TRUE(m.current().ok);
  EXPECT_GT(m.cache().inserts(), inserts_after_first);
  EXPECT_GE(m.cache().hits(), hits_after_second);

  // And verdicts stay identical to a fresh uncached check.
  EXPECT_EQ(m.current().ok, check_spec(m.spec(), m.trace()).ok);
}

TEST(Monitor, StatesSeenAndTrace) {
  Monitor m(simple_spec());
  m.observe(st(false, false, false, false));
  m.observe(st(false, false, false, false));
  EXPECT_EQ(m.states_seen(), 2u);
  EXPECT_EQ(m.trace().size(), 2u);
}

TEST(Monitor, AppendIsObservePlusCurrent) {
  Monitor inc(simple_spec());
  Monitor scratch(simple_spec(), {}, Monitor::Mode::Scratch);
  const State states[] = {
      st(false, false, false, false), st(true, false, false, false),
      st(true, false, false, true),  // cs without x: safety violation
      st(true, true, false, false),  st(false, false, true, true),
  };
  for (const State& s : states) {
    const CheckResult a = inc.append(s);
    scratch.observe(s);
    const CheckResult b = scratch.current();
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.failed, b.failed);
  }
  EXPECT_EQ(inc.states_seen(), 5u);
}

TEST(Monitor, IncrementalSettlesAndPinsObligations) {
  Monitor m(simple_spec());
  m.append(st(false, false, false, false));
  m.append(st(true, false, false, false));   // req rises: response pending
  EXPECT_FALSE(m.current().ok);              // provisional failure
  const std::size_t recomputes_pending = m.obligations().recomputes();
  EXPECT_GT(m.obligations().size(), 0u);

  m.append(st(true, true, false, false));    // grant arrives
  EXPECT_TRUE(m.current().ok);
  // The grant settled obligations (the located request interval and its
  // grant occurrence are pinned); later quiet states re-settle only the
  // live suffix, not the settled prefix.
  EXPECT_GT(m.obligations().settled_count(), 0u);
  const std::size_t recomputes_settled = m.obligations().recomputes() - recomputes_pending;
  EXPECT_GT(recomputes_settled, 0u);

  // A repeated current() with no new state re-reads fresh results only.
  const std::size_t recomputes_before = m.obligations().recomputes();
  EXPECT_TRUE(m.current().ok);
  EXPECT_EQ(m.obligations().recomputes(), recomputes_before);
  EXPECT_GT(m.obligations().fresh_hits() + m.obligations().settled_hits(), 0u);
}

TEST(Monitor, IncrementalSettledCacheSurvivesAppends) {
  // The closed-world cache is keyed by the stable lineage id, so appends
  // never invalidate it; entries only age out of the horizon window.
  // Entries starting at or above horizon - kSettledWindow survive appends:
  // through the first window, resident entries only grow.
  constexpr std::size_t kW = Monitor::kSettledWindow;
  const auto state_at = [](std::size_t k) {
    return st(k % 5 == 1, k % 5 == 3, k % 7 != 0, k % 2 == 0);
  };
  // One settled-cache entry per start position: every <> runs over the
  // finite interval up to the next cs.
  Spec spec = simple_spec();
  spec.axioms.push_back({"settled", parse_formula("[] [ => cs ] <> cs")});
  Monitor m(spec);
  std::size_t entries = 0;
  for (std::size_t k = 0; k <= kW; ++k) {
    m.append(state_at(k));
    EXPECT_GE(m.cache().size(), entries) << "state " << k;
    entries = m.cache().size();
  }
  EXPECT_EQ(m.cache().evicted(), 0u);
  // And the obligation graph saw one invalidation pass per append epoch.
  EXPECT_EQ(m.obligations().epoch(), kW + 1);

  // Older entries are evicted.  A sweep runs every kSettledWindow states,
  // and an entry stored at horizon h starts at or below h, so whatever was
  // stored before the last 2 * kSettledWindow appends is gone by the end.
  constexpr std::size_t kTotal = 8 * kW;
  std::size_t inserts_before_last_two = 0;
  for (std::size_t k = kW + 1; k < kTotal; ++k) {
    if (k == kTotal - 2 * kW) inserts_before_last_two = m.cache().inserts();
    m.append(state_at(k));
  }
  EXPECT_GT(m.cache().evicted(), 0u);
  EXPECT_LE(m.cache().size(), m.cache().inserts() - inserts_before_last_two);
  EXPECT_EQ(m.cache().inserts() - m.cache().evicted(), m.cache().size());
  EXPECT_EQ(m.obligations().epoch(), kTotal);
}

std::vector<std::int64_t> domain(std::size_t n) {
  std::vector<std::int64_t> d;
  for (std::size_t i = 1; i <= n; ++i) d.push_back(static_cast<std::int64_t>(i));
  return d;
}

/// Every case-study spec paired with a good and a misbehaving run of at
/// least `states` states (runs of further seeds are concatenated until the
/// stream is long enough), so that a monitor fed the whole stream crosses
/// several settled-cache windows (Monitor::kSettledWindow).
struct LongStreamCases {
  std::deque<Spec> specs;
  std::vector<const Spec*> spec_of;
  std::vector<std::vector<State>> streams;

  explicit LongStreamCases(std::size_t states) {
    using Run = std::function<Trace(std::uint64_t seed)>;
    const auto add = [&](const Spec* spec, const Run& run) {
      std::vector<State> out;
      for (std::uint64_t seed = 1; out.size() < states; ++seed) {
        const Trace t = run(seed);
        out.insert(out.end(), t.states().begin(), t.states().end());
      }
      out.resize(states);
      streams.push_back(std::move(out));
      spec_of.push_back(spec);
    };
    specs.push_back(sys::mutex_spec(3));
    for (const bool buggy : {false, true}) {
      add(&specs.back(), [&](std::uint64_t seed) {
        sys::MutexRunConfig c;
        c.seed = seed;
        c.entries = states;
        c.max_steps = states;
        return buggy ? sys::run_mutex_buggy(c) : sys::run_mutex(c);
      });
    }
    specs.push_back(sys::queue_spec(domain(3)));
    for (const bool buggy : {false, true}) {
      add(&specs.back(), [&](std::uint64_t seed) {
        sys::QueueRunConfig c;
        c.seed = seed;
        c.values = states;
        c.max_steps = states;
        return buggy ? sys::run_swapping_queue(c) : sys::run_fifo_queue(c);
      });
    }
    specs.push_back(sys::ab_sender_spec(domain(3)));
    for (const bool buggy : {false, true}) {
      add(&specs.back(), [&](std::uint64_t seed) {
        sys::AbRunConfig c;
        c.seed = seed;
        c.messages = states;
        c.max_steps = states;
        return (buggy ? sys::run_ab_protocol_stuck_bit(c) : sys::run_ab_protocol(c)).trace;
      });
    }
    specs.push_back(sys::request_ack_spec());
    for (const bool buggy : {false, true}) {
      add(&specs.back(), [&](std::uint64_t seed) {
        sys::SelfTimedRunConfig c;
        c.seed = seed;
        c.handshakes = states;
        c.max_steps = states;
        return buggy ? sys::run_request_ack_buggy(c) : sys::run_request_ack(c);
      });
    }
    specs.push_back(sys::arbiter_spec());
    for (const bool buggy : {false, true}) {
      add(&specs.back(), [&](std::uint64_t seed) {
        sys::ArbiterRunConfig c;
        c.seed = seed;
        c.grants = states;
        c.max_steps = states;
        return buggy ? sys::run_arbiter_buggy(c) : sys::run_arbiter(c);
      });
    }
  }
};

/// The settled cache evicts by age (Monitor::kSettledWindow): over streams
/// of 4 windows, where every case's sweeps evict entries for real, the
/// incremental verdicts stay bit-identical to Scratch at every prefix,
/// per-state and in 32-state blocks (the service's default epoch batch: one
/// sweep check per block, whose verdicts read virtual horizons).  And the
/// window bounds the cache: at the end it holds no more than what the last
/// 2 windows' appends stored (how many entries a window holds varies 4x
/// along the mutex run, so the bound counts stores rather than comparing
/// sizes).  Single-threaded, so it lives here rather than in the
/// ThreadSanitizer-run suites, where its Scratch oracle would be slow.
TEST(MonitorIncremental, BitIdenticalToScratchAcrossSettledWindowSweeps) {
  constexpr std::size_t kW = Monitor::kSettledWindow;
  constexpr std::size_t kStates = 4 * kW;
  constexpr std::size_t kBlock = 32;
  const LongStreamCases cases(kStates);
  for (std::size_t c = 0; c < cases.streams.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const std::vector<State>& run = cases.streams[c];
    Monitor inc(spec);
    Monitor blocks(spec);
    Monitor scratch(spec, {}, Monitor::Mode::Scratch);
    std::vector<CheckResult> block_out(kBlock);
    std::size_t inserts_before_last_two = 0;
    for (std::size_t k = 0; k < run.size(); ++k) {
      if (k == run.size() - 2 * kW) inserts_before_last_two = inc.cache().inserts();
      const CheckResult from_inc = inc.append(run[k]);
      const CheckResult from_scratch = scratch.append(run[k]);
      ASSERT_EQ(from_inc.ok, from_scratch.ok) << "case " << c << " prefix " << k;
      ASSERT_EQ(from_inc.failed, from_scratch.failed) << "case " << c << " prefix " << k;
      if (k % kBlock == kBlock - 1) {
        std::vector<const State*> block;
        for (std::size_t j = k + 1 - kBlock; j <= k; ++j) block.push_back(&run[j]);
        blocks.append_block(block.data(), block.size(), block_out.data());
        ASSERT_EQ(block_out.back().ok, from_scratch.ok) << "case " << c << " prefix " << k;
        ASSERT_EQ(block_out.back().failed, from_scratch.failed)
            << "case " << c << " prefix " << k;
      }
    }
    EXPECT_GT(inc.cache().evicted(), 0u) << "case " << c << ": no sweep evicted an entry";
    EXPECT_LE(inc.cache().size(), inc.cache().inserts() - inserts_before_last_two)
        << "case " << c << ": entries stored before the last two windows survived";
    EXPECT_EQ(inc.cache().inserts() - inc.cache().evicted(), inc.cache().size())
        << "case " << c;
  }
}

}  // namespace
}  // namespace il
