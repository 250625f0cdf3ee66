// Unit tests for states, traces, stuttering extension, trace windows, and
// TraceBuilder.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/memo.h"
#include "core/parser.h"
#include "core/semantics.h"
#include "trace/trace.h"

namespace il {
namespace {

TEST(State, DefaultsToZero) {
  State s;
  EXPECT_EQ(s.get("x"), 0);
  EXPECT_FALSE(s.truthy("x"));
}

TEST(State, SetAndGet) {
  State s;
  s.set("x", 42);
  s.set_bool("b", true);
  EXPECT_EQ(s.get("x"), 42);
  EXPECT_TRUE(s.truthy("b"));
}

TEST(State, EqualityAndOrdering) {
  State a, b;
  a.set("x", 1);
  b.set("x", 1);
  EXPECT_EQ(a, b);
  b.set("y", 2);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

TEST(State, ToStringIsDeterministic) {
  State s;
  s.set("b", 2);
  s.set("a", 1);
  EXPECT_EQ(s.to_string(), "{a=1, b=2}");
}

TEST(Trace, StutteringExtension) {
  Trace tr;
  State s0, s1;
  s0.set("x", 0);
  s1.set("x", 7);
  tr.push(s0);
  tr.push(s1);
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.at(0).get("x"), 0);
  EXPECT_EQ(tr.at(1).get("x"), 7);
  // Indices past the end read the final state forever.
  EXPECT_EQ(tr.at(2).get("x"), 7);
  EXPECT_EQ(tr.at(1000).get("x"), 7);
}

TEST(Trace, EmptyTraceAccessThrows) {
  Trace tr;
  EXPECT_THROW(tr.at(0), std::invalid_argument);
  EXPECT_THROW(tr.back(), std::invalid_argument);
  EXPECT_THROW(tr.last_index(), std::invalid_argument);
}

TEST(TraceBuilder, CommitsSnapshots) {
  TraceBuilder tb;
  tb.set("x", 1);
  tb.commit();
  tb.set("x", 2);
  tb.commit();
  const Trace& tr = tb.trace();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.at(0).get("x"), 1);
  EXPECT_EQ(tr.at(1).get("x"), 2);
}

TEST(TraceBuilder, SnapshotsAreIndependent) {
  TraceBuilder tb;
  tb.set("x", 1);
  tb.commit();
  tb.set("x", 2);  // not yet committed
  EXPECT_EQ(tb.trace().at(0).get("x"), 1);
}

TEST(TraceBuilder, StepHelper) {
  TraceBuilder tb;
  tb.step([](State& s) { s.set("y", 5); });
  EXPECT_EQ(tb.trace().at(0).get("y"), 5);
}

TEST(Trace, AppendDeltaNotification) {
  // The append-delta view: push() ticks appends() under an unchanged
  // stable_id(), while the memoization identity id() still refreshes.
  Trace tr;
  const std::uint32_t lineage = tr.stable_id();
  const std::uint32_t id0 = tr.id();
  EXPECT_EQ(tr.appends(), 0u);
  EXPECT_EQ(tr.rewrites(), 0u);

  State s;
  s.set("x", 1);
  tr.push(s);
  tr.push(s);
  EXPECT_EQ(tr.stable_id(), lineage);
  EXPECT_NE(tr.id(), id0);
  EXPECT_EQ(tr.appends(), 2u);
  EXPECT_EQ(tr.rewrites(), 0u);

  // In-place mutation is the other kind of delta: rewrites() ticks and
  // append-only reasoning is off.
  tr.back_mut().set("x", 9);
  EXPECT_EQ(tr.rewrites(), 1u);
  tr.state_mut(0).set("x", 3);
  EXPECT_EQ(tr.rewrites(), 2u);
  EXPECT_EQ(tr.stable_id(), lineage);

  // Copies are a fresh lineage with fresh counters; moves keep both.
  Trace copy = tr;
  EXPECT_NE(copy.stable_id(), lineage);
  EXPECT_EQ(copy.appends(), 0u);
  EXPECT_EQ(copy.rewrites(), 0u);
  Trace moved = std::move(tr);
  EXPECT_EQ(moved.stable_id(), lineage);
  EXPECT_EQ(moved.appends(), 2u);
  EXPECT_EQ(moved.rewrites(), 2u);
}

State with_x(std::int64_t x) {
  State s;
  s.set("x", x);
  return s;
}

TEST(TraceWindow, WholeTraceWindowCarriesTheTraceIdentity) {
  Trace tr;
  tr.push(with_x(1));
  tr.push(with_x(2));
  const TraceWindow w = tr;
  EXPECT_EQ(w.base(), 0u);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.id(), tr.id());
  EXPECT_EQ(w.stable_id(), tr.stable_id());
  EXPECT_EQ(w.at(5).get("x"), 2);
}

TEST(TraceWindow, StuttersItsOwnLastStateNotTheTraces) {
  Trace tr;
  tr.push(with_x(0));
  TraceWindow w = TraceWindow::at_end(tr);  // joins after state 0
  EXPECT_EQ(w.base(), 1u);
  EXPECT_TRUE(w.empty());
  EXPECT_THROW(w.at(0), std::invalid_argument);
  for (std::int64_t x = 1; x <= 4; ++x) tr.push(with_x(x));
  // The trace already holds states 1..4, but the window has advanced over
  // only two of them: everything past its end reads its own last state.
  w.advance(2);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.last_index(), 1u);
  EXPECT_EQ(w.at(0).get("x"), 1);
  EXPECT_EQ(w.at(1).get("x"), 2);
  EXPECT_EQ(w.at(2).get("x"), 2);
  EXPECT_EQ(w.at(1000).get("x"), 2);
  // Evaluation sees the window as the whole computation: <> (x = 4) is
  // false here although state 4 is stored.
  EXPECT_FALSE(holds(*parse_formula("<> x = 4"), w));
  EXPECT_TRUE(holds(*parse_formula("[] (x > 0)"), w));
  w.advance(2);
  EXPECT_TRUE(holds(*parse_formula("<> x = 4"), w));
  EXPECT_THROW(w.advance(1), std::invalid_argument);  // past the trace's end
}

TEST(TraceWindow, EveryAdvanceTakesAFreshIdUnderOneLineage) {
  Trace tr;
  for (std::int64_t x = 0; x < 4; ++x) tr.push(with_x(x));
  TraceWindow a = TraceWindow::at_end(tr);
  TraceWindow b = TraceWindow::at_end(tr);
  EXPECT_NE(a.stable_id(), b.stable_id());  // a lineage per reader
  EXPECT_NE(a.stable_id(), tr.stable_id());
  for (std::int64_t x = 4; x < 7; ++x) tr.push(with_x(x));
  const std::uint32_t lineage = a.stable_id();
  std::uint32_t id = a.id();
  for (int step = 0; step < 3; ++step) {
    a.advance(1);
    EXPECT_NE(a.id(), id) << "step " << step;
    EXPECT_NE(a.id(), a.stable_id()) << "step " << step;
    EXPECT_EQ(a.stable_id(), lineage) << "step " << step;
    id = a.id();
  }
  // A memo cache keyed by the window id cannot serve an earlier prefix's
  // result: the same query over each prefix misses, never hits.
  TraceWindow c = TraceWindow::at_end(tr);
  tr.push(with_x(1));
  tr.push(with_x(9));
  EvalCache cache;
  const FormulaPtr f = parse_formula("<> x = 9");
  c.advance(1);
  EXPECT_FALSE(Evaluator(c, &cache).sat(*f, Interval::make(0, Interval::INF), {}));
  c.advance(1);
  EXPECT_TRUE(Evaluator(c, &cache).sat(*f, Interval::make(0, Interval::INF), {}));
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceWindow, RebasingAfterDropFrontKeepsContentAndIdentity) {
  Trace tr;
  for (std::int64_t x = 0; x < 6; ++x) tr.push(with_x(x));
  TraceWindow early = TraceWindow::at_end(tr);  // base 6
  for (std::int64_t x = 6; x < 10; ++x) tr.push(with_x(x));
  early.advance(3);
  const std::uint32_t id = early.id();
  const std::uint32_t lineage = early.stable_id();
  const std::size_t bytes_before = tr.bytes();

  tr.drop_front(4);  // nobody reads positions 0..3
  early.rebase(4);
  EXPECT_EQ(tr.size(), 6u);
  EXPECT_EQ(tr.at(0).get("x"), 4);
  EXPECT_EQ(early.base(), 2u);
  EXPECT_EQ(early.size(), 3u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(early.at(k).get("x"), static_cast<std::int64_t>(6 + std::min<std::size_t>(k, 2)));
  }
  EXPECT_EQ(early.id(), id);
  EXPECT_EQ(early.stable_id(), lineage);
  // Capacity stays; the dropped states' variable arrays are gone.
  EXPECT_LT(tr.bytes(), bytes_before);
  EXPECT_GE(tr.bytes(), tr.size() * sizeof(State));
  // The window cannot be rebased below what it reads.
  EXPECT_THROW(early.rebase(3), std::invalid_argument);
  EXPECT_THROW(tr.drop_front(7), std::invalid_argument);
}

TEST(Trace, BytesCountsHeadersAndVariableArrays) {
  Trace tr;
  EXPECT_EQ(tr.bytes(), 0u);
  tr.push(with_x(1));
  const std::size_t one = tr.bytes();
  EXPECT_GE(one, sizeof(State) + tr.states()[0].vars().size() * sizeof(tr.states()[0].vars()[0]));
  // A rewrite may resize a variable array; bytes() recounts.
  tr.back_mut().set("y", 2);
  EXPECT_GT(tr.bytes(), sizeof(State));
  tr.drop_front(1);
  EXPECT_EQ(tr.bytes(), tr.states().capacity() * sizeof(State));
}

}  // namespace
}  // namespace il
