// E14 — interval-indexed epoch invalidation: steady-state append cost of
// the stabbing-query obligation graph as the resident trace (and with it
// the obligation population) grows.
//
//   bench_obligation_index_append     one append+verdict at steady state,
//                                     trace lengths 1e2..1e5
//   bench_obligation_event_search     long-trace backward event search: the
//                                     incremental settled-prefix resume
//
// CI asserts from the emitted JSON that the append time stays flat
// (<= 1.25x from 1e3 to 1e5), that an epoch seeds at most 8 obligations
// on average (obligation_touched on the 2e4 case), that the graph's
// resident count stays tiny (obligation_entries <= 64), and that the
// settled cache is flat in trace length too (memo_entries <= 1.25x from
// 1e3 to 1e5).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "core/ast.h"
#include "core/check.h"
#include "core/monitor.h"
#include "core/parser.h"

namespace {

using namespace il;

/// The steady-state workload: an interval whose start is an open forward
/// event search ([]q relocates on every !q pulse) and whose body <>r stays
/// open forever.  The open suffix is bounded by the pulse period no matter
/// how long the trace grows, so a flat-per-append invalidation pass shows
/// up as flat wall time across trace lengths.  The second axiom is a
/// per-state invariant whose quantified body reads only its own state: it
/// settles at once, storing one settled-cache entry per position, which the
/// cache's horizon window (Monitor::kSettledWindow) must age out.
Spec index_spec() {
  Spec spec;
  spec.name = "steady";
  spec.axioms.push_back(
      {"tail", f::interval(t::fwd(t::event(f::always(f::atom("q"))), nullptr),
                           f::eventually(f::atom("r")))});
  spec.axioms.push_back({"boolean_q", parse_formula("[] exists a in {0,1} . q = $a")});
  return spec;
}

State pulse_state(std::size_t k) {
  State s;
  s.set_bool("q", k % 64 != 63);
  s.set_bool("r", false);
  return s;
}

/// Puts `m` at steady state at trace length `n`, untimed: a verdict per
/// state costs O(1), so the prefix is O(n) total, and the epoch-by-epoch
/// path keeps the record pool tiny (superseded and settled-child records
/// are freed as it goes and their slots reused).
void build_prefix(Monitor& m, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) m.append(pulse_state(k));
}

/// Long-trace *backward* event search (the fwd path is what index_spec
/// exercises): a suffix-sensitive `<-` search never settles, so each epoch
/// extends its settled prefix bottom-up and re-scans only above it.
Spec bwd_spec() {
  Spec spec;
  spec.name = "bwd";
  spec.axioms.push_back(
      {"latest", f::interval(t::bwd(t::event(f::always(f::atom("q"))), nullptr),
                             f::eventually(f::atom("r")))});
  return spec;
}

/// One append+verdict at steady state at trace length N.  The timed region
/// is a fixed block of appends so per-append cost reads off
/// items_per_second.  The iteration count is pinned (and the trace
/// pre-reserved) so every iteration runs at the same trace length
/// regardless of timer resolution.
void steady_state_append(benchmark::State& state, const Spec& spec) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlock = 16;
  Monitor m(spec);
  m.set_gc_fraction(0.0);  // measure the invalidation pass, not the sweeper
  m.reserve(n + kBlock * (state.max_iterations + 1));
  build_prefix(m, n);
  std::size_t k = n;
  std::size_t failed = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < kBlock; ++j, ++k) {
      failed += m.append(pulse_state(k)).failed.size();
    }
    benchmark::DoNotOptimize(failed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBlock));
  const ObligationGraph& g = m.obligations();
  state.counters["obligation_entries"] = static_cast<double>(g.size());
  state.counters["memo_entries"] = static_cast<double>(m.cache().size());
  if (g.index_stabs() > 0) {
    state.counters["obligation_touched"] =
        static_cast<double>(g.touched_total()) / static_cast<double>(g.index_stabs());
  }
}

void bench_obligation_index_append(benchmark::State& state) {
  steady_state_append(state, index_spec());
}

void bench_obligation_event_search(benchmark::State& state) {
  steady_state_append(state, bwd_spec());
}

}  // namespace

// Pinned iteration counts keep every timed append at the intended trace
// length (see steady_state_append).
BENCHMARK(bench_obligation_index_append)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(20000)
    ->Arg(100000)
    ->Iterations(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bench_obligation_event_search)->Arg(20000)->Iterations(256)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
