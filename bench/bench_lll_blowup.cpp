// E8 — Appendix C Section 4.5: nonelementary growth of the low-level
// language graphs under nested iteration connectives.
//
// The paper's A1/A2/A3 examples nest iter(*) inside infloop with `as`
// conjunctions; each level can square (or worse) the number of reachable
// marker sets, and the node-disjoining step multiplies the basis.  This
// bench sweeps the nesting depth of
//     infloop( iter(*)(a_1, b_1) as ... as iter(*)(a_n, b_n) )
// and reports reachable nodes/edges and the node-basis size — the quantity
// whose growth drives the nonelementary bound.  Decisions go through the
// engine's job path (engine/decision.h); the batch case fans a corpus of
// satisfiability probes across the worker pool.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/decision.h"
#include "lll/decide.h"
#include "lll/encode.h"
#include "lll/graph.h"
#include "ltl/formula.h"
#include "ltl/random.h"
#include "util/rng.h"

namespace {

using namespace il::lll;

ExprId nested(int n) {
  ExprId acc = kNoExpr;
  for (int i = 0; i < n; ++i) {
    const std::string p = "p" + std::to_string(i);
    const std::string q = "q" + std::to_string(i);
    // Two-instant bodies so concurrent copies genuinely overlap.
    ExprId it = iter_paren(semi(lit(p), lit(p)), lit(q));
    acc = acc == kNoExpr ? it : same_len(acc, it);
  }
  return infloop(acc);
}

void bench_nested_iterators(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ExprId e = nested(n);
  std::size_t nodes = 0, edges = 0, basis = 0;
  bool exploded = false;
  for (auto _ : state) {
    try {
      GraphBuilder builder;
      Graph g = builder.build(e);
      nodes = g.node_count();
      edges = g.edge_count();
      basis = builder.basis_used();
      benchmark::DoNotOptimize(g);
    } catch (const std::invalid_argument&) {
      // The 500k-edge guard tripped: the blowup itself is the data point.
      exploded = true;
      break;
    }
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["basis"] = static_cast<double>(basis);
  state.counters["exploded"] = exploded ? 1 : 0;
  if (exploded) state.SkipWithError("subset construction exceeded 500k edges");
}

void bench_nested_decision(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const il::engine::DecisionJob job = il::engine::lll_sat_job(nested(n));
  for (auto _ : state) {
    auto r = il::engine::run_decision_job(job);
    benchmark::DoNotOptimize(r);
  }
}

ExprId deep_first_arg(int n) {
  ExprId a = concat(lit("p"), tstar());
  for (int i = 0; i < n; ++i) {
    a = iter_paren(a, concat(lit("q" + std::to_string(i)), tstar()));
  }
  return a;
}

// Depth of iter* nesting in the *first* argument (the restricted-quantifier
// fragment L1 keeps this decidable but the closure squares per level).
// Depth 3 intentionally trips the 500k-edge guard: the growth 20 -> ~18k ->
// >500k edges across depths 1..3 is the Section 4.5 nonelementary-blowup
// claim made measurable; the skipped entry reports exploded=1.
void bench_deep_first_arg(benchmark::State& state) {
  const ExprId a = deep_first_arg(static_cast<int>(state.range(0)));
  std::size_t nodes = 0, edges = 0;
  bool exploded = false;
  for (auto _ : state) {
    try {
      GraphBuilder builder;
      Graph g = builder.build(a);
      nodes = g.node_count();
      edges = g.edge_count();
      benchmark::DoNotOptimize(g);
    } catch (const std::invalid_argument&) {
      exploded = true;
      break;
    }
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["exploded"] = exploded ? 1 : 0;
  if (exploded) state.SkipWithError("subset construction exceeded 500k edges");
}

/// The first 64 seeded corpus formulas (ltl/random.h, the generator the
/// end-to-end decide_corpus workload's corpus mirrors) whose LLL build trips
/// the corpus filter's 5000-edge budget inside an iterator subset
/// construction (the stage most filter rejects trip in).
const std::vector<ExprId>& corpus_subset_trips() {
  static const std::vector<ExprId> trips = [] {
    std::vector<ExprId> out;
    il::ltl::Arena arena;
    il::Rng rng(0x7219);
    while (out.size() < 64) {
      const il::ltl::Id f = il::ltl::random_formula(arena, rng, 3);
      const ExprId e = il::lll::encode_ltl(arena, arena.nnf(f));
      try {
        GraphBuilder(5000).build(e);
      } catch (const std::invalid_argument& err) {
        if (std::string(err.what()).find("iterator subset construction") == 0) out.push_back(e);
      }
    }
    return out;
  }();
  return trips;
}

/// Cost of a build that exceeds its edge budget: /0 builds the seeded
/// corpus rejects at 5000 edges, /1 builds deep_first_arg(3) at the default
/// budget.  Every build must throw.  Waves are priced before they run, so
/// tuples_per_trip (subset-construction tuples enumerated per rejected
/// build) stays below `budget`: the wave that would cross it emits nothing.
void bench_lll_budget_trip(benchmark::State& state) {
  std::vector<ExprId> exprs;
  std::size_t budget = GraphBuilder::kDefaultEdgeBudget;
  if (state.range(0) == 0) {
    exprs = corpus_subset_trips();
    budget = 5000;
  } else {
    exprs.push_back(deep_first_arg(3));
  }
  std::size_t trips = 0, tuples = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (ExprId e : exprs) {
      GraphBuilder builder(budget);
      try {
        builder.build(e);
        state.SkipWithError("a build expected to exceed its budget fit");
        return;
      } catch (const std::invalid_argument&) {
        ++trips;
        tuples += builder.iter_stats().choice_tuples;
      }
    }
  }
  const std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - start;
  state.SetItemsProcessed(static_cast<std::int64_t>(trips));
  state.counters["budget"] = static_cast<double>(budget);
  state.counters["us_per_trip"] = elapsed.count() / static_cast<double>(trips);
  state.counters["tuples_per_trip"] = static_cast<double>(tuples) / static_cast<double>(trips);
}

/// A fleet of LLL satisfiability probes through the batch engine: the
/// nesting family plus the paper's synchronization constraint, decided as
/// one input-ordered batch; args are worker threads.
void bench_lll_batch_engine(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::vector<il::engine::DecisionJob> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(il::engine::lll_sat_job(nested(1 + (i % 2))));
  jobs.push_back(il::engine::lll_sat_job(
      starts_no_later(concat(lit("p"), tstar()), concat(lit("q"), tstar()))));
  jobs.push_back(il::engine::lll_sat_job(iter_star(concat(lit("P"), tstar()), lit("Q"))));
  jobs.push_back(
      il::engine::lll_sat_job(conj(infloop(lit("x")), semi(tstar(), lit("x", true)))));
  il::engine::Options options;
  options.num_threads = threads;
  for (auto _ : state) {
    auto results = il::engine::decide_batch(jobs, options);
    benchmark::DoNotOptimize(results);
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
}

/// The same fleet re-decided through one long-lived BatchDecider: after the
/// first batch every probe is a DecisionCache hit, the regression-corpus
/// shape the cross-batch cache exists for.
void bench_lll_batch_engine_warm(benchmark::State& state) {
  std::vector<il::engine::DecisionJob> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(il::engine::lll_sat_job(nested(1 + (i % 2))));
  jobs.push_back(il::engine::lll_sat_job(
      starts_no_later(concat(lit("p"), tstar()), concat(lit("q"), tstar()))));
  jobs.push_back(il::engine::lll_sat_job(iter_star(concat(lit("P"), tstar()), lit("Q"))));
  jobs.push_back(
      il::engine::lll_sat_job(conj(infloop(lit("x")), semi(tstar(), lit("x", true)))));
  il::engine::Options options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  il::engine::BatchDecider decider(options);
  {
    auto warmup = decider.run(jobs);
    benchmark::DoNotOptimize(warmup);
  }
  double hit_rate = 0;
  for (auto _ : state) {
    auto results = decider.run(jobs);
    hit_rate = static_cast<double>(decider.stats().decision_hits) /
               static_cast<double>(decider.stats().jobs);
    benchmark::DoNotOptimize(results);
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
  state.counters["hit_rate"] = hit_rate;
}

}  // namespace

BENCHMARK(bench_nested_iterators)->DenseRange(1, 3);
BENCHMARK(bench_nested_decision)->DenseRange(1, 2);
BENCHMARK(bench_deep_first_arg)->DenseRange(1, 3);
BENCHMARK(bench_lll_budget_trip)->Arg(0)->Arg(1);
BENCHMARK(bench_lll_batch_engine)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(bench_lll_batch_engine_warm)->Arg(1)->Arg(4);

BENCHMARK_MAIN();
