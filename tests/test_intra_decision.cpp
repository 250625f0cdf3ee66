// Differential determinism suite for intra-decision parallelism: lending a
// ParallelFor to a single decision's internal frontiers — tableau expansion
// waves, the per-eventuality deletion sweeps, and the LLL subset-construction
// waves — must be invisible in every output.  Graphs, NodeId sequences,
// verdicts, and every per-job counter are compared bit-for-bit at widths
// 1/2/4, directly against the layer APIs and through the engine job path
// (including under an outer 2-thread BatchDecider), on the PR 3 seeded
// 40-formula corpus, the A1/A2/A3 nesting family, and the blowup cases.
// Budget exceptions raised mid-build must carry the same message either way.
#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/decision.h"
#include "lll/decide.h"
#include "lll/encode.h"
#include "lll/graph.h"
#include "ltl/formula.h"
#include "ltl/random.h"
#include "ltl/tableau.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace il {
namespace {

using lll::GraphBuilder;
using ltl::random_formula;

// ---------------------------------------------------------------------------
// A std::thread-backed ParallelFor with run_claimed()'s contract: every index
// exactly once, exceptions propagate (lowest worker slot wins).  This is the
// "tests can bind a plain std::thread fan-out" binding util/parallel.h
// promises, so the layer APIs are exercised without the engine pool.
// ---------------------------------------------------------------------------
util::ParallelFor thread_fan(std::size_t width) {
  util::ParallelFor par;
  par.width = width;
  par.run = [width](std::size_t count, const std::function<void(std::size_t)>& item) {
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(width);
    auto work = [&](std::size_t slot) {
      try {
        for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
          item(i);
        }
      } catch (...) {
        errors[slot] = std::current_exception();
      }
    };
    std::vector<std::thread> helpers;
    for (std::size_t w = 1; w < width; ++w) helpers.emplace_back(work, w);
    work(0);
    for (auto& t : helpers) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  };
  return par;
}

// ---------------------------------------------------------------------------
// Corpora: the PR 3 seeded random formulas, the Section 4.5 nesting family,
// and the two blowup shapes from bench_lll_blowup.
// ---------------------------------------------------------------------------

bool lll_feasible(lll::ExprId e) {
  try {
    GraphBuilder probe(/*edge_budget=*/20000);
    probe.build(e);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// A_n = infloop( iter(*)((p0 ; p0), q0) as ... ) — bench_lll_blowup's
/// A1/A2/A3 nonelementary family.
lll::ExprId nesting_family(int n) {
  lll::ExprId acc = lll::kNoExpr;
  for (int i = 0; i < n; ++i) {
    const std::string p = "p" + std::to_string(i);
    const std::string q = "q" + std::to_string(i);
    lll::ExprId it = lll::iter_paren(lll::semi(lll::lit(p), lll::lit(p)), lll::lit(q));
    acc = acc == lll::kNoExpr ? it : lll::same_len(acc, it);
  }
  return lll::infloop(acc);
}

/// iter* nesting in the first argument — the prefix-product stress shape.
lll::ExprId deep_first_arg(int n) {
  lll::ExprId a = lll::concat(lll::lit("p"), lll::tstar());
  for (int i = 0; i < n; ++i) {
    a = lll::iter_paren(a, lll::concat(lll::lit("q" + std::to_string(i)), lll::tstar()));
  }
  return a;
}

/// /\_{i<n} [](p_i -> <>q_i): the deep tableau case (bench_response_chain).
std::string response_chain(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i) out += " /\\ ";
    out += "[](p" + std::to_string(i) + " -> <>q" + std::to_string(i) + ")";
  }
  return out;
}

std::vector<lll::ExprId> lll_corpus() {
  ltl::Arena arena;
  Rng rng(0xC0FFEE);
  std::vector<lll::ExprId> exprs;
  int candidates = 0;
  while (exprs.size() < 40 && candidates < 400) {
    ++candidates;
    const ltl::Id f = random_formula(arena, rng, 3);
    const lll::ExprId encoded = lll::encode_ltl(arena, arena.nnf(f));
    if (!lll_feasible(encoded)) continue;
    exprs.push_back(encoded);
  }
  for (int n = 1; n <= 3; ++n) exprs.push_back(nesting_family(n));
  exprs.push_back(deep_first_arg(1));
  exprs.push_back(deep_first_arg(2));
  return exprs;
}

// ---------------------------------------------------------------------------
// LLL layer: the subset construction must intern the same NodeIds in the
// same order at any width.  Graph::to_string() renders nodes (by id, with
// their basis spans), the initial node, and every edge in emission order,
// so string equality is bit-identity of the whole graph.
// ---------------------------------------------------------------------------
TEST(IntraDecision, LllGraphsBitIdenticalAcrossWidths) {
  const auto exprs = lll_corpus();
  ASSERT_GE(exprs.size(), 45u) << "corpus generator starved";
  const util::ParallelFor fan2 = thread_fan(2);
  const util::ParallelFor fan4 = thread_fan(4);

  std::size_t parallel_waves = 0;
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    GraphBuilder serial;
    const lll::Graph ref = serial.build(exprs[i]);
    const auto ref_stats = serial.iter_stats();

    for (const util::ParallelFor* par : {&fan2, &fan4}) {
      GraphBuilder wide;
      wide.set_parallel(par);
      const lll::Graph got = wide.build(exprs[i]);

      EXPECT_EQ(got.to_string(), ref.to_string())
          << "expr " << i << " width " << par->width;
      EXPECT_EQ(got.nodes, ref.nodes) << "expr " << i;
      EXPECT_EQ(got.init, ref.init) << "expr " << i;
      ASSERT_EQ(got.edges.size(), ref.edges.size()) << "expr " << i;

      // The wave/frontier/prefix counters are part of the deterministic
      // contract too: DecisionResult caches them, so they must not depend
      // on scheduling.
      const auto& ws = wide.iter_stats();
      EXPECT_EQ(ws.waves, ref_stats.waves) << "expr " << i;
      EXPECT_EQ(ws.frontier_sets, ref_stats.frontier_sets) << "expr " << i;
      EXPECT_EQ(ws.choice_tuples, ref_stats.choice_tuples) << "expr " << i;
      EXPECT_EQ(ws.prefix_hits, ref_stats.prefix_hits) << "expr " << i;
      EXPECT_EQ(ws.prefix_misses, ref_stats.prefix_misses) << "expr " << i;
      parallel_waves += ws.waves;
    }
  }
  // The corpus must actually exercise multi-wave builds, or width-invariance
  // proves little.
  EXPECT_GT(parallel_waves, 0u);
}

// ---------------------------------------------------------------------------
// Tableau layer: node labels, edge wiring, and the deletion fixpoint must be
// identical at any width — compared structurally, edge by edge.
// ---------------------------------------------------------------------------
TEST(IntraDecision, TableauGraphsBitIdenticalAcrossWidths) {
  std::vector<std::string> texts = {response_chain(1), response_chain(2),
                                    response_chain(3),
                                    "U(p0, U(p1, U(p2, q)))",
                                    "[](p -> <>q) /\\ <>p /\\ []!q"};
  {
    ltl::Arena gen;
    Rng rng(0xC0FFEE);
    for (int i = 0; i < 10; ++i) {
      texts.push_back(gen.to_string(random_formula(gen, rng, 3)));
    }
  }
  const util::ParallelFor fan2 = thread_fan(2);
  const util::ParallelFor fan4 = thread_fan(4);

  for (std::size_t c = 0; c < texts.size(); ++c) {
    ltl::Arena arena;
    const ltl::Id f = arena.nnf(arena.parse(texts[c]));

    ltl::Tableau ref(arena, f);
    const bool ref_sat = ref.iterate();

    for (const util::ParallelFor* par : {&fan2, &fan4}) {
      ltl::Tableau got(arena, f, par);

      // Identical construction: same nodes in the same order with the same
      // labels, same edge sequence with the same endpoints and payloads.
      ASSERT_EQ(got.node_count(), ref.node_count()) << texts[c];
      ASSERT_EQ(got.edge_count(), ref.edge_count()) << texts[c];
      EXPECT_EQ(got.initial_nodes(), ref.initial_nodes()) << texts[c];
      for (std::size_t n = 0; n < ref.node_count(); ++n) {
        EXPECT_EQ(got.nodes()[n].label, ref.nodes()[n].label)
            << texts[c] << " node " << n;
        EXPECT_EQ(got.nodes()[n].out, ref.nodes()[n].out) << texts[c] << " node " << n;
        EXPECT_EQ(got.nodes()[n].in, ref.nodes()[n].in) << texts[c] << " node " << n;
      }
      for (std::size_t e = 0; e < ref.edge_count(); ++e) {
        EXPECT_EQ(got.edges()[e].from, ref.edges()[e].from) << texts[c] << " edge " << e;
        EXPECT_EQ(got.edges()[e].to, ref.edges()[e].to) << texts[c] << " edge " << e;
        EXPECT_EQ(got.edges()[e].lits, ref.edges()[e].lits) << texts[c] << " edge " << e;
        EXPECT_EQ(got.edges()[e].evs, ref.edges()[e].evs) << texts[c] << " edge " << e;
      }
      EXPECT_EQ(got.wave_count(), ref.wave_count()) << texts[c];
      EXPECT_EQ(got.frontier_set_count(), ref.frontier_set_count()) << texts[c];

      // Identical deletion fixpoint: verdict and every alive flag.
      EXPECT_EQ(got.iterate(par), ref_sat) << texts[c];
      for (std::size_t n = 0; n < ref.node_count(); ++n) {
        EXPECT_EQ(got.nodes()[n].alive, ref.nodes()[n].alive)
            << texts[c] << " node " << n;
      }
      for (std::size_t e = 0; e < ref.edge_count(); ++e) {
        EXPECT_EQ(got.edges()[e].alive, ref.edges()[e].alive)
            << texts[c] << " edge " << e;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine path: Options::intra_decision_threads at 1/2/4, alone and under an
// outer 2-thread BatchDecider fan-out, must reproduce the inline run's
// DecisionResults field-for-field — counters included, since the cache
// stores them.
// ---------------------------------------------------------------------------
std::vector<engine::DecisionJob> engine_corpus(ltl::Arena& arena) {
  std::vector<engine::DecisionJob> jobs;
  Rng rng(0xC0FFEE);
  int candidates = 0;
  std::size_t pairs = 0;
  while (pairs < 40 && candidates < 400) {
    ++candidates;
    const ltl::Id f = random_formula(arena, rng, 3);
    const ltl::Id nnf = arena.nnf(f);
    const lll::ExprId encoded = lll::encode_ltl(arena, nnf);
    if (!lll_feasible(encoded)) continue;
    ++pairs;
    jobs.push_back(engine::tableau_sat_job(arena, nnf));
    jobs.push_back(engine::lll_sat_job(encoded));
  }
  for (int n = 1; n <= 3; ++n) jobs.push_back(engine::lll_sat_job(nesting_family(n)));
  jobs.push_back(engine::lll_sat_job(deep_first_arg(2)));
  jobs.push_back(engine::tableau_sat_job(arena, arena.nnf(arena.parse(response_chain(3)))));
  return jobs;
}

void expect_same_results(const std::vector<engine::DecisionResult>& got,
                         const std::vector<engine::DecisionResult>& ref,
                         const std::string& what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].verdict, ref[i].verdict) << what << " job " << i;
    EXPECT_EQ(got[i].graph_nodes, ref[i].graph_nodes) << what << " job " << i;
    EXPECT_EQ(got[i].graph_edges, ref[i].graph_edges) << what << " job " << i;
    EXPECT_EQ(got[i].alive_nodes, ref[i].alive_nodes) << what << " job " << i;
    EXPECT_EQ(got[i].alive_edges, ref[i].alive_edges) << what << " job " << i;
    EXPECT_EQ(got[i].iterations, ref[i].iterations) << what << " job " << i;
    EXPECT_EQ(got[i].waves, ref[i].waves) << what << " job " << i;
    EXPECT_EQ(got[i].frontier_sets, ref[i].frontier_sets) << what << " job " << i;
    EXPECT_EQ(got[i].sweep_tasks, ref[i].sweep_tasks) << what << " job " << i;
    EXPECT_EQ(got[i].prefix_hits, ref[i].prefix_hits) << what << " job " << i;
    EXPECT_EQ(got[i].prefix_misses, ref[i].prefix_misses) << what << " job " << i;
  }
}

TEST(IntraDecision, EnginePathBitIdenticalUnderInnerAndOuterFanOut) {
  ltl::Arena arena;
  const auto jobs = engine_corpus(arena);
  ASSERT_GE(jobs.size(), 85u) << "corpus generator starved";

  engine::Options inline_opts;
  inline_opts.num_threads = 1;
  inline_opts.intra_decision_threads = 1;
  const auto reference = engine::decide_batch(jobs, inline_opts);

  for (const std::size_t outer : {1u, 2u}) {
    for (const std::size_t intra : {2u, 4u}) {
      engine::Options opts;
      opts.num_threads = outer;
      opts.intra_decision_threads = intra;
      engine::BatchDecider decider(opts);
      const auto results = decider.run(jobs);
      expect_same_results(results, reference,
                          "outer=" + std::to_string(outer) +
                              " intra=" + std::to_string(intra));
      // The stats surface reports the lent width and the work units the
      // frontiers could fan (all deterministic, summed over the run).
      EXPECT_EQ(decider.stats().intra.threads, intra);
      EXPECT_GT(decider.stats().intra.waves, 0u);
      EXPECT_GT(decider.stats().intra.frontier_sets, 0u);
      EXPECT_GT(decider.stats().intra.sweep_tasks, 0u);
      // deep_first_arg(2) is in the corpus, so the prefix-product memo must
      // have fired.
      EXPECT_GT(decider.stats().intra.prefix_hits, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Budget guard: the edge/byte budgets must still trip under a parallel
// build, reporting both counts — with the same message as the inline build,
// since waves are priced (where the edge budget is charged) and emitted
// (where the byte budget is charged) sequentially.
// ---------------------------------------------------------------------------
TEST(IntraDecision, BudgetExceptionsSurviveParallelWaves) {
  const util::ParallelFor fan4 = thread_fan(4);

  // deep_first_arg(2) builds ~18k edges over ten waves, so a 2000-edge
  // budget is crossed by a wave in the middle of the build, after earlier
  // waves ran the parallel expansion; that wave is priced, and trips,
  // before its own phase 1 starts.
  const lll::ExprId big = deep_first_arg(2);
  GraphBuilder serial(/*edge_budget=*/2000);
  std::string serial_msg;
  try {
    serial.build(big);
    FAIL() << "edge budget did not trip inline";
  } catch (const std::invalid_argument& err) {
    serial_msg = err.what();
  }
  const std::size_t serial_tuples = serial.iter_stats().choice_tuples;
  EXPECT_NE(serial_msg.find("edges="), std::string::npos) << serial_msg;
  EXPECT_NE(serial_msg.find("payload_bytes="), std::string::npos) << serial_msg;
  EXPECT_NE(serial_msg.find("/2000"), std::string::npos) << serial_msg;
  // The tripping wave emitted nothing: its projected total is past the
  // budget, the tuples actually enumerated are not.
  EXPECT_GT(std::stoull(serial_msg.substr(serial_msg.find("edges=") + 6)), 2000u);
  EXPECT_LT(serial_tuples, 2000u);

  {
    GraphBuilder tight(/*edge_budget=*/2000);
    tight.set_parallel(&fan4);
    try {
      tight.build(big);
      FAIL() << "edge budget did not trip at width 4";
    } catch (const std::invalid_argument& err) {
      EXPECT_EQ(std::string(err.what()), serial_msg);
    }
    EXPECT_EQ(tight.iter_stats().choice_tuples, serial_tuples);
  }

  // The byte budget too, through the engine's intra path: a tiny payload
  // budget trips identically at width 1 and width 4.
  for (const util::ParallelFor* par : {static_cast<const util::ParallelFor*>(nullptr), &fan4}) {
    GraphBuilder tight(/*edge_budget=*/1u << 30, /*payload_byte_budget=*/16);
    if (par != nullptr) tight.set_parallel(par);
    try {
      tight.build(big);
      FAIL() << "payload-byte budget did not trip";
    } catch (const std::invalid_argument& err) {
      const std::string msg = err.what();
      EXPECT_NE(msg.find("payload_bytes="), std::string::npos) << msg;
      EXPECT_NE(msg.find("/16"), std::string::npos) << msg;
    }
  }
}

}  // namespace
}  // namespace il
