// The dense interned graph substrate (lll/graph.h NodePool) and the engine's
// cross-batch DecisionCache: differential proof that the sorted-span
// representation decides exactly the language the tree-shaped PR 3
// representation did — the seeded 40-formula cross-decision corpus plus the
// A1/A2/A3 nesting family, against tableau-side verdicts, under 1/2/4-thread
// BatchDecider pools — plus unit coverage of the pool itself, the
// byte-aware construction budget, and cache hit/dedup behavior.
#include <gtest/gtest.h>

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

namespace il {
namespace {

using lll::Ev;
using lll::GraphBuilder;
using lll::kEndNode;
using lll::NodeId;
using lll::NodePool;
using lll::Rel;
using ltl::random_formula;

// ---------------------------------------------------------------------------
// NodePool: interning, unions, payload accounting.
// ---------------------------------------------------------------------------

TEST(NodePool, InterningDedupsByValue) {
  NodePool pool;
  EXPECT_EQ(pool.intern_node({}), kEndNode);
  const NodeId a = pool.intern_node({1, 3, 5});
  const NodeId b = pool.intern_node({1, 3, 5});
  const NodeId c = pool.intern_node({1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, kEndNode);
  // Spans read back exactly what was interned.
  const auto s = pool.basis(a);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s[2], 5);
  EXPECT_TRUE(pool.basis(kEndNode).empty());
}

TEST(NodePool, UnionIsMemoizedSetUnion) {
  NodePool pool;
  const NodeId a = pool.intern_node({1, 3});
  const NodeId b = pool.intern_node({2, 3, 7});
  const NodeId u1 = pool.union_nodes(a, b);
  const NodeId u2 = pool.union_nodes(b, a);  // commutative, same id
  EXPECT_EQ(u1, u2);
  EXPECT_EQ(u1, pool.intern_node({1, 2, 3, 7}));
  // Identity and END cases.
  EXPECT_EQ(pool.union_nodes(a, a), a);
  EXPECT_EQ(pool.union_nodes(a, kEndNode), a);
  EXPECT_EQ(pool.union_nodes(kEndNode, b), b);
}

TEST(NodePool, PayloadSetsInternAndMerge) {
  NodePool pool;
  const NodeId n1 = pool.intern_node({1});
  const NodeId n2 = pool.intern_node({2});
  const auto e1 = pool.intern_evs({Ev{0, n1}});
  const auto e2 = pool.intern_evs({Ev{0, n1}});
  EXPECT_EQ(e1, e2);  // hash-deduped: the /\-product shares payloads by id
  EXPECT_EQ(pool.ev_singleton(0, n1), e1);
  const auto merged = pool.union_evs(e1, pool.ev_singleton(1, n2));
  const auto evs = pool.evs(merged);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0], (Ev{0, n1}));
  EXPECT_EQ(evs[1], (Ev{1, n2}));
  EXPECT_EQ(pool.union_evs(merged, e1), merged);  // absorption

  const auto r1 = pool.rel_singleton(n1, n2);
  const auto r2 = pool.union_rels(r1, pool.rel_singleton(n2, n2));
  ASSERT_EQ(pool.rels(r2).size(), 2u);
  EXPECT_EQ(pool.rels(r2)[0], (Rel{n1, n2}));
  EXPECT_EQ(pool.rels(r2)[1], (Rel{n2, n2}));

  EXPECT_GT(pool.payload_bytes(), 0u);
  const std::size_t before = pool.payload_bytes();
  (void)pool.intern_evs({Ev{0, n1}});  // already interned: no growth
  EXPECT_EQ(pool.payload_bytes(), before);
  (void)pool.intern_evs({Ev{5, n2}});  // fresh: arena grows
  EXPECT_GT(pool.payload_bytes(), before);
}

// ---------------------------------------------------------------------------
// Construction budget: edge count AND interned-payload bytes.
// ---------------------------------------------------------------------------

TEST(GraphBudget, EdgeBudgetStillThrowsAndReportsBothCounts) {
  // iter* of a two-instant body: the subset construction emits more than
  // three edges immediately.
  const lll::ExprId e =
      lll::iter_star(lll::semi(lll::lit("bp"), lll::lit("bp")), lll::lit("bq"));
  GraphBuilder tight(/*edge_budget=*/3);
  try {
    tight.build(e);
    FAIL() << "edge budget did not trip";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("edges="), std::string::npos) << msg;
    EXPECT_NE(msg.find("payload_bytes="), std::string::npos) << msg;
    EXPECT_NE(msg.find("/3"), std::string::npos) << msg;  // the edge budget
  }
}

/// The edges= figure a budget message reports.
std::size_t reported_edges(const std::string& msg) {
  const std::size_t at = msg.find("edges=");
  EXPECT_NE(at, std::string::npos) << msg;
  return at == std::string::npos ? 0 : std::stoull(msg.substr(at + 6));
}

TEST(GraphBudget, OverBudgetWaveTripsBeforeEmittingAnEdge) {
  // Two iter(*) levels nested in the first argument: the outer subset
  // construction grows ~18k edges over ten waves, so both budgets below are
  // crossed by a wave in the middle of the build.
  lll::ExprId e = lll::concat(lll::lit("dp"), lll::tstar());
  for (const char* q : {"dq0", "dq1"}) {
    e = lll::iter_paren(e, lll::concat(lll::lit(q), lll::tstar()));
  }
  for (const std::size_t budget : {std::size_t{2000}, std::size_t{5000}}) {
    GraphBuilder tight(budget);
    try {
      tight.build(e);
      FAIL() << "edge budget " << budget << " did not trip";
    } catch (const std::invalid_argument& err) {
      const std::string msg = err.what();
      EXPECT_NE(msg.find("iterator subset construction"), std::string::npos) << msg;
      // Each wave is priced before it runs, so the message reports the
      // wave's projected total, not the first edge past the budget...
      EXPECT_GT(reported_edges(msg), budget + 1) << msg;
      // ...and the wave that would cross the budget emits nothing: every
      // tuple enumerated (inner constructions included) fits the budget.
      EXPECT_LT(tight.iter_stats().choice_tuples, budget);
    }
  }
}

TEST(GraphBudget, PayloadBytesCatchWhatEdgeCountMisses) {
  // Nested iteration interns marker-set unions and relation payloads well
  // before the edge count is interesting: a byte budget of 16 bytes trips even
  // though the edge budget is effectively unlimited.
  const lll::ExprId e =
      lll::iter_star(lll::semi(lll::lit("pp"), lll::lit("pp")), lll::lit("pq"));
  GraphBuilder tight(/*edge_budget=*/1u << 30, /*payload_byte_budget=*/16);
  try {
    tight.build(e);
    FAIL() << "payload-byte budget did not trip";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("payload_bytes="), std::string::npos) << msg;
    EXPECT_NE(msg.find("/16"), std::string::npos) << msg;  // the byte budget
  }
  // The same expression builds fine under the default budgets.
  GraphBuilder roomy;
  EXPECT_NO_THROW(roomy.build(e));
}

// ---------------------------------------------------------------------------
// Differential: dense substrate vs tableau on the PR 3 corpora.
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

/// A_n = infloop( iter(*)((p0 ; p0), q0) as ... ) — the Section 4.5
/// nonelementary family (bench_lll_blowup's A1/A2/A3).
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

TEST(GraphSubstrate, DenseVerdictsMatchTableauOnSeededCorpusAcrossThreadCounts) {
  ltl::Arena arena;
  Rng rng(0xC0FFEE);

  std::vector<std::string> texts;
  std::vector<engine::DecisionJob> jobs;  // even = tableau, odd = lll
  int candidates = 0;
  while (texts.size() < 40 && candidates < 400) {
    ++candidates;
    const ltl::Id f = random_formula(arena, rng, 3);
    const ltl::Id nnf = arena.nnf(f);
    const lll::ExprId encoded = lll::encode_ltl(arena, nnf);
    if (!lll_feasible(encoded)) continue;
    texts.push_back(arena.to_string(f));
    jobs.push_back(engine::tableau_sat_job(arena, nnf));
    jobs.push_back(engine::lll_sat_job(encoded));
  }
  ASSERT_EQ(texts.size(), 40u) << "corpus generator starved";
  // The A1/A2/A3 nesting family rides along (no tableau twin: the family is
  // native LLL).  All three are satisfiable — a has an infinite a-loop.
  const std::size_t family_base = jobs.size();
  for (int n = 1; n <= 3; ++n) jobs.push_back(engine::lll_sat_job(nesting_family(n)));

  std::vector<engine::DecisionResult> reference;
  for (std::size_t threads : {1u, 2u, 4u}) {
    engine::Options options;
    options.num_threads = threads;
    const auto results = engine::decide_batch(jobs, options);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < texts.size(); ++i) {
      EXPECT_EQ(results[2 * i].verdict, results[2 * i + 1].verdict)
          << "tableau vs dense LLL disagree on: " << texts[i] << " (threads=" << threads << ")";
    }
    for (int n = 1; n <= 3; ++n) {
      EXPECT_TRUE(results[family_base + static_cast<std::size_t>(n) - 1].verdict)
          << "A" << n << " must be satisfiable";
    }
    if (reference.empty()) {
      reference = results;
      continue;
    }
    // Bit-identical across pool sizes: verdicts and every stat field.
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].verdict, reference[i].verdict) << i;
      EXPECT_EQ(results[i].graph_nodes, reference[i].graph_nodes) << i;
      EXPECT_EQ(results[i].graph_edges, reference[i].graph_edges) << i;
      EXPECT_EQ(results[i].alive_nodes, reference[i].alive_nodes) << i;
      EXPECT_EQ(results[i].alive_edges, reference[i].alive_edges) << i;
      EXPECT_EQ(results[i].iterations, reference[i].iterations) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// DecisionCache: cross-batch hits and within-batch dedup.
// ---------------------------------------------------------------------------

std::vector<engine::DecisionJob> small_corpus(ltl::Arena& arena) {
  std::vector<engine::DecisionJob> jobs;
  for (const char* s : {"[]p", "<>p /\\ []!p", "SU(p, q)", "U(p, q) /\\ []!q"}) {
    const ltl::Id nnf = arena.nnf(arena.parse(s));
    jobs.push_back(engine::tableau_sat_job(arena, nnf));
    jobs.push_back(engine::lll_sat_job(lll::encode_ltl(arena, nnf)));
  }
  return jobs;
}

TEST(DecisionCache, RepeatedBatchIsAllHits) {
  ltl::Arena arena;
  const auto jobs = small_corpus(arena);
  engine::BatchDecider decider;
  const auto cold = decider.run(jobs);
  EXPECT_EQ(decider.stats().decision_hits, 0u);
  EXPECT_EQ(decider.stats().decision_misses, jobs.size());
  EXPECT_EQ(decider.stats().unique_jobs, jobs.size());
  EXPECT_EQ(decider.stats().decision_inserts, jobs.size());

  const auto warm = decider.run(jobs);
  EXPECT_EQ(decider.stats().decision_hits, jobs.size());
  EXPECT_EQ(decider.stats().decision_misses, 0u);
  EXPECT_EQ(decider.stats().unique_jobs, 0u);
  EXPECT_EQ(decider.stats().decision_entries, jobs.size());
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].verdict, cold[i].verdict) << i;
    EXPECT_EQ(warm[i].graph_nodes, cold[i].graph_nodes) << i;
    EXPECT_EQ(warm[i].graph_edges, cold[i].graph_edges) << i;
    EXPECT_EQ(warm[i].alive_nodes, cold[i].alive_nodes) << i;
    EXPECT_EQ(warm[i].alive_edges, cold[i].alive_edges) << i;
    EXPECT_EQ(warm[i].iterations, cold[i].iterations) << i;
  }
}

TEST(DecisionCache, WithinBatchDuplicatesDecideOnce) {
  ltl::Arena arena;
  const ltl::Id nnf = arena.nnf(arena.parse("[](p -> <>q)"));
  const auto job = engine::tableau_sat_job(arena, nnf);
  std::vector<engine::DecisionJob> jobs(5, job);
  jobs.push_back(engine::lll_sat_job(lll::encode_ltl(arena, nnf)));
  engine::BatchDecider decider;
  const auto results = decider.run(jobs);
  EXPECT_EQ(decider.stats().jobs, 6u);
  EXPECT_EQ(decider.stats().unique_jobs, 2u);  // one tableau + one lll
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(results[i].verdict, results[0].verdict);
    EXPECT_EQ(results[i].graph_nodes, results[0].graph_nodes);
  }
}

TEST(DecisionCache, KnobDisablesCachingEntirely) {
  ltl::Arena arena;
  const auto jobs = small_corpus(arena);
  engine::Options options;
  options.decision_cache = false;
  engine::BatchDecider decider(options);
  decider.run(jobs);
  decider.run(jobs);
  EXPECT_EQ(decider.stats().decision_hits, 0u);
  EXPECT_EQ(decider.stats().decision_entries, 0u);
  EXPECT_EQ(decider.stats().unique_jobs, jobs.size());
  EXPECT_EQ(decider.cache().size(), 0u);
}

TEST(DecisionCache, TableauVerdictsSurviveArenaRebuild) {
  // Tableau keys carry the arena's content fingerprint, not its address: a
  // torn-down arena rebuilt by the same construction sequence re-uses the
  // cached verdict (no clear_cache()-before-teardown requirement), while an
  // arena with different content gets its own slot.
  engine::BatchDecider decider;
  engine::DecisionResult first;
  {
    ltl::Arena a1;
    first = decider.run({engine::tableau_sat_job(a1, a1.parse("[]p"))})[0];
    EXPECT_EQ(decider.cache().hits(), 0u);
  }  // a1 destroyed; its entries stay valid — keys hold no arena pointer

  ltl::Arena a2;  // identical content: same fingerprint, same ids
  const auto rebuilt = decider.run({engine::tableau_sat_job(a2, a2.parse("[]p"))});
  EXPECT_EQ(decider.cache().hits(), 1u);
  EXPECT_EQ(rebuilt[0].verdict, first.verdict);
  EXPECT_EQ(rebuilt[0].graph_nodes, first.graph_nodes);

  // Keys digest the construction *prefix* up to the formula's own node, so
  // growing the live arena afterwards does not orphan its cached verdicts.
  (void)a2.parse("extra /\\ <>later");
  decider.run({engine::tableau_sat_job(a2, a2.parse("[]p"))});
  EXPECT_EQ(decider.cache().hits(), 2u);

  // Diverging the construction sequence changes the fingerprint (and the
  // ids), so the same formula text in a different-content arena is decided
  // afresh rather than wrongly answered from the other arena's slot.
  ltl::Arena a3;
  (void)a3.parse("q /\\ r");
  decider.run({engine::tableau_sat_job(a3, a3.parse("[]p"))});
  EXPECT_EQ(decider.cache().hits(), 2u);  // no new hit

  // LLL expression ids are process-global and share slots across arenas,
  // as before.
  ltl::Arena a4, a5;
  decider.run({engine::lll_sat_job(lll::encode_ltl(a4, a4.nnf(a4.parse("[]p"))))});
  decider.run({engine::lll_sat_job(lll::encode_ltl(a5, a5.nnf(a5.parse("[]p"))))});
  EXPECT_EQ(decider.cache().hits(), 3u);
}

}  // namespace
}  // namespace il
