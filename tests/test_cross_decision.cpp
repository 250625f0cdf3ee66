// Cross-procedure agreement: every propositional temporal formula can be
// decided by the Appendix B tableau *and*, via the Section 7 encoding, by
// the Appendix C low-level-language iteration.  The two procedures were
// built from different halves of the paper and share no graph code, so
// agreement over a seeded random corpus is a strong differential check on
// both — and on the unified intern layer that lets one formula's atoms flow
// through both pipelines as the same symbol ids.
#include <gtest/gtest.h>

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

namespace il {
namespace {

using ltl::random_formula;

/// The LLL translation is the paper's nonelementary construction: a random
/// corpus must be filtered to the fragment whose graphs stay small, or a
/// single unlucky nesting dominates (or explodes) the whole test.  A tight
/// trial budget makes infeasible candidates throw almost immediately.
bool lll_feasible(lll::ExprId e) {
  try {
    lll::GraphBuilder probe(/*edge_budget=*/20000);
    probe.build(e);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

TEST(CrossDecision, TableauAndLllAgreeOnSeededCorpus) {
  ltl::Arena arena;
  Rng rng(0xC0FFEE);

  // Build the whole corpus up front (construction is single-threaded by the
  // engine contract), pairing each tableau job with its translation.
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

  engine::Options options;
  options.num_threads = 2;
  const auto results = engine::decide_batch(jobs, options);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(results[2 * i].verdict, results[2 * i + 1].verdict)
        << "tableau vs LLL disagree on: " << texts[i];
  }
}

TEST(CrossDecision, ValidityAgreesThroughNegation) {
  // A is valid iff !A is unsatisfiable — check the tableau's validity
  // verdict against the LLL decision on the encoded negation.
  ltl::Arena arena;
  Rng rng(0xBADA55);
  int checked = 0, candidates = 0;
  while (checked < 20 && candidates < 400) {
    ++candidates;
    const ltl::Id f = random_formula(arena, rng, 2);
    const lll::ExprId neg = lll::encode_ltl(arena, arena.nnf(arena.mk_not(f)));
    if (!lll_feasible(neg)) continue;
    ++checked;
    const auto valid_job = engine::tableau_valid_job(arena, f);
    const bool tableau_valid = engine::run_decision_job(valid_job).verdict;
    const bool lll_neg_sat = lll::lll_satisfiable(neg);
    EXPECT_EQ(tableau_valid, !lll_neg_sat) << arena.to_string(f);
  }
  EXPECT_EQ(checked, 20) << "corpus generator starved";
}

/// Outcome of the corpus filter over a fixed draw sequence: how many
/// formulas it accepts, their total edge count, and an FNV-1a hash over
/// every accepted graph's edge fields in construction order.
struct FilterOutcome {
  std::size_t accepted = 0;
  std::size_t edges = 0;
  std::uint64_t hash = 1469598103934665603ull;
};

FilterOutcome filter_corpus(std::size_t edge_budget) {
  ltl::Arena arena;
  Rng rng(0xF117E5);
  FilterOutcome out;
  const auto mix = [&out](std::uint64_t x) {
    out.hash ^= x;
    out.hash *= 1099511628211ull;
  };
  for (int draw = 0; draw < 2000; ++draw) {
    const ltl::Id nnf = arena.nnf(random_formula(arena, rng, 3));
    const lll::ExprId encoded = lll::encode_ltl(arena, nnf);
    lll::Graph g;
    try {
      lll::GraphBuilder probe(edge_budget);
      g = probe.build(encoded);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++out.accepted;
    out.edges += g.edges.size();
    mix(g.init);
    for (const lll::GEdge& e : g.edges) {
      mix(e.from);
      mix(e.to);
      mix(e.prop);
      mix(e.evs);
      mix(e.ses);
      mix(e.rel);
      mix((e.b_side ? 2u : 0u) | (e.alive ? 1u : 0u));
    }
  }
  return out;
}

/// Pins the corpus filter (the edge budget as a feasibility probe, as the
/// end-to-end decide_corpus workload uses it): which formulas pass and the
/// exact graphs they build.  The budget check is an optimization target, so
/// these values must not move when it changes where or how early it trips.
/// They hold on every compiler because random_formula's draw order is fixed.
TEST(CrossDecision, CorpusFilterAcceptsTheSameGraphs) {
  const FilterOutcome tight = filter_corpus(300);
  EXPECT_EQ(tight.accepted, 1294u);
  EXPECT_EQ(tight.edges, 55007u);
  EXPECT_EQ(tight.hash, 5454340071571442117ull);

  const FilterOutcome corpus = filter_corpus(5000);
  EXPECT_EQ(corpus.accepted, 1473u);
  EXPECT_EQ(corpus.edges, 271001u);
  EXPECT_EQ(corpus.hash, 9156073379071016021ull);
}

TEST(CrossDecision, KnownVerdictsSurviveBothPipelines) {
  const std::vector<std::pair<std::string, bool>> corpus = {
      {"[]p /\\ <>!p", false},
      {"SU(p, q) /\\ []!q", false},
      {"U(p, q) /\\ []!q", true},
      {"[](p \\/ q) /\\ []!p", true},
      {"o p /\\ o !p", false},
      {"<>p /\\ []!p", false},
  };
  ltl::Arena arena;
  std::vector<engine::DecisionJob> jobs;
  for (const auto& [text, expected] : corpus) {
    const ltl::Id nnf = arena.nnf(arena.parse(text));
    jobs.push_back(engine::tableau_sat_job(arena, nnf));
    jobs.push_back(engine::lll_sat_job(lll::encode_ltl(arena, nnf)));
  }
  const auto results = engine::decide_batch(jobs);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(results[2 * i].verdict, corpus[i].second) << corpus[i].first;
    EXPECT_EQ(results[2 * i + 1].verdict, corpus[i].second) << corpus[i].first;
  }
}

}  // namespace
}  // namespace il
