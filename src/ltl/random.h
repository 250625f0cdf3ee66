// Seeded random LTL formulas: the corpus generator the decision tests and
// benchmarks share.
//
// A formula of depth ≤ `depth` over the atoms p, q, r, each leaf a literal
// of either polarity.  Sizes stay small on purpose: the LLL translation of
// nested untils is the paper's nonelementary-blowup construction (Appendix
// C §4.5), and a corpus must exercise it without tripping the
// subset-construction guard on most draws.
//
// The draw order is fixed, so a seed names the same formulas under every
// compiler.  A binary connective draws its second operand before its first:
// the order GCC gave the generator's former unsequenced calls
// (`mk_and(random_formula(..), random_formula(..))`), so the seeded corpora
// recorded with it are unchanged.
#pragma once

#include "ltl/formula.h"
#include "util/rng.h"

namespace il::ltl {

inline Id random_formula(Arena& arena, Rng& rng, int depth) {
  const char* atoms[] = {"p", "q", "r"};
  if (depth == 0 || rng.chance(0.25)) {
    const char* name = atoms[rng.below(3)];
    return rng.chance(0.5) ? arena.atom(name) : arena.neg_atom(name);
  }
  const auto sub = [&] { return random_formula(arena, rng, depth - 1); };
  switch (rng.below(7)) {
    case 0: {
      const Id b = sub();
      return arena.mk_and(sub(), b);
    }
    case 1: {
      const Id b = sub();
      return arena.mk_or(sub(), b);
    }
    case 2:
      return arena.mk_next(sub());
    case 3:
      return arena.mk_always(sub());
    case 4:
      return arena.mk_eventually(sub());
    case 5: {
      const Id b = sub();
      return arena.mk_until(sub(), b);
    }
    default: {
      const Id b = sub();
      return arena.mk_strong_until(sub(), b);
    }
  }
}

}  // namespace il::ltl
