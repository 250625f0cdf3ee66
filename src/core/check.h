// Specification checking: evaluate a set of named interval-logic axioms
// against a trace and report which fail.  This is the workhorse used by the
// Chapter 5-8 case studies and their tests.
#pragma once

#include <string>
#include <vector>

#include "core/ast.h"
#include "core/memo.h"
#include "trace/trace.h"

namespace il {

/// One named axiom of a specification.
struct Axiom {
  std::string name;
  FormulaPtr formula;
};

/// A specification: a named collection of axioms, checked conjunctively.
/// The paper splits specifications into Init and Axioms parts; Init clauses
/// are interpreted from the distinguished starting state, which for a
/// recorded trace is simply state 0 — so both parts check identically here
/// and the split is kept only for documentation fidelity.
struct Spec {
  std::string name;
  std::vector<Axiom> init;
  std::vector<Axiom> axioms;

  std::vector<const Axiom*> all() const;
};

struct CheckResult {
  bool ok = true;
  std::vector<std::string> failed;  ///< names of failed axioms

  std::string to_string() const;
};

/// Checks one formula; true iff the stuttering-extended trace satisfies it.
bool check(const FormulaPtr& formula, const Trace& trace, const Env& env = {});

/// Checks a whole specification.
CheckResult check_spec(const Spec& spec, const Trace& trace, const Env& env = {});

/// Checks a whole specification, memoizing subformula evaluation in `cache`
/// (may be null).  This is the single unit of work the batch engine
/// (engine/engine.h) fans out: check_spec() and the engine's workers both
/// run exactly this code, which is what keeps their results bit-identical.
CheckResult check_spec_cached(const Spec& spec, const TraceWindow& trace, const Env& env,
                              EvalCache* cache);

}  // namespace il
