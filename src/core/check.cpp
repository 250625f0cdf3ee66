#include "core/check.h"

#include "core/semantics.h"
#include "util/strings.h"

namespace il {

std::vector<const Axiom*> Spec::all() const {
  std::vector<const Axiom*> out;
  out.reserve(init.size() + axioms.size());
  for (const auto& a : init) out.push_back(&a);
  for (const auto& a : axioms) out.push_back(&a);
  return out;
}

std::string CheckResult::to_string() const {
  if (ok) return "ok";
  return "failed: " + join(failed, ", ");
}

bool check(const FormulaPtr& formula, const Trace& trace, const Env& env) {
  return holds(*formula, trace, env);
}

CheckResult check_spec_cached(const Spec& spec, const TraceWindow& trace, const Env& env,
                              EvalCache* cache) {
  Evaluator ev(trace, cache);
  const Interval whole = Interval::make(0, Interval::INF);
  CheckResult result;
  for (const Axiom* axiom : spec.all()) {
    if (!ev.sat(*axiom->formula, whole, env)) {
      result.ok = false;
      result.failed.push_back(spec.name + "." + axiom->name);
    }
  }
  return result;
}

CheckResult check_spec(const Spec& spec, const Trace& trace, const Env& env) {
  // The single-trace path is the batch engine's unit of work run inline,
  // with a check-local memoization cache.
  EvalCache cache;
  return check_spec_cached(spec, trace, env, &cache);
}

}  // namespace il
