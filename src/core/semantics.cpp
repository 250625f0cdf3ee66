#include "core/semantics.h"

#include <algorithm>
#include <vector>

#include "util/assert.h"

namespace il {

std::string Interval::to_string() const {
  if (null) return "<null>";
  std::string hi_s = (hi == INF) ? "inf" : std::to_string(hi);
  return "<" + std::to_string(lo) + "," + hi_s + ">";
}

Evaluator::Evaluator(const TraceWindow& trace) : trace_(trace) {
  IL_REQUIRE(!trace.empty(), "evaluation requires a non-empty trace");
}

Evaluator::Evaluator(const TraceWindow& trace, EvalCache* cache) : trace_(trace), cache_(cache) {
  IL_REQUIRE(!trace.empty(), "evaluation requires a non-empty trace");
}

Evaluator::Evaluator(const TraceWindow& trace, EvalCache* cache, std::uint32_t cache_key_id)
    : trace_(trace), cache_(cache), key_override_(cache_key_id) {
  IL_REQUIRE(!trace.empty(), "evaluation requires a non-empty trace");
  IL_REQUIRE(cache_key_id != 0, "0 is reserved for 'use the live trace id'");
}

std::uint32_t Evaluator::cache_key_id() const {
  return key_override_ != 0 ? key_override_ : trace_.id();
}

namespace {

/// Only the recursion points whose recomputation is super-constant are worth
/// a cache entry: temporal operators re-evaluate their body per position,
/// interval formulas re-run the F search, and quantifiers multiply both.
bool memoizable(Formula::Kind kind) {
  switch (kind) {
    case Formula::Kind::Always:
    case Formula::Kind::Eventually:
    case Formula::Kind::Interval:
    case Formula::Kind::Occurs:
    case Formula::Kind::Forall:
    case Formula::Kind::Exists:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool Evaluator::sat(const Formula& formula, Interval iv, const Env& env) const {
  IL_REQUIRE(!iv.null, "sat() requires a non-null interval (null is vacuous at the caller)");
  if (cache_ == nullptr || !memoizable(formula.kind())) return sat_uncached(formula, iv, env);
  EvalCache::Key key;
  key.node = formula.id();
  key.trace = cache_key_id();
  key.lo = iv.lo;
  key.hi = iv.hi;
  key.op = EvalCache::Op::Sat;
  if (!restrict_env_span(formula.free_meta_ids(), env, key.n_env, key.metas, key.values)) {
    cache_->note_env_overflow();
    return sat_uncached(formula, iv, env);
  }
  if (const EvalCache::Entry* hit = cache_->lookup(key)) return hit->value;
  const bool result = sat_uncached(formula, iv, env);
  EvalCache::Entry entry;
  entry.value = result;
  cache_->store(key, entry);
  return result;
}

Interval Evaluator::find(const Term& term, Interval ctx, Dir dir, const Env& env) const {
  if (ctx.null) return Interval::none();  // strictness on ⊥
  // Only Event terms do super-constant work (the changeset scan evaluates
  // the defining formula at every position); the other kinds delegate to
  // child find() calls — which hit this cache themselves — plus O(1) glue,
  // so caching them would cost more than it saves.
  if (cache_ == nullptr || term.kind() != Term::Kind::Event) {
    return find_uncached(term, ctx, dir, env);
  }
  EvalCache::Key key;
  key.node = term.id();
  key.trace = cache_key_id();
  key.lo = ctx.lo;
  key.hi = ctx.hi;
  key.op = dir == Dir::Forward ? EvalCache::Op::FindFwd : EvalCache::Op::FindBwd;
  if (!restrict_env_span(term.free_meta_ids(), env, key.n_env, key.metas, key.values)) {
    cache_->note_env_overflow();
    return find_uncached(term, ctx, dir, env);
  }
  if (const EvalCache::Entry* hit = cache_->lookup(key)) {
    return hit->null ? Interval::none() : Interval::make(hit->lo, hit->hi);
  }
  const Interval result = find_uncached(term, ctx, dir, env);
  EvalCache::Entry entry;
  entry.lo = result.lo;
  entry.hi = result.hi;
  entry.null = result.null;
  cache_->store(key, entry);
  return result;
}

std::size_t Evaluator::horizon(Interval iv) const {
  IL_CHECK(!iv.null);
  if (iv.hi != Interval::INF) return iv.hi;
  // On a stuttering-extended trace, every suffix starting at or beyond the
  // last explicit state is the same constant sequence, so no formula's truth
  // can change past that point.
  return std::max(iv.lo, trace_.last_index());
}

bool Evaluator::sat_uncached(const Formula& formula, Interval iv, const Env& env) const {
  switch (formula.kind()) {
    case Formula::Kind::Atom:
      // "P is true of the first state of the interval."
      return formula.pred()->eval(trace_.at(iv.lo), env);

    case Formula::Kind::Not:
      return !sat(*formula.lhs(), iv, env);
    case Formula::Kind::And:
      return sat(*formula.lhs(), iv, env) && sat(*formula.rhs(), iv, env);
    case Formula::Kind::Or:
      return sat(*formula.lhs(), iv, env) || sat(*formula.rhs(), iv, env);
    case Formula::Kind::Implies:
      return !sat(*formula.lhs(), iv, env) || sat(*formula.rhs(), iv, env);
    case Formula::Kind::Iff:
      return sat(*formula.lhs(), iv, env) == sat(*formula.rhs(), iv, env);

    case Formula::Kind::Always: {
      // <i,j> |= []a  iff  forall k in <i,j> : <k,j> |= a
      const std::size_t kmax = horizon(iv);
      for (std::size_t k = iv.lo; k <= kmax; ++k) {
        if (!sat(*formula.lhs(), Interval::make(k, iv.hi), env)) return false;
      }
      return true;
    }

    case Formula::Kind::Eventually: {
      const std::size_t kmax = horizon(iv);
      for (std::size_t k = iv.lo; k <= kmax; ++k) {
        if (sat(*formula.lhs(), Interval::make(k, iv.hi), env)) return true;
      }
      return false;
    }

    case Formula::Kind::Interval: {
      // [I]a: vacuously true when I cannot be constructed.  Starred
      // subterms additionally require their own constructibility.
      if (!star_requirements(*formula.term(), iv, Dir::Forward, env)) return false;
      const Interval found = find(*formula.term(), iv, Dir::Forward, env);
      if (found.null) return true;
      return sat(*formula.lhs(), found, env);
    }

    case Formula::Kind::Occurs: {
      // *I == ![I]false : true exactly when the interval can be found
      // (and any starred subterms can as well).
      if (!star_requirements(*formula.term(), iv, Dir::Forward, env)) return false;
      return !find(*formula.term(), iv, Dir::Forward, env).null;
    }

    case Formula::Kind::Forall: {
      Env e = env;
      for (std::int64_t v : formula.quant_domain()) {
        e.bind(formula.quant_var_id(), v);
        if (!sat(*formula.lhs(), iv, e)) return false;
      }
      return true;
    }
    case Formula::Kind::Exists: {
      Env e = env;
      for (std::int64_t v : formula.quant_domain()) {
        e.bind(formula.quant_var_id(), v);
        if (sat(*formula.lhs(), iv, e)) return true;
      }
      return false;
    }
  }
  IL_CHECK(false, "unreachable");
}

bool Evaluator::sat_event_at(const Formula& defining, std::size_t k, std::size_t j,
                             const Env& env) const {
  return sat(defining, Interval::make(k, j), env);
}

Interval Evaluator::find_uncached(const Term& term, Interval ctx, Dir dir, const Env& env) const {
  switch (term.kind()) {
    case Term::Kind::Event: {
      // changeset(a, <i,j>): the intervals of change <k-1,k> within <i,j>.
      // A change requires the suffixes from k-1 and k to differ in truth,
      // which is impossible beyond the last explicit state of a stuttering-
      // extended trace, so the scan is bounded by the trace horizon.
      // Consecutive probes share a position, so each scan evaluates the
      // defining formula once per position (rolling the previous value).
      const std::size_t first_k = ctx.lo + 1;
      const std::size_t last_k = std::min(ctx.hi, trace_.last_index());
      if (first_k > last_k) return Interval::none();
      if (dir == Dir::Forward) {
        bool prev = sat_event_at(*term.event(), first_k - 1, ctx.hi, env);
        for (std::size_t k = first_k; k <= last_k; ++k) {
          const bool cur = sat_event_at(*term.event(), k, ctx.hi, env);
          if (!prev && cur) return Interval::make(k - 1, k);
          prev = cur;
        }
      } else {
        // max of the changeset; the set is finite because the stuttering
        // extension admits no changes past the horizon.
        bool at_k = sat_event_at(*term.event(), last_k, ctx.hi, env);
        for (std::size_t k = last_k; k >= first_k; --k) {
          const bool at_km1 = sat_event_at(*term.event(), k - 1, ctx.hi, env);
          if (!at_km1 && at_k) return Interval::make(k - 1, k);
          at_k = at_km1;
          if (k == first_k) break;  // guard size_t underflow
        }
      }
      return Interval::none();
    }

    case Term::Kind::Begin: {
      const Interval inner = find(*term.arg(), ctx, dir, env);
      if (inner.null) return Interval::none();
      return Interval::make(inner.lo, inner.lo);
    }

    case Term::Kind::End: {
      const Interval inner = find(*term.arg(), ctx, dir, env);
      if (inner.null || inner.hi == Interval::INF) return Interval::none();
      return Interval::make(inner.hi, inner.hi);
    }

    case Term::Kind::Star:
      // The modifier does not affect location, only requiredness.
      return find(*term.arg(), ctx, dir, env);

    case Term::Kind::Fwd: {
      // Evaluate F(I=>, ctx, d) first (identity when I is absent).
      Interval mid = ctx;
      if (term.left()) {
        const Interval l = find(*term.left(), ctx, dir, env);
        if (l.null || l.hi == Interval::INF) return Interval::none();
        mid = Interval::make(l.hi, ctx.hi);
      }
      if (!term.right()) return mid;
      // F(=>J, mid, F) = < mid.lo, last(F(J, mid, F)) >
      const Interval r = find(*term.right(), mid, Dir::Forward, env);
      if (r.null || r.hi == Interval::INF) return Interval::none();
      return Interval::make(mid.lo, r.hi);
    }

    case Term::Kind::Bwd: {
      // F(I<=J, ctx, d) = F(I<=, F(<=J, ctx, d), F)
      // First bound the context by the end of J (searched with direction d).
      Interval mid = ctx;
      if (term.right()) {
        const Interval r = find(*term.right(), ctx, dir, env);
        if (r.null || r.hi == Interval::INF) return Interval::none();
        mid = Interval::make(ctx.lo, r.hi);
      }
      if (!term.left()) return mid;
      // F(I<=, mid, F) = < last(F(I, mid, B)), mid.hi >  (backward search)
      const Interval l = find(*term.left(), mid, Dir::Backward, env);
      if (l.null || l.hi == Interval::INF) return Interval::none();
      return Interval::make(l.hi, mid.hi);
    }
  }
  IL_CHECK(false, "unreachable");
}

bool Evaluator::star_requirements(const Term& term, Interval ctx, Dir dir,
                                  const Env& env) const {
  if (!term.has_star_modifier()) return true;  // O(1): cached at construction
  if (ctx.null) return true;  // sub-context not establishable: vacuous
  switch (term.kind()) {
    case Term::Kind::Event:
      // Events defined by formulas containing their own interval operators
      // carry requirements through formula evaluation (sat() interprets
      // stars natively); the event term itself contributes none.
      return true;

    case Term::Kind::Begin:
    case Term::Kind::End:
      return star_requirements(*term.arg(), ctx, dir, env);

    case Term::Kind::Star:
      // *I: I itself must be constructible in this context...
      if (find(*term.arg(), ctx, dir, env).null) return false;
      // ...and any nested stars must also be satisfied.
      return star_requirements(*term.arg(), ctx, dir, env);

    case Term::Kind::Fwd: {
      if (term.left() && !star_requirements(*term.left(), ctx, dir, env)) return false;
      if (!term.right()) return true;
      Interval mid = ctx;
      if (term.left()) {
        const Interval l = find(*term.left(), ctx, dir, env);
        if (l.null || l.hi == Interval::INF) return true;  // context fails: vacuous
        mid = Interval::make(l.hi, ctx.hi);
      }
      return star_requirements(*term.right(), mid, Dir::Forward, env);
    }

    case Term::Kind::Bwd: {
      if (term.right() && !star_requirements(*term.right(), ctx, dir, env)) return false;
      if (!term.left()) return true;
      Interval mid = ctx;
      if (term.right()) {
        const Interval r = find(*term.right(), ctx, dir, env);
        if (r.null || r.hi == Interval::INF) return true;  // context fails: vacuous
        mid = Interval::make(ctx.lo, r.hi);
      }
      return star_requirements(*term.left(), mid, Dir::Backward, env);
    }
  }
  IL_CHECK(false, "unreachable");
}

bool holds(const Formula& formula, const TraceWindow& trace, const Env& env) {
  Evaluator ev(trace);
  return ev.sat(formula, Interval::make(0, Interval::INF), env);
}

Interval locate(const Term& term, const TraceWindow& trace, const Env& env) {
  Evaluator ev(trace);
  return ev.find(term, Interval::make(0, Interval::INF), Dir::Forward, env);
}

}  // namespace il
