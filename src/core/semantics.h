// The formal model of Chapter 3: satisfaction of interval formulas over
// (stuttering-extended) computation state sequences.
//
// An Interval is a pair <lo, hi> of positions in the infinite extended
// sequence, with hi possibly INF, or the distinguished null interval ⊥
// returned when an interval term cannot be constructed.  All interval
// functions are strict on ⊥, and any formula holds on ⊥ (the paper's
// partial-correctness / vacuous-satisfaction semantics).
//
// The F function ("find") implements the paper's interval-construction
// equations verbatim:
//
//   F(=>,    <i,j>, d) = F(<=, <i,j>, d) = <i,j>
//   F(I=>,   <i,j>, d) = < last(F(I, <i,j>, d)), j >
//   F(I<=,   <i,j>, d) = < last(F(I, <i,j>, B)), j >
//   F(=>J,   <i,j>, d) = < i, last(F(J, <i,j>, F)) >
//   F(<=J,   <i,j>, d) = < i, last(F(J, <i,j>, d)) >
//   F(I=>J,  <i,j>, d) = F(=>J, F(I=>, <i,j>, d), F)
//   F(I<=J,  <i,j>, d) = F(I<=, F(<=J, <i,j>, d), F)
//   F(event a, <i,j>, F) = min changeset(a, <i,j>)
//   F(event a, <i,j>, B) = max changeset(a, <i,j>)
//   F(begin I, ...) = unit interval at first(F(I,...))
//   F(end I,   ...) = unit interval at last(F(I,...)); ⊥ if F(I,...) infinite
//
// where changeset(a, <i,j>) = { <k-1,k> : k in <i+1,j>,
//                               <k-1,j> |/= a  and  <k,j> |= a }.
//
// The * term modifier is supported natively: [I]a where I contains starred
// subterms is interpreted as [I']a conjoined with the requirement that each
// starred subterm be constructible in its own search context (Appendix A
// treats * as exactly this syntactic sugar; see star_reduction.h for the
// purely syntactic elimination, which is property-tested against this native
// interpretation).
#pragma once

#include <cstddef>
#include <limits>

#include "core/ast.h"
#include "core/memo.h"
#include "trace/trace.h"

namespace il {

/// A (possibly null, possibly right-infinite) interval of sequence positions.
struct Interval {
  static constexpr std::size_t INF = std::numeric_limits<std::size_t>::max();

  std::size_t lo = 0;
  std::size_t hi = 0;
  bool null = true;

  static Interval none() { return Interval{}; }
  static Interval make(std::size_t lo, std::size_t hi) {
    Interval iv;
    iv.lo = lo;
    iv.hi = hi;
    iv.null = false;
    return iv;
  }

  bool infinite() const { return !null && hi == INF; }
  std::string to_string() const;
};

/// Direction of search for the F function.
enum class Dir { Forward, Backward };

/// Evaluator binding a formula language to one computation: a trace
/// window (trace/trace.h; a whole Trace converts to one implicitly).
///
/// The same instance may be reused for many formulas over the same window;
/// it is cheap to construct and copies only the window handle (the trace
/// behind it must outlive the evaluator).
class Evaluator {
 public:
  explicit Evaluator(const TraceWindow& trace);

  /// As above, but memoizing interval-construction and temporal-operator
  /// results in `cache` (not owned; may be shared across evaluators for the
  /// same or different windows — keys carry the window identity).  Results
  /// are bit-identical to the uncached evaluator.
  Evaluator(const TraceWindow& trace, EvalCache* cache);

  /// As above, but cache keys carry `cache_key_id` instead of the window's
  /// id().  For owners that manage invalidation themselves: the incremental
  /// monitor keys its settled-prefix cache by the window's *stable* lineage
  /// id, so entries survive advances (which only ever grow the suffix)
  /// instead of being orphaned by every identity bump.
  Evaluator(const TraceWindow& trace, EvalCache* cache, std::uint32_t cache_key_id);

  /// s<i,j> |= a.  The interval must be non-null.
  bool sat(const Formula& formula, Interval iv, const Env& env) const;

  /// The F function: locates interval term `term` inside context `ctx`
  /// searching in direction `dir`.  Returns ⊥ (null) when not constructible.
  /// Star modifiers inside `term` are ignored here (they affect only
  /// requiredness, not location).
  Interval find(const Term& term, Interval ctx, Dir dir, const Env& env) const;

  /// The requiredness condition contributed by * modifiers in `term`
  /// when it is located in context `ctx` with direction `dir`.
  /// True when `term` carries no stars.
  bool star_requirements(const Term& term, Interval ctx, Dir dir, const Env& env) const;

 private:
  /// Largest index at which formula evaluation can still change; iteration
  /// bound for [] / <> / changesets on right-infinite intervals.
  std::size_t horizon(Interval iv) const;

  bool sat_event_at(const Formula& defining, std::size_t k, std::size_t j,
                    const Env& env) const;

  /// Uncached bodies of sat()/find(); the public entry points consult the
  /// cache (when present) and delegate here on a miss.
  bool sat_uncached(const Formula& formula, Interval iv, const Env& env) const;
  Interval find_uncached(const Term& term, Interval ctx, Dir dir, const Env& env) const;

  /// The window identity for cache keys: the override when set, else the
  /// window's id() (which every advance refreshes).
  std::uint32_t cache_key_id() const;

  const TraceWindow trace_;
  EvalCache* cache_ = nullptr;
  std::uint32_t key_override_ = 0;  ///< 0: use trace_.id() (ids start at 1)
};

/// Top-level satisfaction: the whole computation satisfies the formula
/// (s<0,inf> |= a in the paper's notation, which writes it s<1,inf>).
bool holds(const Formula& formula, const TraceWindow& trace, const Env& env = {});

/// Locates a term in the whole-computation context (diagnostic helper).
Interval locate(const Term& term, const TraceWindow& trace, const Env& env = {});

}  // namespace il
