// Tests for the interning layer (core/intern.h): symbol table, the
// hash-consing NodeTable threaded through the f::/t:: factories and both
// parsers, precomputed per-node metadata, the id-keyed Env, and the
// open-addressing EvalCache.
#include <gtest/gtest.h>

#include <vector>

#include "core/ast.h"
#include "core/memo.h"
#include "core/parser.h"
#include "trace/predicate_parser.h"
#include "trace/trace.h"

namespace il {
namespace {

TEST(SymbolTable, InternIsIdempotentAndLookupNeverInserts) {
  SymbolTable& symbols = SymbolTable::global();
  const std::uint32_t id = symbols.intern("intern_test_sym");
  EXPECT_EQ(symbols.intern("intern_test_sym"), id);
  EXPECT_EQ(symbols.lookup("intern_test_sym"), id);
  EXPECT_EQ(symbols.name(id), "intern_test_sym");

  const std::size_t before = symbols.size();
  EXPECT_EQ(symbols.lookup("intern_test_never_seen_xyzzy"), SymbolTable::kNoSymbol);
  EXPECT_EQ(symbols.size(), before);
}

TEST(NodeTable, StructurallyEqualFormulasAreTheSameNode) {
  // Built through different paths: factories vs. the parser.
  auto a = f::conj(f::atom("x > 0"), f::always(f::atom("y = $m")));
  auto b = f::conj(f::atom("x > 0"), f::always(f::atom("y = $m")));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->id(), b->id());

  auto parsed = parse_formula("x > 0 /\\ [] y = $m");
  EXPECT_EQ(parsed.get(), a.get());

  // Distinct structures get distinct ids.
  auto c = f::disj(f::atom("x > 0"), f::always(f::atom("y = $m")));
  EXPECT_NE(c->id(), a->id());
}

TEST(NodeTable, PredicatesAndTermsAreHashConsed) {
  EXPECT_EQ(parse_pred("x + 1 >= $a").get(), parse_pred("x + 1 >= $a").get());
  EXPECT_EQ(parse_term("begin(A) => end(B)").get(), parse_term("begin(A) => end(B)").get());
  // Shared subterms are shared nodes even when the parents differ.
  auto t1 = parse_term("A => B");
  auto t2 = parse_term("A <= B");
  EXPECT_NE(t1.get(), t2.get());
  EXPECT_EQ(t1->left().get(), t2->left().get());
}

TEST(NodeTable, QuantifierIdentityIncludesVarAndDomain) {
  auto f1 = parse_formula("forall a in {1,2} . x = $a");
  auto f2 = parse_formula("forall a in {1,2} . x = $a");
  auto g = parse_formula("forall a in {1,2,3} . x = $a");
  auto h = parse_formula("forall b in {1,2} . x = $b");
  EXPECT_EQ(f1.get(), f2.get());
  EXPECT_NE(f1.get(), g.get());
  EXPECT_NE(f1.get(), h.get());
}

TEST(NodeTable, StatsCountUniqueNodesAndHits) {
  const auto before = NodeTable::global().stats();
  auto a = f::atom("stats_probe_var > 41");
  auto b = f::atom("stats_probe_var > 41");  // pure hit
  EXPECT_EQ(a.get(), b.get());
  const auto after = NodeTable::global().stats();
  EXPECT_GT(after.unique_nodes, before.unique_nodes);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GE(after.symbols, before.symbols);
}

TEST(Metadata, FreeMetaIdsAreSortedUniqueAndRespectBinding) {
  auto leaf = parse_formula("x = $a + $b /\\ y = $a");
  const auto& ids = leaf->free_meta_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_LT(ids[0], ids[1]);

  // The quantifier binds one of them.
  auto bound = f::forall("a", {1, 2}, leaf);
  ASSERT_EQ(bound->free_meta_ids().size(), 1u);
  EXPECT_EQ(SymbolTable::global().name(bound->free_meta_ids()[0]), "b");
  EXPECT_EQ(bound->quant_var(), "a");
  EXPECT_EQ(bound->quant_var_id(), SymbolTable::global().lookup("a"));

  auto closed = f::forall("b", {1}, bound);
  EXPECT_TRUE(closed->free_meta_ids().empty());
}

TEST(Metadata, StarFlagAndDepthArePrecomputed) {
  auto plain = parse_formula("[ A => B ] [] p");
  EXPECT_FALSE(plain->has_star_modifier());
  auto starred = parse_formula("[ A => *B ] [] p");
  EXPECT_TRUE(starred->has_star_modifier());
  EXPECT_TRUE(starred->term()->has_star_modifier());

  auto atom = f::atom("p");
  EXPECT_EQ(atom->depth(), 1u);
  EXPECT_EQ(f::negate(atom)->depth(), 2u);
  EXPECT_GT(starred->depth(), f::negate(atom)->depth());
}

TEST(Metadata, SuffixSensitivityIsPrecomputed) {
  // Atoms and their boolean/quantifier combinations read exactly the first
  // state of the interval: insensitive to how the trace grows.
  EXPECT_FALSE(parse_formula("p")->suffix_sensitive());
  EXPECT_FALSE(parse_formula("!(p /\\ q) -> r")->suffix_sensitive());
  EXPECT_FALSE(f::forall("v", {1, 2}, parse_formula("x = $v"))->suffix_sensitive());

  // Temporal operators quantify over the growing horizon; events scan for
  // changes up to it.  Both make every enclosing formula sensitive.
  EXPECT_TRUE(parse_formula("[] p")->suffix_sensitive());
  EXPECT_TRUE(parse_formula("<> p")->suffix_sensitive());
  EXPECT_TRUE(parse_formula("p /\\ [] q")->suffix_sensitive());
  EXPECT_TRUE(parse_formula("[ A => B ] p")->suffix_sensitive());
  EXPECT_TRUE(parse_formula("*A")->suffix_sensitive());
  EXPECT_TRUE(parse_term("A => B")->suffix_sensitive());
  EXPECT_TRUE(parse_term("begin(A)")->suffix_sensitive());

  // Arrow skeletons with no event anywhere locate nothing: insensitive.
  EXPECT_FALSE(t::fwd(nullptr, nullptr)->suffix_sensitive());
  EXPECT_FALSE(t::begin(t::fwd(nullptr, nullptr))->suffix_sensitive());
  EXPECT_FALSE(f::interval(t::fwd(nullptr, nullptr), f::atom("p"))->suffix_sensitive());
}

// Satellite: collect_vars/collect_metas previously emitted duplicates; they
// now promise sorted-unique output.
TEST(Collect, VarsAndMetasAreSortedUnique) {
  auto repeated = parse_formula("z = 1 /\\ x = 2 /\\ x = $m /\\ z = $m /\\ a > 0");
  std::vector<std::string> vars;
  repeated->collect_vars(vars);
  EXPECT_EQ(vars, (std::vector<std::string>{"a", "x", "z"}));

  std::vector<std::string> metas;
  parse_formula("x = $b + $a /\\ y = $b /\\ <> z = $a")->collect_metas(metas);
  EXPECT_EQ(metas, (std::vector<std::string>{"a", "b"}));

  std::vector<std::string> term_vars;
  parse_term("{x = y} => {y = x}")->collect_vars(term_vars);
  EXPECT_EQ(term_vars, (std::vector<std::string>{"x", "y"}));

  // Bound metas stay excluded (and the remainder is sorted-unique).
  std::vector<std::string> free;
  parse_formula("forall a in {1} . x = $a + $c /\\ y = $c")->collect_metas(free);
  EXPECT_EQ(free, (std::vector<std::string>{"c"}));
}

TEST(Env, BindsSortedAndRestrictsByName) {
  Env env{{"zeta", 1}, {"alpha", 2}};
  env["alpha"] = 3;
  env.bind("mid", 7);
  EXPECT_EQ(env.size(), 3u);

  const std::uint32_t alpha = SymbolTable::global().lookup("alpha");
  const std::uint32_t zeta = SymbolTable::global().lookup("zeta");
  ASSERT_NE(alpha, SymbolTable::kNoSymbol);
  const std::int64_t* v = env.find(alpha);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 3);
  ASSERT_NE(env.find(zeta), nullptr);
  EXPECT_EQ(*env.find(zeta), 1);
  EXPECT_EQ(env.find(SymbolTable::global().intern("unbound_meta_name")), nullptr);

  // Bindings are kept sorted by id regardless of insertion order.
  for (std::size_t i = 1; i < env.bindings().size(); ++i) {
    EXPECT_LT(env.bindings()[i - 1].first, env.bindings()[i].first);
  }

  Env same{{"alpha", 3}, {"mid", 7}, {"zeta", 1}};
  EXPECT_EQ(env, same);
}

TEST(EvalCache, StoreLookupGrowAndCounters) {
  EvalCache cache;
  EXPECT_EQ(cache.size(), 0u);

  EvalCache::Key key;
  key.node = 7;
  key.trace = 3;
  key.lo = 0;
  key.hi = 9;
  key.op = EvalCache::Op::Sat;
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  EvalCache::Entry entry;
  entry.value = true;
  entry.null = false;
  cache.store(key, entry);
  EXPECT_EQ(cache.inserts(), 1u);
  const EvalCache::Entry* hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->value);
  EXPECT_EQ(cache.hits(), 1u);

  // Same node, different env span: a distinct key.
  EvalCache::Key other = key;
  other.n_env = 1;
  other.metas[0] = 5;
  other.values[0] = -2;
  EXPECT_EQ(cache.lookup(other), nullptr);

  // Push the table through several growth doublings; everything stored
  // must remain findable.
  for (std::uint32_t i = 0; i < 5000; ++i) {
    EvalCache::Key k;
    k.node = i;
    k.trace = 1;
    k.lo = i;
    k.hi = i + 1;
    EvalCache::Entry e;
    e.lo = i;
    e.hi = i + 1;
    e.null = false;
    cache.store(k, e);
  }
  for (std::uint32_t i = 0; i < 5000; ++i) {
    EvalCache::Key k;
    k.node = i;
    k.trace = 1;
    k.lo = i;
    k.hi = i + 1;
    const EvalCache::Entry* e = cache.lookup(k);
    ASSERT_NE(e, nullptr) << i;
    EXPECT_EQ(e->lo, i);
  }

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.lookup(key), nullptr);
}

TEST(EvalCache, CapacityIsASoftCap) {
  EvalCache cache;
  cache.set_capacity(10);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EvalCache::Key k;
    k.node = i;
    EvalCache::Entry e;
    cache.store(k, e);
  }
  EXPECT_EQ(cache.size(), 10u);
}

/// The table starts small and doubles on demand, so a cache holding a few
/// entries (a monitor's windowed settled cache is often this small) costs
/// a few slots, not a fixed kilo-slot floor.
TEST(EvalCache, FewEntriesKeepTheTableSmall) {
  EvalCache cache;
  EXPECT_EQ(cache.bytes(), 0u);  // allocated on the first store
  for (std::uint32_t i = 0; i < 8; ++i) {
    EvalCache::Key k;
    k.node = i;
    k.lo = i;
    cache.store(k, EvalCache::Entry{});
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_GT(cache.bytes(), 0u);
  EXPECT_LT(cache.bytes(), 4096u);
}

/// evict_below() sweeps the table in place: entries starting below the
/// bound are gone, every later one is still findable, the table keeps its
/// size, and the lifetime counters carry on.  The table is loaded close to
/// its 70% growth point, so probe runs are long and wrap around its end.
TEST(EvalCache, EvictBelowKeepsLaterEntriesFindableInPlace) {
  const auto key_at = [](std::uint64_t lo, std::uint32_t node) {
    EvalCache::Key k;
    k.node = node;
    k.trace = 2;
    k.lo = lo;
    k.hi = lo + 3;
    return k;
  };
  EvalCache cache;
  constexpr std::uint64_t kPositions = 350;  // two keys each: 700 of 1024 slots
  for (std::uint64_t lo = 0; lo < kPositions; ++lo) {
    for (std::uint32_t node = 0; node < 2; ++node) {
      EvalCache::Entry e;
      e.lo = lo;
      e.hi = node;
      e.null = false;
      cache.store(key_at(lo, node), e);
    }
  }
  ASSERT_EQ(cache.size(), 2 * kPositions);
  const std::size_t bytes = cache.bytes();
  const std::size_t inserts = cache.inserts();

  std::uint64_t bound = 0;
  for (const std::uint64_t next : {100u, 101u, 240u, 349u, 350u}) {
    bound = next;
    cache.evict_below(bound);
    EXPECT_EQ(cache.size(), 2 * (kPositions - bound)) << bound;
    EXPECT_EQ(cache.evicted(), 2 * bound) << bound;
    EXPECT_EQ(cache.bytes(), bytes) << "the sweep reallocated";
    EXPECT_EQ(cache.inserts(), inserts);
    for (std::uint64_t lo = 0; lo < kPositions; ++lo) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        const EvalCache::Entry* e = cache.lookup(key_at(lo, node));
        if (lo < bound) {
          EXPECT_EQ(e, nullptr) << "lo " << lo << " survived evict_below(" << bound << ")";
        } else {
          ASSERT_NE(e, nullptr) << "lo " << lo << " lost by evict_below(" << bound << ")";
          EXPECT_EQ(e->lo, lo);
          EXPECT_EQ(e->hi, node);
        }
      }
    }
  }
  // Emptied by the sweeps, the table still takes new entries.
  EvalCache::Entry e;
  cache.store(key_at(5, 0), e);
  EXPECT_NE(cache.lookup(key_at(5, 0)), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evicted(), 2 * kPositions);
}

TEST(Trace, IdChangesOnMutationAndCopy) {
  TraceBuilder tb;
  tb.set("x", 1);
  tb.commit();
  Trace t1 = tb.take();
  const std::uint32_t id1 = t1.id();

  Trace copy = t1;  // copies may diverge: fresh identity
  EXPECT_NE(copy.id(), id1);
  EXPECT_EQ(copy.states(), t1.states());

  State s;
  s.set("x", 2);
  t1.push(s);  // mutation refreshes the id so stale cache entries cannot hit
  EXPECT_NE(t1.id(), id1);

  const std::uint32_t before_move = t1.id();
  Trace moved = std::move(t1);
  EXPECT_EQ(moved.id(), before_move);  // moves keep identity: same trace
}

}  // namespace
}  // namespace il
