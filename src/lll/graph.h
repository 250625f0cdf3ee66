// Graph construction for the low-level language (Appendix C Section 4.1).
//
// Each expression a is compiled to a graph G_a whose infinite paths (with
// all eventualities satisfied) are exactly the computations psi_I(a):
//
//   * Nodes are subsets of a node basis (fresh integers); the END node is
//     the empty set.  Using basis subsets lets concurrent composition take
//     unions of nodes ("markers" on several component states at once).
//   * Edges carry a propositional part (one conjunction of literals over
//     interned variable ids), a set of eventualities and satisfied
//     eventualities — pairs <v, n> of an eventuality primitive and a node —
//     and a node relation R used to transform eventualities along paths.
//   * The iteration connectives (infloop, iter*, iter(*)) use the marker
//     construction: a marker on the initial node reproduces itself while
//     spawning one copy of `a` per instant (a-transitions) until, for the
//     iter forms, a b-transition starts `b`; iter* adds an eventuality
//     forcing the b-transition to happen.
//
// Representation: every basis subset a build touches — graph nodes, edge
// endpoints, the node components of eventualities, both sides of the node
// relations — is interned once into a per-build NodePool and referenced by
// a dense uint32 NodeId (0 == END).  Edges are POD-sized records
// {from, to, prop, evs, ses, rel} whose eventuality/relation payloads are
// ids of interned sorted spans in a shared arena: structurally identical
// payloads (rampant under the /\-product, which used to materialize a
// duplicate std::set per edge) are stored once and compared by id, and
// every composition step — build_or/semi/concat/and/iter, disjoin, the
// marker subset construction — is an integer merge/union pass with the
// unions themselves memoized on id pairs.
//
// The subset construction for the iterators is performed over *reachable*
// marker sets only (the paper's definition ranges over all subsets; the
// reachable fragment decides the same language and keeps the benchmarkable
// blowup honest), with marker sets interned exactly like nodes so the
// visited check is "did interning mint a fresh id".  Before iterating, `a`
// is node-disjoined per the paper.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lll/ast.h"
#include "lll/interp.h"
#include "util/parallel.h"

namespace il::lll {

/// Dense per-build id of an interned basis subset.  0 is END (the empty
/// subset); every other id names a distinct non-empty sorted subset.
using NodeId = std::uint32_t;
inline constexpr NodeId kEndNode = 0;

inline bool is_end(NodeId n) { return n == kEndNode; }

/// Eventuality: an eventuality primitive paired with an interned node.
using Ev = std::pair<std::int32_t, NodeId>;
/// One pair of the node relation R_e.
using Rel = std::pair<NodeId, NodeId>;

/// Id of an interned sorted Ev/Rel span; 0 is the empty set.
using EvSetId = std::uint32_t;
using RelSetId = std::uint32_t;
inline constexpr std::uint32_t kEmptySet = 0;

/// One sorted literal (variable id, polarity) of an edge proposition.
using PropLit = std::pair<std::uint32_t, bool>;

/// Interned edge proposition: (literal-span id << 1) | contradictory.
/// 0 is the empty, satisfiable conjunction (T).  Edges used to own a Conj
/// apiece; interning the literal runs makes the proposition products of the
/// composition loops memoizable id-pair merges and edge records fully POD.
using PropId = std::uint32_t;
inline constexpr PropId kEmptyProp = 0;

/// Read-only view into a pool arena.
template <typename T>
struct Span {
  const T* ptr = nullptr;
  std::size_t len = 0;

  const T* begin() const { return ptr; }
  const T* end() const { return ptr + len; }
  std::size_t size() const { return len; }
  bool empty() const { return len == 0; }
  const T& operator[](std::size_t i) const { return ptr[i]; }
};

namespace detail {

/// Open-addressed u64 -> u32 map (power-of-2 capacity, linear probing,
/// Fibonacci scrambling) for the hot id-pair memo tables.  These are probed
/// once per edge in the composition loops, where std::unordered_map's
/// prime-modulo hashing costs a hardware divide and a node chase per call.
/// ~0 marks a free slot, which is fine for keys packed from dense 32-bit
/// interner ids (the high id would have to reach 2^32 - 1).
class IdPairMap {
 public:
  const std::uint32_t* find(std::uint64_t key) const {
    if (keys_.empty()) return nullptr;  // tables allocate on first insert
    const std::size_t mask = keys_.size() - 1;
    std::size_t s = scramble(key) & mask;
    while (keys_[s] != kFree) {
      if (keys_[s] == key) return &vals_[s];
      s = (s + 1) & mask;
    }
    return nullptr;
  }

  void insert(std::uint64_t key, std::uint32_t val) {
    if (keys_.empty()) {
      keys_.resize(kInitialCap, kFree);
      vals_.resize(kInitialCap);
    } else if ((used_ + 1) * 4 > keys_.size() * 3) {
      grow();
    }
    const std::size_t mask = keys_.size() - 1;
    std::size_t s = scramble(key) & mask;
    while (keys_[s] != kFree) s = (s + 1) & mask;
    keys_[s] = key;
    vals_[s] = val;
    ++used_;
  }

 private:
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};
  static constexpr std::size_t kInitialCap = 64;

  /// Packed id pairs are structured (dense low word); multiply-mix so the
  /// masked low bits see the whole key.
  static std::size_t scramble(std::uint64_t key) {
    key *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(key >> 32);
  }

  void grow() {
    std::vector<std::uint64_t> old_keys(keys_.size() * 2, kFree);
    std::vector<std::uint32_t> old_vals(vals_.size() * 2);
    old_keys.swap(keys_);
    old_vals.swap(vals_);
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kFree) continue;
      std::size_t s = scramble(old_keys[i]) & mask;
      while (keys_[s] != kFree) s = (s + 1) & mask;
      keys_[s] = old_keys[i];
      vals_[s] = old_vals[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t used_ = 0;
};

/// Interns sorted-unique element runs into one contiguous arena, handing
/// out dense uint32 ids (0 == the empty run).  Equal runs share one id, so
/// equality is id equality and set unions can be memoized on id pairs.
/// Elements must be totally ordered and hashable via elem_key().  The run
/// index is a flat open-addressed (hash, id) table — runs with colliding
/// hashes simply probe onward — because intern() runs once per emitted edge
/// in the subset construction.
template <typename T>
class SpanInterner {
 public:
  SpanInterner() { refs_.push_back({0, 0}); }  // id 0: the empty span

  /// Returns (id, minted): `minted` is true iff the run was new.
  std::pair<std::uint32_t, bool> intern(const T* data, std::size_t len) {
    if (len == 0) return {0, false};
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < len; ++i) {
      h ^= elem_key(data[i]);
      h *= 1099511628211ull;
    }
    if (h == kFreeSlot) h = 1;  // keep the free-slot marker unambiguous
    if (slot_hash_.empty()) {   // the index allocates on first use
      slot_hash_.resize(kInitialSlots, kFreeSlot);
      slot_id_.resize(kInitialSlots);
    }
    const std::size_t mask = slot_hash_.size() - 1;
    std::size_t s = static_cast<std::size_t>(h) & mask;
    while (slot_hash_[s] != kFreeSlot) {
      if (slot_hash_[s] == h) {
        const Ref r = refs_[slot_id_[s]];
        if (r.len == len && std::equal(data, data + len, arena_.begin() + r.off)) {
          return {slot_id_[s], false};
        }
      }
      s = (s + 1) & mask;
    }
    const auto id = static_cast<std::uint32_t>(refs_.size());
    refs_.push_back({static_cast<std::uint32_t>(arena_.size()), static_cast<std::uint32_t>(len)});
    arena_.insert(arena_.end(), data, data + len);
    slot_hash_[s] = h;
    slot_id_[s] = id;
    if (++slots_used_ * 4 > slot_hash_.size() * 3) grow_slots();
    return {id, true};
  }
  std::pair<std::uint32_t, bool> intern(const std::vector<T>& v) {
    return intern(v.data(), v.size());
  }

  Span<T> span(std::uint32_t id) const {
    const Ref r = refs_[id];
    return {arena_.data() + r.off, r.len};
  }

  /// Interned runs minted so far (including the empty run).
  std::size_t size() const { return refs_.size(); }
  /// Bytes of arena storage behind all interned runs.
  std::size_t element_bytes() const { return arena_.size() * sizeof(T); }

  /// Memoized sorted-set union; commutative, so keys are ordered id pairs.
  std::uint32_t set_union(std::uint32_t a, std::uint32_t b) {
    if (a == b || b == 0) return a;
    if (a == 0) return b;
    if (a > b) std::swap(a, b);
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    if (const std::uint32_t* hit = union_memo_.find(key)) {
      ++union_hits_;
      return *hit;
    }
    ++union_misses_;
    const Span<T> sa = span(a);
    const Span<T> sb = span(b);
    std::vector<T> out;
    out.reserve(sa.size() + sb.size());
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(), std::back_inserter(out));
    const std::uint32_t id = intern(out).first;
    union_memo_.insert(key, id);
    return id;
  }

  std::size_t union_hits() const { return union_hits_; }
  std::size_t union_misses() const { return union_misses_; }

 private:
  struct Ref {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };

  static constexpr std::uint64_t kFreeSlot = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 64;

  void grow_slots() {
    std::vector<std::uint64_t> old_hash(slot_hash_.size() * 2, kFreeSlot);
    std::vector<std::uint32_t> old_id(slot_id_.size() * 2);
    old_hash.swap(slot_hash_);
    old_id.swap(slot_id_);
    const std::size_t mask = slot_hash_.size() - 1;
    for (std::size_t i = 0; i < old_hash.size(); ++i) {
      if (old_hash[i] == kFreeSlot) continue;
      std::size_t s = static_cast<std::size_t>(old_hash[i]) & mask;
      while (slot_hash_[s] != kFreeSlot) s = (s + 1) & mask;
      slot_hash_[s] = old_hash[i];
      slot_id_[s] = old_id[i];
    }
  }

  static std::uint64_t elem_key(int e) { return static_cast<std::uint64_t>(e); }
  static std::uint64_t elem_key(std::uint32_t e) { return e; }
  template <typename A, typename B>
  static std::uint64_t elem_key(const std::pair<A, B>& e) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.first)) << 32) |
           static_cast<std::uint32_t>(e.second);
  }

  std::vector<T> arena_;
  std::vector<Ref> refs_;
  std::vector<std::uint64_t> slot_hash_;  ///< open-addressed run index
  std::vector<std::uint32_t> slot_id_;
  std::size_t slots_used_ = 0;
  IdPairMap union_memo_;
  std::size_t union_hits_ = 0;
  std::size_t union_misses_ = 0;
};

}  // namespace detail

/// The per-build interning substrate: basis subsets to NodeIds, eventuality
/// sets to EvSetIds, node relations to RelSetIds — each deduped by hash into
/// a shared arena.  All composition loops work on these ids; the decision
/// iteration (lll/decide.cpp) reads the spans back without any remapping.
class NodePool {
 public:
  /// Interns a sorted-unique basis subset (empty == END == id 0).
  NodeId intern_node(const std::vector<int>& sorted_basis) {
    return nodes_.intern(sorted_basis).first;
  }
  Span<int> basis(NodeId id) const { return nodes_.span(id); }
  NodeId union_nodes(NodeId a, NodeId b) { return nodes_.set_union(a, b); }
  /// Ids minted so far (dense: every id < node_count()).
  std::size_t node_count() const { return nodes_.size(); }

  EvSetId intern_evs(const std::vector<Ev>& sorted_evs) { return evs_.intern(sorted_evs).first; }
  Span<Ev> evs(EvSetId id) const { return evs_.span(id); }
  EvSetId union_evs(EvSetId a, EvSetId b) { return evs_.set_union(a, b); }
  EvSetId ev_singleton(std::int32_t prim, NodeId node) {
    return intern_evs({Ev{prim, node}});
  }

  RelSetId intern_rels(const std::vector<Rel>& sorted_rels) {
    return rels_.intern(sorted_rels).first;
  }
  Span<Rel> rels(RelSetId id) const { return rels_.span(id); }
  RelSetId union_rels(RelSetId a, RelSetId b) { return rels_.set_union(a, b); }
  RelSetId rel_singleton(NodeId x, NodeId y) { return intern_rels({Rel{x, y}}); }

  /// Interns a conjunction of literals as a PropId.
  PropId intern_prop(const Conj& c) {
    return (props_.intern(c.lits).first << 1) | (c.contradictory ? 1u : 0u);
  }
  bool prop_contradictory(PropId p) const { return (p & 1u) != 0; }
  Span<PropLit> prop_lits(PropId p) const { return props_.span(p >> 1); }
  /// Materializes a PropId back into an owned Conj (tests, pretty-printing).
  Conj prop_conj(PropId p) const {
    Conj c;
    c.contradictory = prop_contradictory(p);
    const Span<PropLit> s = prop_lits(p);
    c.lits.assign(s.begin(), s.end());
    return c;
  }
  /// Memoized conjunction of two props, Conj::merge semantics: the left
  /// operand's polarity wins on a shared variable, a polarity clash sets
  /// the contradictory bit.  Non-commutative, so keys are ordered pairs.
  PropId merge_props(PropId a, PropId b);
  /// Memoized Conj::erase / Conj::default_to on interned props.
  PropId prop_erase(PropId p, std::uint32_t var);
  PropId prop_default(PropId p, std::uint32_t var, bool value);

  /// Arena bytes behind every interned basis subset and payload span — the
  /// quantity the GraphBuilder budget guards alongside the edge count (a
  /// few edges carrying enormous relation sets are as dangerous as many
  /// edges).
  std::size_t payload_bytes() const {
    return nodes_.element_bytes() + evs_.element_bytes() + rels_.element_bytes();
  }

  /// Lifetime id-pair memo counters: set_union over the three span
  /// interners plus the proposition merge/scope memos.
  std::size_t union_hits() const {
    return nodes_.union_hits() + evs_.union_hits() + rels_.union_hits() + prop_hits_;
  }
  std::size_t union_misses() const {
    return nodes_.union_misses() + evs_.union_misses() + rels_.union_misses() + prop_misses_;
  }

 private:
  detail::SpanInterner<int> nodes_;
  detail::SpanInterner<Ev> evs_;
  detail::SpanInterner<Rel> rels_;
  detail::SpanInterner<PropLit> props_;
  detail::IdPairMap prop_merge_memo_;
  detail::IdPairMap prop_scope_memo_;
  std::size_t prop_hits_ = 0;
  std::size_t prop_misses_ = 0;
};

struct GEdge {
  NodeId from = kEndNode;
  NodeId to = kEndNode;  ///< kEndNode == END
  PropId prop = kEmptyProp;
  EvSetId evs = kEmptySet;
  EvSetId ses = kEmptySet;   ///< satisfied eventualities
  RelSetId rel = kEmptySet;  ///< node relation R_e
  bool b_side = false;       ///< used during iterator construction
  bool alive = true;
};

struct Graph {
  std::shared_ptr<NodePool> pool;  ///< owns every id this graph references
  std::vector<NodeId> nodes;       ///< sorted-unique, excludes END
  NodeId init = kEndNode;
  std::vector<GEdge> edges;
  bool has_end = false;

  std::size_t node_count() const { return nodes.size() + (has_end ? 1 : 0); }
  std::size_t edge_count() const { return edges.size(); }
  std::string to_string() const;
};

/// Compiles an expression to its graph.  `basis` and `ev_primitives` are
/// fresh-id counters shared across one compilation, as is the NodePool.
class GraphBuilder {
 public:
  /// Hard cap on edges any single construction step may produce.  The
  /// nonelementary blowup (Section 4.5) is real: without a budget, one
  /// /\-product of two iterator graphs can allocate tens of millions of
  /// edges before anything observes the size.  Exceeding the budget throws
  /// std::invalid_argument, which batch deciders surface per job.  Callers
  /// probing feasibility (e.g. corpus filters) can pass a tighter budget.
  /// The iterator subset construction counts each wave's edges exactly
  /// before building it (one edge per choice tuple, so a product of option
  /// counts), and a wave that would cross the budget throws before it
  /// enumerates a tuple or merges a payload: a rejected build pays only for
  /// the waves that fit.
  static constexpr std::size_t kDefaultEdgeBudget = 500000;

  /// Companion cap on interned-payload arena bytes (NodePool::payload_bytes):
  /// the edge count alone can be dodged by a handful of edges whose relation
  /// or eventuality sets are enormous, so the guard checks both and the
  /// thrown message reports both.
  static constexpr std::size_t kDefaultPayloadByteBudget = std::size_t{64} << 20;

  explicit GraphBuilder(std::size_t edge_budget = kDefaultEdgeBudget,
                        std::size_t payload_byte_budget = kDefaultPayloadByteBudget)
      : edge_budget_(edge_budget), payload_byte_budget_(payload_byte_budget) {}

  Graph build(ExprId expr);

  /// Counters from the iterator subset constructions of one build(), summed
  /// over every build_iter in the expression.  The prefix_* pair tracks the
  /// longest-common-prefix accumulator over choice tuples: a hit is a tuple
  /// level whose merged payload product was reused from the previous tuple,
  /// a miss is a level that had to be computed (one conj_merge plus three
  /// memoized span unions).  The basis_* pair tracks the per-mark-set memo
  /// of union_basis results keyed on interned mark-set ids.
  struct IterStats {
    std::size_t waves = 0;           ///< frontier waves processed
    std::size_t frontier_sets = 0;   ///< marker sets expanded
    std::size_t choice_tuples = 0;   ///< composite edges enumerated
    std::size_t prefix_hits = 0;
    std::size_t prefix_misses = 0;
    std::size_t basis_hits = 0;
    std::size_t basis_misses = 0;

    /// Counter-export hook (engine/introspect.h): fn(name, value) per field.
    template <typename Fn>
    void for_each_counter(Fn&& fn) const {
      fn("waves", static_cast<std::uint64_t>(waves));
      fn("frontier_sets", static_cast<std::uint64_t>(frontier_sets));
      fn("choice_tuples", static_cast<std::uint64_t>(choice_tuples));
      fn("prefix_hits", static_cast<std::uint64_t>(prefix_hits));
      fn("prefix_misses", static_cast<std::uint64_t>(prefix_misses));
      fn("basis_hits", static_cast<std::uint64_t>(basis_hits));
      fn("basis_misses", static_cast<std::uint64_t>(basis_misses));
    }
  };
  const IterStats& iter_stats() const { return iter_stats_; }

  /// Optional intra-build fan-out for the subset-construction waves.  The
  /// handle is borrowed; pass nullptr (the default) to build inline.  Any
  /// width yields bit-identical graphs: the parallel phase computes pure
  /// per-marker-set values and all interning happens in a sequential merge
  /// ordered by (frontier index, enumeration order).
  void set_parallel(const util::ParallelFor* par) { par_ = par; }

  std::size_t basis_used() const { return static_cast<std::size_t>(next_basis_); }
  std::size_t edge_budget() const { return edge_budget_; }
  std::size_t payload_byte_budget() const { return payload_byte_budget_; }
  const NodePool& pool() const { return *pool_; }

 private:
  int fresh_basis() { return next_basis_++; }
  int fresh_ev() { return next_ev_++; }

  /// Throws std::invalid_argument (reporting edges and payload bytes
  /// against both budgets) when either budget is exceeded.  `edges=` is the
  /// projected count the caller checked: for the iterator subset
  /// construction, the total after the wave that would cross the budget,
  /// which can be far past the budget though none of that wave was built.
  void require_budget(std::size_t projected_edges, const char* stage) const;

  Graph build_leaf(const Conj& prop);
  Graph build_tstar();
  Graph build_or(Graph a, Graph b);
  Graph build_semi(Graph a, Graph b);
  Graph build_concat(Graph a, Graph b);
  Graph build_and(Graph a, Graph b, bool same_length);
  Graph build_scoped(Kind kind, std::uint32_t var, Graph a);
  /// infloop / iter* / iter(*) via the marker construction.
  enum class IterKind { Infloop, Star, Paren };
  Graph build_iter(IterKind kind, Graph a, const Graph* b);

  /// Renames node-basis elements per node so distinct nodes are disjoint.
  Graph disjoin(Graph g);

  std::shared_ptr<NodePool> pool_ = std::make_shared<NodePool>();
  int next_basis_ = 0;
  int next_ev_ = 0;
  std::size_t edge_budget_ = kDefaultEdgeBudget;
  std::size_t payload_byte_budget_ = kDefaultPayloadByteBudget;
  IterStats iter_stats_;
  const util::ParallelFor* par_ = nullptr;
};

}  // namespace il::lll
