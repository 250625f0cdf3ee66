#include "lll/graph.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "util/assert.h"
#include "util/strings.h"

namespace il::lll {

PropId NodePool::merge_props(PropId a, PropId b) {
  if ((a >> 1) == (b >> 1) || (b >> 1) == 0) return a | (b & 1u);
  if ((a >> 1) == 0) return b | (a & 1u);
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  if (const std::uint32_t* hit = prop_merge_memo_.find(key)) {
    ++prop_hits_;
    return *hit;
  }
  ++prop_misses_;
  const Span<PropLit> sa = prop_lits(a);
  const Span<PropLit> sb = prop_lits(b);
  std::vector<PropLit> out;
  out.reserve(sa.size() + sb.size());
  bool clash = false;
  const PropLit* pa = sa.begin();
  const PropLit* pb = sb.begin();
  while (pa != sa.end() && pb != sb.end()) {
    if (pa->first < pb->first) {
      out.push_back(*pa++);
    } else if (pb->first < pa->first) {
      out.push_back(*pb++);
    } else {
      if (pa->second != pb->second) clash = true;
      out.push_back(*pa);
      ++pa;
      ++pb;
    }
  }
  out.insert(out.end(), pa, sa.end());
  out.insert(out.end(), pb, sb.end());
  const PropId merged =
      (props_.intern(out).first << 1) | ((a | b) & 1u) | (clash ? 1u : 0u);
  prop_merge_memo_.insert(key, merged);
  return merged;
}

PropId NodePool::prop_erase(PropId p, std::uint32_t var) {
  const std::uint64_t key = (static_cast<std::uint64_t>(p) << 32) | (var << 2) | 1u;
  if (const std::uint32_t* hit = prop_scope_memo_.find(key)) {
    ++prop_hits_;
    return *hit;
  }
  ++prop_misses_;
  const Span<PropLit> s = prop_lits(p);
  std::vector<PropLit> out;
  out.reserve(s.size());
  for (const PropLit& l : s) {
    if (l.first != var) out.push_back(l);
  }
  const PropId mapped = (props_.intern(out).first << 1) | (p & 1u);
  prop_scope_memo_.insert(key, mapped);
  return mapped;
}

PropId NodePool::prop_default(PropId p, std::uint32_t var, bool value) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(p) << 32) | (var << 2) | (value ? 3u : 2u);
  if (const std::uint32_t* hit = prop_scope_memo_.find(key)) {
    ++prop_hits_;
    return *hit;
  }
  ++prop_misses_;
  const Span<PropLit> s = prop_lits(p);
  std::vector<PropLit> out(s.begin(), s.end());
  const auto it = std::lower_bound(
      out.begin(), out.end(), var,
      [](const PropLit& l, std::uint32_t v) { return l.first < v; });
  if (it == out.end() || it->first != var) out.insert(it, {var, value});
  const PropId mapped = (props_.intern(out).first << 1) | (p & 1u);
  prop_scope_memo_.insert(key, mapped);
  return mapped;
}

namespace {

/// Merges two sorted-unique id vectors.
std::vector<NodeId> merge_nodes(const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::size_t saturating_add(std::size_t a, std::size_t b) {
  const std::size_t sum = a + b;
  return sum < a ? SIZE_MAX : sum;
}

std::size_t saturating_mul(std::size_t a, std::size_t b) {
  return b != 0 && a > SIZE_MAX / b ? SIZE_MAX : a * b;
}

void insert_node(std::vector<NodeId>& nodes, NodeId n) {
  auto it = std::lower_bound(nodes.begin(), nodes.end(), n);
  if (it == nodes.end() || *it != n) nodes.insert(it, n);
}

}  // namespace

std::string Graph::to_string() const {
  std::string out = "init=" + [&] {
    std::vector<std::string> xs;
    if (pool) {
      for (int b : pool->basis(init)) xs.push_back(std::to_string(b));
    }
    return "{" + join(xs, ",") + "}";
  }();
  out += " nodes=" + std::to_string(node_count()) + " edges=" + std::to_string(edges.size());
  if (pool) out += " payload_bytes=" + std::to_string(pool->payload_bytes());
  return out;
}

void GraphBuilder::require_budget(std::size_t projected_edges, const char* stage) const {
  const std::size_t bytes = pool_->payload_bytes();
  if (projected_edges > edge_budget_ || bytes > payload_byte_budget_) {
    throw std::invalid_argument(
        std::string(stage) + " exceeded the graph budget (edges=" +
        std::to_string(projected_edges) + "/" + std::to_string(edge_budget_) +
        ", payload_bytes=" + std::to_string(bytes) + "/" +
        std::to_string(payload_byte_budget_) + ")");
  }
}

Graph GraphBuilder::build(ExprId id) {
  const ExprNode& e = expr(id);
  switch (e.kind) {
    case Kind::Lit: {
      Conj c;
      c.assign(e.var, !e.negated);
      return build_leaf(c);
    }
    case Kind::T:
      return build_leaf(Conj{});
    case Kind::F: {
      Conj c;
      c.contradictory = true;
      return build_leaf(c);
    }
    case Kind::TStar:
      return build_tstar();
    case Kind::Or:
      return build_or(build(e.a), build(e.b));
    case Kind::Semi:
      return build_semi(build(e.a), build(e.b));
    case Kind::Concat:
      return build_concat(build(e.a), build(e.b));
    case Kind::And:
      return build_and(build(e.a), build(e.b), /*same_length=*/false);
    case Kind::As:
      return build_and(build(e.a), build(e.b), /*same_length=*/true);
    case Kind::Exists:
    case Kind::ForceF:
    case Kind::ForceT:
      return build_scoped(e.kind, e.var, build(e.a));
    case Kind::Infloop:
      return build_iter(IterKind::Infloop, build(e.a), nullptr);
    case Kind::IterStar: {
      Graph b = build(e.b);
      return build_iter(IterKind::Star, build(e.a), &b);
    }
    case Kind::IterParen: {
      Graph b = build(e.b);
      return build_iter(IterKind::Paren, build(e.a), &b);
    }
  }
  IL_CHECK(false, "unreachable");
}

Graph GraphBuilder::build_leaf(const Conj& prop) {
  Graph g;
  g.pool = pool_;
  g.init = pool_->intern_node({fresh_basis()});
  g.nodes = {g.init};
  g.has_end = true;
  GEdge e;
  e.from = g.init;
  e.to = kEndNode;
  e.prop = pool_->intern_prop(prop);
  g.edges.push_back(e);
  return g;
}

Graph GraphBuilder::build_tstar() {
  Graph g;
  g.pool = pool_;
  g.init = pool_->intern_node({fresh_basis()});
  g.nodes = {g.init};
  g.has_end = true;
  GEdge self;
  self.from = g.init;
  self.to = g.init;
  self.rel = pool_->rel_singleton(g.init, g.init);
  g.edges.push_back(self);
  GEdge fin;
  fin.from = g.init;
  fin.to = kEndNode;
  g.edges.push_back(fin);
  return g;
}

Graph GraphBuilder::build_or(Graph a, Graph b) {
  Graph g;
  g.pool = pool_;
  g.init = pool_->intern_node({fresh_basis()});
  g.nodes = merge_nodes(a.nodes, b.nodes);
  insert_node(g.nodes, g.init);
  g.has_end = a.has_end || b.has_end;
  // Copies of the initial edges of both operands, re-rooted at the new init.
  auto add_copies = [&](const Graph& src, bool b_side) {
    for (const GEdge& e : src.edges) {
      if (e.from != src.init) continue;
      GEdge copy = e;
      copy.from = g.init;
      copy.b_side = b_side;
      g.edges.push_back(std::move(copy));
    }
  };
  add_copies(a, false);
  add_copies(b, true);
  for (GEdge& e : a.edges) g.edges.push_back(std::move(e));
  for (GEdge& e : b.edges) {
    e.b_side = true;
    g.edges.push_back(std::move(e));
  }
  require_budget(g.edges.size(), "choice composition");
  return g;
}

Graph GraphBuilder::build_semi(Graph a, Graph b) {
  // END-edges of `a` are redirected to init(b); no state overlap.
  Graph g;
  g.pool = pool_;
  g.init = a.init;
  g.nodes = merge_nodes(a.nodes, b.nodes);
  g.has_end = b.has_end;
  for (GEdge& e : a.edges) {
    if (is_end(e.to)) {
      e.to = b.init;
      e.rel = pool_->union_rels(e.rel, pool_->rel_singleton(e.from, b.init));
    }
    g.edges.push_back(std::move(e));
  }
  for (GEdge& e : b.edges) g.edges.push_back(std::move(e));
  require_budget(g.edges.size(), "serial composition");
  return g;
}

Graph GraphBuilder::build_concat(Graph a, Graph b) {
  // One-state overlap: an END-edge <m, END, C> of `a` becomes, for every
  // initial edge <init(b), n, D> of `b`, an edge <m, n, C /\ D>.
  Graph g;
  g.pool = pool_;
  g.init = a.init;
  g.nodes = merge_nodes(a.nodes, b.nodes);
  g.has_end = b.has_end;
  // Budget the edges actually emitted: only a's END-edges multiply with b's
  // initial edges; everything else passes through once.
  std::size_t a_end_edges = 0, b_init_edges = 0;
  for (const GEdge& e : a.edges) a_end_edges += is_end(e.to) ? 1 : 0;
  for (const GEdge& e : b.edges) b_init_edges += e.from == b.init ? 1 : 0;
  require_budget((a.edges.size() - a_end_edges) + a_end_edges * b_init_edges + b.edges.size(),
                 "serial composition");
  for (GEdge& e : a.edges) {
    if (!is_end(e.to)) {
      g.edges.push_back(std::move(e));
      continue;
    }
    for (const GEdge& be : b.edges) {
      if (be.from != b.init) continue;
      GEdge merged;
      merged.from = e.from;
      merged.to = be.to;
      merged.prop = pool_->merge_props(e.prop, be.prop);
      merged.evs = pool_->union_evs(e.evs, be.evs);
      merged.ses = pool_->union_evs(e.ses, be.ses);
      merged.rel = pool_->union_rels(e.rel, be.rel);
      g.edges.push_back(std::move(merged));
      // Per-edge: the payload arena must not blow past its byte budget
      // mid-product (the unions above intern as they go).
      require_budget(g.edges.size(), "serial composition");
    }
  }
  for (GEdge& e : b.edges) g.edges.push_back(std::move(e));
  require_budget(g.edges.size(), "serial composition");
  return g;
}

Graph GraphBuilder::build_and(Graph a, Graph b, bool same_length) {
  Graph g;
  g.pool = pool_;
  g.init = pool_->union_nodes(a.init, b.init);
  // Product nodes plus (for /\ only) the component nodes: the longer
  // computation continues alone after the shorter one ends.
  std::vector<NodeId> nodes;
  nodes.reserve(a.nodes.size() * b.nodes.size() + (same_length ? 0 : a.nodes.size() + b.nodes.size()));
  for (NodeId m : a.nodes) {
    for (NodeId n : b.nodes) nodes.push_back(pool_->union_nodes(m, n));
  }
  if (!same_length) {
    nodes.insert(nodes.end(), a.nodes.begin(), a.nodes.end());
    nodes.insert(nodes.end(), b.nodes.begin(), b.nodes.end());
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  g.nodes = std::move(nodes);
  g.has_end = a.has_end && b.has_end;

  // Product edges, plus (for /\) the continuation copies of both operands.
  const std::size_t continuation = same_length ? 0 : a.edges.size() + b.edges.size();
  require_budget(a.edges.size() * b.edges.size() + continuation, "concurrent composition");

  auto product_edge = [&](const GEdge& ea, const GEdge& eb) {
    GEdge e;
    e.from = pool_->union_nodes(ea.from, eb.from);
    // END contributes nothing to the union, so both-END lands on END itself.
    e.to = pool_->union_nodes(ea.to, eb.to);
    e.prop = pool_->merge_props(ea.prop, eb.prop);
    e.evs = pool_->union_evs(ea.evs, eb.evs);
    e.ses = pool_->union_evs(ea.ses, eb.ses);
    e.rel = pool_->union_rels(ea.rel, eb.rel);
    return e;
  };

  for (const GEdge& ea : a.edges) {
    for (const GEdge& eb : b.edges) {
      if (same_length) {
        // as(): both END or both non-END.
        if (is_end(ea.to) != is_end(eb.to)) continue;
      }
      g.edges.push_back(product_edge(ea, eb));
      // Per-edge: product_edge interns union payloads as it goes, so the
      // byte budget must be watched inside the loop, not only after it.
      require_budget(g.edges.size(), "concurrent composition");
    }
  }
  if (!same_length) {
    // Continuation edges once one component has finished.
    for (const GEdge& e : a.edges) g.edges.push_back(e);
    for (const GEdge& e : b.edges) g.edges.push_back(e);
  }
  require_budget(g.edges.size(), "concurrent composition");
  return g;
}

Graph GraphBuilder::build_scoped(Kind kind, std::uint32_t var, Graph a) {
  for (GEdge& e : a.edges) {
    switch (kind) {
      case Kind::Exists:
        e.prop = pool_->prop_erase(e.prop, var);
        break;
      case Kind::ForceF:
        e.prop = pool_->prop_default(e.prop, var, false);
        break;
      case Kind::ForceT:
        e.prop = pool_->prop_default(e.prop, var, true);
        break;
      default:
        IL_CHECK(false, "not a scoped kind");
    }
  }
  return a;
}

Graph GraphBuilder::disjoin(Graph g) {
  // Check whether the nodes are already pairwise disjoint.  Basis elements
  // are dense builder-local ints, so membership is a flat bitmap.
  bool disjoint = true;
  std::vector<char> seen(static_cast<std::size_t>(next_basis_), 0);
  for (NodeId n : g.nodes) {
    for (int b : pool_->basis(n)) {
      char& slot = seen[static_cast<std::size_t>(b)];
      if (slot) {
        disjoint = false;
        break;
      }
      slot = 1;
    }
    if (!disjoint) break;
  }
  if (disjoint) return g;

  // Rename each node's basis elements freshly; map node ids wholesale
  // through a dense theta (ids are per-build dense, so a flat vector works).
  constexpr NodeId kUnmapped = ~NodeId{0};
  std::vector<NodeId> theta(pool_->node_count(), kUnmapped);
  for (NodeId n : g.nodes) {
    std::vector<int> renamed;
    renamed.reserve(pool_->basis(n).size());
    for (std::size_t i = 0; i < pool_->basis(n).size(); ++i) renamed.push_back(fresh_basis());
    // fresh_basis() is increasing, so `renamed` is already sorted.
    theta[n] = pool_->intern_node(renamed);
  }
  auto map_node = [&](NodeId n) -> NodeId {
    if (is_end(n)) return n;
    // Subsets that are not nodes of the graph (possible inside eventuality
    // components after deep composition) are kept unchanged; see DESIGN.md.
    const NodeId t = n < theta.size() ? theta[n] : kUnmapped;
    return t == kUnmapped ? n : t;
  };
  // Payload remaps memoized per interned set (hash-consed payloads repeat
  // across many edges).
  std::unordered_map<EvSetId, EvSetId> ev_memo;
  std::unordered_map<RelSetId, RelSetId> rel_memo;
  auto map_evs = [&](EvSetId id) -> EvSetId {
    if (id == kEmptySet) return id;
    auto it = ev_memo.find(id);
    if (it != ev_memo.end()) return it->second;
    std::vector<Ev> out;
    const Span<Ev> s = pool_->evs(id);
    out.reserve(s.size());
    for (const Ev& e : s) out.emplace_back(e.first, map_node(e.second));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    const EvSetId mapped = pool_->intern_evs(out);
    ev_memo.emplace(id, mapped);
    return mapped;
  };
  auto map_rels = [&](RelSetId id) -> RelSetId {
    if (id == kEmptySet) return id;
    auto it = rel_memo.find(id);
    if (it != rel_memo.end()) return it->second;
    std::vector<Rel> out;
    const Span<Rel> s = pool_->rels(id);
    out.reserve(s.size());
    for (const Rel& r : s) out.emplace_back(map_node(r.first), map_node(r.second));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    const RelSetId mapped = pool_->intern_rels(out);
    rel_memo.emplace(id, mapped);
    return mapped;
  };

  Graph out;
  out.pool = pool_;
  out.has_end = g.has_end;
  out.init = map_node(g.init);
  out.nodes.reserve(g.nodes.size());
  for (NodeId n : g.nodes) out.nodes.push_back(theta[n]);
  std::sort(out.nodes.begin(), out.nodes.end());
  for (GEdge e : g.edges) {
    e.from = map_node(e.from);
    e.to = map_node(e.to);
    e.evs = map_evs(e.evs);
    e.ses = map_evs(e.ses);
    e.rel = map_rels(e.rel);
    out.edges.push_back(std::move(e));
  }
  return out;
}

Graph GraphBuilder::build_iter(IterKind kind, Graph a, const Graph* b) {
  a = disjoin(std::move(a));

  // G' = the a \/ b graph rooted at a fresh init (b absent for infloop).
  Graph gp;
  if (b != nullptr) {
    gp = build_or(std::move(a), *b);
  } else {
    Graph empty;  // build_or against an edgeless placeholder
    empty.pool = pool_;
    empty.init = pool_->intern_node({fresh_basis()});
    empty.nodes = {empty.init};
    gp = build_or(std::move(a), std::move(empty));
  }

  const NodeId m0 = gp.init;

  // Outgoing edges per node id (ids are pool-dense, so a flat table).  The
  // non-b counts, and m0's b-side count, price the waves below: every choice
  // tuple emits exactly one edge, so a frontier item adds the product of its
  // markers' option counts per family.
  struct ERef {
    const GEdge* e;
    NodeId to;
  };
  struct NodeOut {
    std::vector<ERef> edges;
    std::size_t non_b = 0;
  };
  std::vector<NodeOut> out_edges(pool_->node_count());
  std::size_t m0_b_count = 0;
  for (const GEdge& e : gp.edges) {
    NodeOut& from = out_edges[e.from];
    from.edges.push_back({&e, e.to});
    if (!e.b_side) {
      ++from.non_b;
    } else if (e.from == m0) {
      ++m0_b_count;
    }
  }

  const int v = (kind == IterKind::Star) ? fresh_ev() : -1;
  const EvSetId ev_v_m0 = v >= 0 ? pool_->ev_singleton(v, m0) : kEmptySet;
  const RelSetId rel_m0_m0 = pool_->rel_singleton(m0, m0);

  // Marker sets: sorted vectors of G' node ids, interned exactly like nodes
  // so the reachable-subset visited check is "did interning mint a new id".
  using Marks = std::vector<NodeId>;
  detail::SpanInterner<NodeId> mark_sets;

  Graph out;
  out.pool = pool_;
  out.init = m0;  // the singleton marker set {m0} unions to m0 itself
  // Subset constructions emit edges by the thousand; growing the vector a
  // doubling at a time showed up as a top profile entry (each realloc moves
  // every GEdge), so start at a useful size and grow 4x per wave, never past
  // the budget, which no wave may cross (capacity is not observable).
  out.edges.reserve(std::min(edge_budget_, std::size_t{1} << 10));
  // Node ids are pool-dense, so membership is a flat bitmap and the node
  // list is collected unsorted (one sort at the end) — O(1) per target,
  // where a sorted-vector insert would go quadratic on big constructions.
  std::vector<char> node_seen;
  auto add_node = [&](NodeId n) {
    if (n >= node_seen.size()) node_seen.resize(static_cast<std::size_t>(n) + 1, 0);
    if (node_seen[n]) return;
    node_seen[n] = 1;
    out.nodes.push_back(n);
  };
  add_node(out.init);

  // union_basis results memoized per interned mark-set id (ids mint densely,
  // so a flat vector in mint order): each distinct reachable marker set pays
  // its union_nodes chain once, not once per edge that reaches it.
  std::vector<NodeId> basis_of{kEndNode};  // id 0: the empty set == END

  // The wave frontier, in discovery (= sequential BFS) order.
  struct Item {
    Marks marks;
    std::uint32_t mark_id = 0;
  };
  std::vector<Item> frontier;
  std::vector<Item> next_frontier;
  {
    Marks start{m0};
    const std::uint32_t sid = mark_sets.intern(start).first;
    basis_of.push_back(m0);  // union_basis({m0}) == m0
    frontier.push_back({std::move(start), sid});
  }

  // ---------------------------------------------------------------------
  // Enumeration core (phase 1).  Walks the choice product of one family —
  // one edge per marked node, subject to a filter — in fixed order, keeping
  // a per-depth target-set accumulator so sibling tuples share their common
  // prefix; the payload and proposition products are left to the sequential
  // merge, which computes them over interned ids.  Touches only the
  // read-only G' edge table, never the pool, so frontier items may run
  // concurrently; `leaf` receives each complete tuple and returns false to
  // stop the item (plan cap reached).
  // ---------------------------------------------------------------------
  struct Scratch {
    std::vector<std::vector<const ERef*>> options;
    std::vector<const ERef*> choice;
    std::vector<Marks> targets;  ///< targets[i]: non-END targets of 0..i
    Marks leaf_marks;
  };

  auto run_family = [&](const Marks& marks, Scratch& s, auto&& allowed, bool spawn,
                        bool b_transition, auto&& leaf) -> bool {
    const std::size_t k = marks.size();
    if (s.options.size() < k) s.options.resize(k);
    for (std::size_t d = 0; d < k; ++d) {
      auto& opts = s.options[d];
      opts.clear();
      for (const ERef& e : out_edges[marks[d]].edges) {
        if (allowed(e)) opts.push_back(&e);
      }
      if (opts.empty()) return true;  // some marker cannot move
    }
    if (s.choice.size() < k) {
      s.choice.resize(k);
      s.targets.resize(k);
    }
    auto rec = [&](auto&& self, std::size_t i) -> bool {
      if (i == k) {
        s.leaf_marks = s.targets[k - 1];
        if (spawn) {
          // The init marker reproduces: implicit self edge
          // <m0, m0, T, θ_{m0,m0}>.
          insert_node(s.leaf_marks, m0);
        }
        return leaf(s.choice.data(), k, s.leaf_marks, spawn, b_transition);
      }
      for (const ERef* e : s.options[i]) {
        s.choice[i] = e;
        if (i == 0) {
          s.targets[0].clear();
          if (!is_end(e->to)) s.targets[0].push_back(e->to);
        } else {
          s.targets[i] = s.targets[i - 1];
          if (!is_end(e->to)) insert_node(s.targets[i], e->to);
        }
        if (!self(self, i + 1)) return false;
      }
      return true;
    };
    return rec(rec, 0);
  };

  // Markers whose chosen edge reaches END are simply deleted (the paper's
  // prose marker semantics; the strict all-end-together variant of the
  // formal as() definition would wrongly make e.g. infloop(x) for a
  // one-instant x unsatisfiable, and the appendix itself notes the
  // simultaneity requirement can likely be dropped).
  auto enumerate_item = [&](const Marks& marks, Scratch& s, auto&& leaf) {
    const bool has_init = std::binary_search(marks.begin(), marks.end(), m0);
    if (has_init) {
      // a-transitions: every marker moves along a non-b edge; init also
      // spawns a fresh copy of `a` while keeping its own marker.
      if (!run_family(
              marks, s, [&](const ERef& e) { return !e.e->b_side; },
              /*spawn=*/true, /*b_transition=*/false, leaf)) {
        return;
      }
      if (kind != IterKind::Infloop) {
        // b-transitions: init moves along a b edge without reproducing;
        // the other markers move along non-b edges.
        run_family(
            marks, s,
            [&](const ERef& e) {
              const bool from_init = e.e->from == m0;
              return from_init ? e.e->b_side : !e.e->b_side;
            },
            /*spawn=*/false, /*b_transition=*/true, leaf);
      }
    } else {
      // Post-b transitions: every remaining marker moves.
      run_family(
          marks, s, [](const ERef&) { return true; },
          /*spawn=*/false, /*b_transition=*/false, leaf);
    }
  };

  // Exact number of edges enumerate_item() emits for `marks` (saturating).
  auto item_edges = [&](const Marks& marks) -> std::size_t {
    const bool has_init = std::binary_search(marks.begin(), marks.end(), m0);
    std::size_t a_side = 1, b_side = 1;
    for (NodeId n : marks) {
      const NodeOut& from = out_edges[n];
      if (!has_init) {
        a_side = saturating_mul(a_side, from.edges.size());
      } else {
        a_side = saturating_mul(a_side, from.non_b);
        b_side = saturating_mul(b_side, n == m0 ? m0_b_count : from.non_b);
      }
    }
    if (!has_init || kind == IterKind::Infloop) return a_side;
    return saturating_add(a_side, b_side);
  };

  // ---------------------------------------------------------------------
  // Sequential merge (phase 2).  Consumes tuples in (frontier index,
  // enumeration order) — the exact order the plain BFS emits — so edge
  // order, mark-set interning, NodeId minting, and budget trip points are
  // bit-identical at any thread count.  The interned payload and
  // proposition products run through a longest-common-prefix accumulator
  // over the tuple stream: a level shared with the previous tuple reuses
  // its (prop, evs, ses, rel) ids outright, and an extension is one
  // memoized conj merge plus three memoized span unions — all id-pair
  // lookups, no vector work.
  // ---------------------------------------------------------------------
  struct Acc {
    PropId prop = kEmptyProp;  ///< merged conjunction of choices 0..d
    EvSetId evs = kEmptySet;
    EvSetId ses = kEmptySet;
    RelSetId rel = kEmptySet;
  };
  std::vector<Acc> acc;
  std::vector<const ERef*> prev_parts;
  NodeId from_node = kEndNode;  // set before each item is merged
  // One-entry caches for the per-leaf post-processing unions: consecutive
  // leaves usually share their accumulated payload ids, so each cache turns
  // a memo-table probe into a single compare.
  constexpr std::uint32_t kNoCache = ~std::uint32_t{0};
  RelSetId spawn_rel_in = kNoCache, spawn_rel_out = kEmptySet;
  EvSetId spawn_evs_in = kNoCache, spawn_evs_out = kEmptySet;
  EvSetId b_ses_in = kNoCache, b_ses_out = kEmptySet;

  auto emit_leaf = [&](const ERef* const* parts, std::size_t k, const Marks& to_marks,
                       bool spawn, bool b_transition) {
    ++iter_stats_.choice_tuples;
    std::size_t lcp = 0;
    const std::size_t bound = std::min(k, prev_parts.size());
    while (lcp < bound && prev_parts[lcp] == parts[lcp]) ++lcp;
    iter_stats_.prefix_hits += lcp;
    iter_stats_.prefix_misses += k - lcp;
    if (acc.size() < k) acc.resize(k);
    for (std::size_t d = lcp; d < k; ++d) {
      const GEdge* p = parts[d]->e;
      if (d == 0) {
        acc[0].prop = p->prop;
        acc[0].evs = p->evs;
        acc[0].ses = p->ses;
        acc[0].rel = p->rel;
      } else {
        acc[d].prop = pool_->merge_props(acc[d - 1].prop, p->prop);
        acc[d].evs = pool_->union_evs(acc[d - 1].evs, p->evs);
        acc[d].ses = pool_->union_evs(acc[d - 1].ses, p->ses);
        acc[d].rel = pool_->union_rels(acc[d - 1].rel, p->rel);
      }
    }
    prev_parts.assign(parts, parts + k);

    GEdge e;
    e.evs = acc[k - 1].evs;
    e.ses = acc[k - 1].ses;
    e.rel = acc[k - 1].rel;
    if (spawn) {
      if (e.rel != spawn_rel_in) {
        spawn_rel_in = e.rel;
        spawn_rel_out = pool_->union_rels(e.rel, rel_m0_m0);
      }
      e.rel = spawn_rel_out;
    }
    if (v >= 0) {
      if (b_transition) {
        if (e.ses != b_ses_in) {
          b_ses_in = e.ses;
          b_ses_out = pool_->union_evs(e.ses, ev_v_m0);
        }
        e.ses = b_ses_out;
      } else if (spawn) {
        // Only the pre-b a-transitions (where the initial marker is still
        // reproducing) assert the eventuality <v, m0>.  Post-b edges must
        // not: the obligation was discharged by the b-transition, and
        // re-asserting it there would delete every computation whose b part
        // is infinite (e.g. iter*(T*, infloop(p)), the encoding of <>[]p).
        if (e.evs != spawn_evs_in) {
          spawn_evs_in = e.evs;
          spawn_evs_out = pool_->union_evs(e.evs, ev_v_m0);
        }
        e.evs = spawn_evs_out;
      }
    }
    // The wave was priced against the edge budget before it started; this
    // charges the payload bytes the merge above may have interned.
    require_budget(out.edges.size() + 1, "iterator subset construction");
    e.from = from_node;
    e.prop = acc[k - 1].prop;
    if (to_marks.empty()) {
      e.to = kEndNode;
      out.has_end = true;
    } else {
      const auto interned = mark_sets.intern(to_marks);
      const std::uint32_t mid = interned.first;
      if (interned.second) {
        ++iter_stats_.basis_misses;
        IL_CHECK(static_cast<std::size_t>(mid) == basis_of.size(),
                 "mark-set ids must mint densely");
        NodeId u = kEndNode;
        for (NodeId n : to_marks) u = pool_->union_nodes(u, n);
        basis_of.push_back(u);
        next_frontier.push_back({to_marks, mid});
      } else {
        ++iter_stats_.basis_hits;
      }
      e.to = basis_of[mid];
      add_node(e.to);
    }
    out.edges.push_back(std::move(e));
  };

  auto fused_leaf = [&](const ERef* const* parts, std::size_t k, const Marks& to_marks,
                        bool spawn, bool b_transition) -> bool {
    emit_leaf(parts, k, to_marks, spawn, b_transition);
    return true;
  };

  // Phase-1 record of one item's enumeration, replayed by the sequential
  // merge.  Plans past the cap are re-enumerated fused on the merge thread
  // instead — a deterministic memory bound, not an observable change.
  struct Pending {
    Marks to_marks;
    std::uint32_t parts_begin = 0;
    std::uint32_t parts_len = 0;
    bool spawn = false;
    bool b_transition = false;
  };
  struct Plan {
    std::vector<const ERef*> parts;
    std::vector<Pending> edges;
    bool truncated = false;
  };
  constexpr std::size_t kPlanCap = 32768;

  Scratch fused_scratch;
  std::vector<Plan> plans;
  while (!frontier.empty()) {
    ++iter_stats_.waves;
    iter_stats_.frontier_sets += frontier.size();
    next_frontier.clear();
    // Price the whole wave first: one that would cross the edge budget
    // trips here, before any enumeration or payload merge.  A wave that
    // fits gets its capacity up front, so emission never reallocates.
    std::size_t wave_total = out.edges.size();
    for (const Item& item : frontier) {
      wave_total = saturating_add(wave_total, item_edges(item.marks));
    }
    if (wave_total > edge_budget_) require_budget(wave_total, "iterator subset construction");
    if (wave_total > out.edges.capacity()) {
      out.edges.reserve(std::min(std::max(wave_total, out.edges.capacity() * 4), edge_budget_));
    }
    if (util::usable(par_, frontier.size())) {
      if (plans.size() < frontier.size()) plans.resize(frontier.size());
      util::for_each_index(par_, frontier.size(), [&](std::size_t i) {
        Plan& plan = plans[i];
        plan.parts.clear();
        plan.edges.clear();
        plan.truncated = false;
        Scratch s;
        enumerate_item(frontier[i].marks, s,
                       [&](const ERef* const* parts, std::size_t k, const Marks& to_marks,
                           bool spawn, bool b_transition) -> bool {
                         if (plan.edges.size() >= kPlanCap) {
                           plan.truncated = true;
                           return false;
                         }
                         Pending p;
                         p.to_marks = to_marks;
                         p.parts_begin = static_cast<std::uint32_t>(plan.parts.size());
                         p.parts_len = static_cast<std::uint32_t>(k);
                         p.spawn = spawn;
                         p.b_transition = b_transition;
                         plan.parts.insert(plan.parts.end(), parts, parts + k);
                         plan.edges.push_back(std::move(p));
                         return true;
                       });
      });
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        from_node = basis_of[frontier[i].mark_id];
        ++iter_stats_.basis_hits;
        Plan& plan = plans[i];
        if (plan.truncated) {
          enumerate_item(frontier[i].marks, fused_scratch, fused_leaf);
          continue;
        }
        for (const Pending& p : plan.edges) {
          emit_leaf(plan.parts.data() + p.parts_begin, p.parts_len, p.to_marks, p.spawn,
                    p.b_transition);
        }
      }
    } else {
      for (const Item& item : frontier) {
        from_node = basis_of[item.mark_id];
        ++iter_stats_.basis_hits;
        enumerate_item(item.marks, fused_scratch, fused_leaf);
      }
    }
    IL_CHECK(wave_total == SIZE_MAX || out.edges.size() == wave_total,
             "a subset-construction wave emitted other than its priced edge count");
    frontier.swap(next_frontier);
  }
  std::sort(out.nodes.begin(), out.nodes.end());
  return out;
}

}  // namespace il::lll
