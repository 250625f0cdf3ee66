#include "core/memo.h"

#include <algorithm>

#include "core/intern.h"
#include "util/assert.h"

namespace il {

namespace {

/// First table size; grow() doubles it.  Small, because a monitor's windowed
/// settled cache holds tens to hundreds of entries (core/monitor.h).
constexpr std::size_t kInitialSlots = 16;
/// Maximum load factor: the table doubles once count exceeds 70% of slots.
constexpr std::size_t kLoadNum = 7;
constexpr std::size_t kLoadDen = 10;

inline std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: cheap and well distributed for packed keys.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// The slot array is allocated lazily on the first store: short-lived caches
// (e.g. one Monitor::current() call) should not pay for zeroing a table.
EvalCache::EvalCache() = default;

std::size_t EvalCache::hash_key(const Key& k) {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(k.node) << 32) | k.trace);
  h ^= mix64(k.lo + 0x100000001b3ull * k.hi);
  h ^= mix64((static_cast<std::uint64_t>(k.op) << 8) | k.n_env);
  for (std::uint8_t i = 0; i < k.n_env; ++i) {
    h ^= mix64((static_cast<std::uint64_t>(k.metas[i]) << 32) ^
               static_cast<std::uint64_t>(k.values[i]));
  }
  return static_cast<std::size_t>(h);
}

std::size_t EvalCache::probe(const Key& key) const {
  std::size_t i = hash_key(key) & mask_;
  for (;;) {
    const Slot& slot = slots_[i];
    if (!slot.used || slot.key == key) return i;
    i = (i + 1) & mask_;
  }
}

const EvalCache::Entry* EvalCache::lookup(const Key& key) {
  if (slots_.empty()) {
    ++misses_;
    return nullptr;
  }
  const std::size_t i = probe(key);
  if (!slots_[i].used) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &slots_[i].entry;
}

void EvalCache::store(const Key& key, const Entry& entry) {
  if (capacity_ != 0 && count_ >= capacity_) return;
  if (slots_.empty()) {
    slots_.assign(kInitialSlots, Slot{});
    mask_ = kInitialSlots - 1;
  }
  if ((count_ + 1) * kLoadDen > slots_.size() * kLoadNum) grow();
  Slot& slot = slots_[probe(key)];
  if (slot.used) return;  // already present (racing store after a hit)
  slot.key = key;
  slot.entry = entry;
  slot.used = true;
  ++count_;
  ++inserts_;
}

void EvalCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (Slot& slot : old) {
    if (!slot.used) continue;
    slots_[probe(slot.key)] = std::move(slot);
  }
}

void EvalCache::evict_entries() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  evicted_ += count_;
  count_ = 0;
}

void EvalCache::evict_below(std::uint64_t lo) {
  if (count_ == 0) return;
  // Walk the table once around, starting just past a slot that is empty
  // before the sweep: no probe run crosses that slot, so the walk meets
  // every run from its first slot on.  Entries below `lo` are dropped.  A
  // survivor behind a slot this sweep vacated in the same run is lifted out
  // and re-probed: it lands at the first free slot from its home, at or
  // before where it stood, and later moves only vacate slots further along.
  // So every run is again gap-free from each entry's home to its slot,
  // which is all linear probing needs.  A survivor with no vacated slot
  // before it in its run keeps its place without rehashing.
  std::size_t empty = 0;
  while (slots_[empty].used) ++empty;  // the load factor keeps one free
  std::size_t dropped = 0;
  bool vacated = false;  ///< this sweep freed a slot of the current run
  for (std::size_t i = (empty + 1) & mask_; i != empty; i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (!slot.used) {  // was empty before the sweep: a run ends here
      vacated = false;
      continue;
    }
    if (slot.key.lo < lo) {
      slot.used = false;
      vacated = true;
      ++dropped;
      continue;
    }
    if (!vacated) continue;
    slot.used = false;
    const std::size_t to = probe(slot.key);
    if (to != i) slots_[to] = slot;
    slots_[to].used = true;
  }
  count_ -= dropped;
  evicted_ += dropped;
}

void EvalCache::release() {
  slots_.clear();
  slots_.shrink_to_fit();
  mask_ = 0;
  evicted_ += count_;
  count_ = 0;
}

void EvalCache::clear() {
  slots_.clear();
  slots_.shrink_to_fit();
  mask_ = 0;
  count_ = 0;
  hits_ = 0;
  misses_ = 0;
  inserts_ = 0;
  env_overflows_ = 0;
  evicted_ = 0;
}

bool restrict_env_span(const std::vector<std::uint32_t>& metas, const Env& env,
                       std::uint8_t& n_env, std::uint32_t* metas_out,
                       std::int64_t* values_out) {
  n_env = 0;
  if (metas.empty() || env.empty()) return true;
  const auto& bound = env.bindings();
  std::size_t bi = 0;
  for (std::uint32_t meta : metas) {
    while (bi < bound.size() && bound[bi].first < meta) ++bi;
    if (bi == bound.size()) break;
    if (bound[bi].first != meta) continue;
    if (n_env == EvalCache::kMaxEnv) return false;
    metas_out[n_env] = meta;
    values_out[n_env] = bound[bi].second;
    ++n_env;
  }
  return true;
}

// ---------------------------------------------------------------------------
// IntervalIndex
// ---------------------------------------------------------------------------

void IntervalIndex::pull(std::uint32_t n) {
  Node& nd = nodes_[n];
  nd.height = 1 + std::max(height(nd.left), height(nd.right));
  nd.max_hi = std::max(nd.hi, std::max(max_hi(nd.left), max_hi(nd.right)));
}

std::uint32_t IntervalIndex::rotate_left(std::uint32_t n) {
  const std::uint32_t r = nodes_[n].right;
  nodes_[n].right = nodes_[r].left;
  nodes_[r].left = n;
  pull(n);
  pull(r);
  return r;
}

std::uint32_t IntervalIndex::rotate_right(std::uint32_t n) {
  const std::uint32_t l = nodes_[n].left;
  nodes_[n].left = nodes_[l].right;
  nodes_[l].right = n;
  pull(n);
  pull(l);
  return l;
}

std::uint32_t IntervalIndex::rebalance(std::uint32_t n) {
  pull(n);
  const std::int32_t bal = height(nodes_[n].left) - height(nodes_[n].right);
  if (bal > 1) {
    if (height(nodes_[nodes_[n].left].left) < height(nodes_[nodes_[n].left].right)) {
      nodes_[n].left = rotate_left(nodes_[n].left);
    }
    return rotate_right(n);
  }
  if (bal < -1) {
    if (height(nodes_[nodes_[n].right].right) < height(nodes_[nodes_[n].right].left)) {
      nodes_[n].right = rotate_right(nodes_[n].right);
    }
    return rotate_left(n);
  }
  return n;
}

std::uint32_t IntervalIndex::insert_rec(std::uint32_t n, std::uint32_t fresh) {
  if (n == kNil) return fresh;
  const Node& f = nodes_[fresh];
  if (less(f.lo, f.ob, nodes_[n].lo, nodes_[n].ob)) {
    nodes_[n].left = insert_rec(nodes_[n].left, fresh);
  } else {
    nodes_[n].right = insert_rec(nodes_[n].right, fresh);
  }
  return rebalance(n);
}

void IntervalIndex::insert(std::uint64_t lo, std::uint64_t hi, Payload ob) {
  std::uint32_t fresh;
  if (!free_.empty()) {
    fresh = free_.back();
    free_.pop_back();
  } else {
    fresh = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[fresh] = Node{lo, hi, hi, kNil, kNil, ob, 1};
  root_ = insert_rec(root_, fresh);
  ++size_;
}

std::uint32_t IntervalIndex::detach_min(std::uint32_t n, std::uint32_t& min_out) {
  if (nodes_[n].left == kNil) {
    min_out = n;
    return nodes_[n].right;
  }
  nodes_[n].left = detach_min(nodes_[n].left, min_out);
  return rebalance(n);
}

std::uint32_t IntervalIndex::remove_rec(std::uint32_t n, std::uint64_t lo, Payload ob,
                                        bool& removed) {
  if (n == kNil) return kNil;
  Node& nd = nodes_[n];
  if (less(lo, ob, nd.lo, nd.ob)) {
    nd.left = remove_rec(nd.left, lo, ob, removed);
  } else if (less(nd.lo, nd.ob, lo, ob)) {
    nd.right = remove_rec(nd.right, lo, ob, removed);
  } else {
    removed = true;
    std::uint32_t replacement;
    if (nd.left == kNil || nd.right == kNil) {
      replacement = nd.left == kNil ? nd.right : nd.left;
    } else {
      // Two children: splice the right subtree's minimum into this spot.
      std::uint32_t succ = kNil;
      const std::uint32_t right = detach_min(nd.right, succ);
      nodes_[succ].left = nd.left;
      nodes_[succ].right = right;
      replacement = rebalance(succ);
    }
    free_.push_back(n);
    --size_;
    return replacement;
  }
  return rebalance(n);
}

bool IntervalIndex::remove(std::uint64_t lo, Payload ob) {
  bool removed = false;
  root_ = remove_rec(root_, lo, ob, removed);
  return removed;
}

std::size_t IntervalIndex::stab_rec(std::uint32_t n, std::uint64_t point,
                                    std::vector<Payload>& out) const {
  if (n == kNil) return 0;
  const Node& nd = nodes_[n];
  // The augmentation prunes: nothing below can end at or after `point`.
  if (nd.max_hi < point) return 1;
  std::size_t visited = 1 + stab_rec(nd.left, point, out);
  if (nd.lo <= point) {
    if (nd.hi >= point) out.push_back(nd.ob);
    visited += stab_rec(nd.right, point, out);
  }
  return visited;
}

std::size_t IntervalIndex::stab(std::uint64_t point, std::vector<Payload>& out) const {
  return stab_rec(root_, point, out);
}

void IntervalIndex::clear() {
  nodes_.clear();
  nodes_.shrink_to_fit();
  free_.clear();
  free_.shrink_to_fit();
  root_ = kNil;
  size_ = 0;
}

// ---------------------------------------------------------------------------
// ObligationGraph
// ---------------------------------------------------------------------------

std::size_t ObligationGraph::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(k.node) << 8) |
                          static_cast<std::uint64_t>(k.op));
  h ^= mix64(k.lo + 0x9e3779b97f4a7c15ull * k.n_env);
  for (std::uint8_t i = 0; i < k.n_env; ++i) {
    h ^= mix64((static_cast<std::uint64_t>(k.metas[i]) << 32) ^
               static_cast<std::uint64_t>(k.values[i]));
  }
  return static_cast<std::size_t>(h);
}

void ObligationGraph::seed_and_close(std::vector<ObId>& stack) {
  // Change propagation: everything the seed set can reach through the
  // reverse-dependency index must re-settle; settled obligations are
  // firewalls (their result is pinned, so nothing changes through them).
  // Settlement is permanent, so settled parents are compacted out of each
  // reverse list as the closure passes — the pass stays proportional to the
  // *open* frontier, not to every obligation the run has ever settled.
  while (!stack.empty()) {
    const ObId child = stack.back();
    stack.pop_back();
    std::vector<ObId>& parents = reverse_[child];
    std::size_t w = 0;
    for (const ObId parent : parents) {
      Obligation& ob = obligations_[parent];
      if (ob.settled || ob.freed) continue;  // drop the edge: it can never matter again
      parents[w++] = parent;
      if (ob.dirty) continue;
      ob.dirty = true;
      ++last_dirtied_;
      ++total_dirtied_;
      stack.push_back(parent);
    }
    parents.resize(w);
  }
}

void ObligationGraph::begin_epoch(std::uint64_t horizon) {
  ++epoch_;
  // Slots freed during the previous epoch become reusable only now: any
  // ObId an in-flight evaluation was still holding has gone cold.
  if (!free_pending_.empty()) {
    free_list_.insert(free_list_.end(), free_pending_.begin(), free_pending_.end());
    free_pending_.clear();
  }
  last_dirtied_ = 0;
  walk_stack_.clear();
  end_recompute(0);  // only non-empty after a recomputation threw
  // The stabbing query: exactly the open obligations whose sensitivity
  // window [lo, inf) contains the new horizon, in O(log n + touched) node
  // visits.  They seed the dirty closure; everything else is untouched.
  stab_out_.clear();
  ++stabs_;
  stab_visited_ += tree_.stab(horizon, stab_out_);
  last_touched_ = stab_out_.size();
  touched_total_ += stab_out_.size();
  for (const ObId id : stab_out_) {
    Obligation& ob = obligations_[id];
    if (ob.freed || ob.settled || ob.dirty) continue;
    ob.dirty = true;
    ++last_dirtied_;
    ++total_dirtied_;
    walk_stack_.push_back(id);
  }
  seed_and_close(walk_stack_);
}

ObligationGraph::ObId ObligationGraph::obtain(const Key& key) {
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  ObId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    --freed_count_;
    Obligation& ob = obligations_[id];
    ob = Obligation{};
    ob.key = key;
    ob.floor = key.lo;
  } else {
    id = static_cast<ObId>(obligations_.size());
    Obligation ob;
    ob.key = key;
    ob.floor = key.lo;
    obligations_.push_back(std::move(ob));
    reverse_.emplace_back();
  }
  index_.emplace(key, id);
  return id;
}

void ObligationGraph::touch_horizon(ObId attach) {
  if (attach == kNoOb) return;
  Obligation& ob = obligations_[attach];
  if (ob.in_tree || ob.settled) return;
  // Once is enough: the window [key.lo, inf) contains every later horizon,
  // so the registration never has to move.
  tree_.insert(ob.key.lo, IntervalIndex::kInf, attach);
  ob.in_tree = true;
}

void ObligationGraph::on_settle(ObId id) {
  if (id == kNoOb) return;
  Obligation& ob = obligations_[id];
  if (ob.in_tree) {
    tree_.remove(ob.key.lo, id);
    ob.in_tree = false;
  }
}

void ObligationGraph::erase_from(std::vector<ObId>& v, ObId id) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == id) {
      v[i] = v.back();
      v.pop_back();
      return;
    }
  }
}

std::size_t ObligationGraph::begin_recompute(ObId self) {
  const std::size_t mark = pruned_.size();
  if (self == kNoOb) return mark;
  Obligation& ob = obligations_[self];
  // Until the recomputation says otherwise, it may read anything from its
  // own lo up (see Obligation::floor).
  ob.floor = ob.key.lo;
  if (ob.deps.empty()) return mark;
  // Compact the dependency list: a settled child can never dirty this
  // record; the edge is re-added through add_dep if the recomputation
  // re-reads the child.
  std::size_t w = 0;
  for (const ObId d : ob.deps) {
    if (!obligations_[d].freed && obligations_[d].settled) {
      edge_set_.erase(pack_edge(self, d));
      erase_from(reverse_[d], self);
      pruned_.push_back(d);
      ++obligations_[d].pruned_pins;
      continue;
    }
    ob.deps[w++] = d;
  }
  ob.deps.resize(w);
  return mark;
}

void ObligationGraph::end_recompute(std::size_t mark) {
  // A pruned child the recomputation did not read again is unreachable
  // from here — free it now instead of waiting for a sweep.  One it did
  // read is kept with its pinned answer, so the recomputation never
  // rebuilds a settled record from scratch.  LIFO: nested recomputations
  // close their own marks first.
  for (std::size_t i = mark; i < pruned_.size(); ++i) {
    --obligations_[pruned_[i]].pruned_pins;
    maybe_cascade_free(pruned_[i]);
  }
  pruned_.resize(mark);
}

void ObligationGraph::mark_root(ObId id) {
  if (id == kNoOb) return;
  Obligation& ob = obligations_[id];
  if (ob.is_root) return;
  ob.is_root = true;
  roots_.push_back(id);
}

void ObligationGraph::free_record(ObId id) {
  Obligation& ob = obligations_[id];
  IL_CHECK(!ob.freed && !ob.is_root);
  // Account what the allocator gets back (the slot itself stays resident,
  // queued for reuse).
  gc_freed_bytes_ += ob.open_positions.capacity() * sizeof(std::uint64_t) +
                     ob.deps.capacity() * sizeof(ObId) +
                     reverse_[id].capacity() * sizeof(ObId) +
                     (sizeof(Key) + sizeof(ObId) + 2 * sizeof(void*)) +
                     (ob.in_tree ? IntervalIndex::node_bytes() : 0);
  if (ob.in_tree) {
    tree_.remove(ob.key.lo, id);
    ob.in_tree = false;
  }
  index_.erase(ob.key);
  // Unlink both directions so no live record is left holding this id.
  const std::vector<ObId> kids = std::move(ob.deps);
  ob.deps = {};
  for (const ObId d : kids) {
    edge_set_.erase(pack_edge(id, d));
    erase_from(reverse_[d], id);
  }
  for (const ObId p : reverse_[id]) {
    edge_set_.erase(pack_edge(p, id));
    if (!obligations_[p].freed) erase_from(obligations_[p].deps, id);
  }
  std::vector<ObId>().swap(reverse_[id]);
  std::vector<std::uint64_t>().swap(ob.open_positions);
  ob.freed = true;
  ob.settled = false;
  free_pending_.push_back(id);
  ++freed_count_;
  ++gc_freed_;
  // A child left with no parents (and no root mark) is unreachable too.
  for (const ObId d : kids) maybe_cascade_free(d);
}

void ObligationGraph::maybe_cascade_free(ObId id) {
  if (id == kNoOb) return;
  Obligation& ob = obligations_[id];
  // A child pruned by a recomputation still in flight waits for that
  // recomputation's end_recompute(), which may read it again.
  if (ob.freed || ob.is_root || ob.pruned_pins != 0 || !reverse_[id].empty()) return;
  free_record(id);
}

void ObligationGraph::unlink_superseded(ObId parent, const Key& child_key) {
  const auto it = index_.find(child_key);
  if (it == index_.end()) return;
  const ObId child = it->second;
  if (child == parent) return;
  if (edge_set_.erase(pack_edge(parent, child)) != 0) {
    erase_from(obligations_[parent].deps, child);
    erase_from(reverse_[child], parent);
    ++orphan_unlinks_;
  }
  maybe_cascade_free(child);
}

bool ObligationGraph::maybe_gc() {
  if (gc_fraction_ <= 0.0) return false;
  // Pacing floor: tiny graphs are never worth a sweep.
  constexpr std::size_t kMinRecords = 256;
  const std::size_t resident = size();
  if (resident < kMinRecords) return false;
  if (static_cast<double>(resident) <=
      static_cast<double>(last_gc_live_) * (1.0 + gc_fraction_)) {
    return false;
  }
  gc_sweep();
  return true;
}

std::size_t ObligationGraph::gc_sweep() {
  end_recompute(0);  // only non-empty after a recomputation threw
  ++gc_sweeps_;
  ++gc_stamp_;
  // Mark: everything a root verdict can still read.  Dependency edges are
  // traversed through open records only — a settled record never recomputes
  // and so never re-reads its children; a settled child an open parent
  // still reads is marked (kept) but not descended into.
  std::size_t marked = 0;
  walk_stack_.clear();
  for (const ObId r : roots_) {
    Obligation& ob = obligations_[r];
    if (ob.freed || ob.gc_mark == gc_stamp_) continue;
    ob.gc_mark = gc_stamp_;
    ++marked;
    walk_stack_.push_back(r);
  }
  while (!walk_stack_.empty()) {
    const ObId id = walk_stack_.back();
    walk_stack_.pop_back();
    const Obligation& ob = obligations_[id];
    if (ob.settled) continue;
    for (const ObId d : ob.deps) {
      Obligation& child = obligations_[d];
      if (child.freed || child.gc_mark == gc_stamp_) continue;
      child.gc_mark = gc_stamp_;
      ++marked;
      walk_stack_.push_back(d);
    }
  }
  gc_marked_ += marked;
  // Sweep: free every unmarked record.  free_record cascades, but only into
  // records that are themselves unmarked (a marked record either carries
  // the root flag or keeps an edge from a marked open parent).
  const std::size_t freed_before = gc_freed_;
  for (ObId id = 0; id < static_cast<ObId>(obligations_.size()); ++id) {
    Obligation& ob = obligations_[id];
    if (ob.freed || ob.gc_mark == gc_stamp_) continue;
    free_record(id);
  }
  last_gc_live_ = size();
  return gc_freed_ - freed_before;
}

void ObligationGraph::add_dep(ObId parent, ObId child) {
  IL_CHECK(parent < obligations_.size() && child < reverse_.size());
  const std::uint64_t packed = (static_cast<std::uint64_t>(parent) << 32) | child;
  if (!edge_set_.insert(packed).second) return;
  obligations_[parent].deps.push_back(child);
  reverse_[child].push_back(parent);
}

void ObligationGraph::reset() {
  obligations_.clear();
  index_.clear();
  reverse_.clear();
  edge_set_.clear();
  tree_.clear();
  roots_.clear();
  free_list_.clear();
  free_pending_.clear();
  stab_out_.clear();
  walk_stack_.clear();
  pruned_.clear();
  freed_count_ = 0;
  last_gc_live_ = 0;
  last_dirtied_ = 0;
}

std::size_t ObligationGraph::bytes() const {
  std::size_t b = obligations_.capacity() * sizeof(Obligation);
  for (const Obligation& ob : obligations_) {
    b += ob.open_positions.capacity() * sizeof(std::uint64_t);
    b += ob.deps.capacity() * sizeof(ObId);
  }
  b += reverse_.capacity() * sizeof(std::vector<ObId>);
  for (const std::vector<ObId>& parents : reverse_) b += parents.capacity() * sizeof(ObId);
  // Interval-index node pool plus the GC bookkeeping vectors.
  b += tree_.bytes();
  b += (roots_.capacity() + free_list_.capacity() + free_pending_.capacity() +
        stab_out_.capacity() + walk_stack_.capacity() + pruned_.capacity()) *
       sizeof(ObId);
  // Hash tables estimated at one node/bucket overhead per entry: exact
  // allocator charges are implementation-specific, but a budget check only
  // needs a monotone, same-order figure.
  b += index_.size() * (sizeof(Key) + sizeof(ObId) + 2 * sizeof(void*));
  b += edge_set_.size() * (sizeof(std::uint64_t) + 2 * sizeof(void*));
  return b;
}

std::uint64_t ObligationGraph::read_floor() const {
  // Every present open record, reachable or not: an unreachable one can
  // still be found again by key and resumed from its state.
  std::uint64_t floor = kNoFloor;
  for (const Obligation& ob : obligations_) {
    if (!ob.freed && !ob.settled && ob.floor < floor) floor = ob.floor;
  }
  return floor;
}

std::size_t ObligationGraph::settled_count() const {
  std::size_t n = 0;
  for (const Obligation& ob : obligations_) n += ob.settled ? 1 : 0;
  return n;
}

std::size_t ObligationGraph::open_count() const { return size() - settled_count(); }

}  // namespace il
