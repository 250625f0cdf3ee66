#include "engine/introspect.h"

namespace il::engine {

KvWriter::KvWriter(std::ostream& os, std::string prefix) : os_(&os), prefix_(std::move(prefix)) {}

KvWriter KvWriter::scoped(const std::string& group) const {
  return KvWriter(*os_, prefix_ + group + ".");
}

void KvWriter::emit(const std::string& key, std::uint64_t value) {
  *os_ << prefix_ << key << ' ' << value << '\n';
}

void dump_counters(KvWriter kv, const DecisionCache& cache) {
  cache.for_each_counter([&](const char* name, std::uint64_t v) { kv.emit(name, v); });
}

void dump_counters(KvWriter kv, const IntraDecisionStats& stats) {
  stats.for_each_counter([&](const char* name, std::uint64_t v) { kv.emit(name, v); });
}

void dump_counters(KvWriter kv, const CheckStats& stats) {
  kv.emit("jobs", stats.jobs);
  kv.emit("threads", stats.threads);
  kv.emit("axioms_checked", stats.axioms_checked);
  kv.emit("axioms_failed", stats.axioms_failed);
  KvWriter memo = kv.scoped("memo");
  memo.emit("hits", stats.memo_hits);
  memo.emit("misses", stats.memo_misses);
  memo.emit("inserts", stats.memo_inserts);
  memo.emit("entries", stats.memo_entries);
}

void dump_counters(KvWriter kv, const DecisionStats& stats) {
  kv.emit("jobs", stats.jobs);
  kv.emit("threads", stats.threads);
  kv.emit("tableau_jobs", stats.tableau_jobs);
  kv.emit("lll_jobs", stats.lll_jobs);
  kv.emit("unique_jobs", stats.unique_jobs);
  kv.emit("graph_nodes", stats.graph_nodes);
  kv.emit("graph_edges", stats.graph_edges);
  KvWriter dec = kv.scoped("decision");
  dec.emit("hits", stats.decision_hits);
  dec.emit("misses", stats.decision_misses);
  dec.emit("inserts", stats.decision_inserts);
  dec.emit("entries", stats.decision_entries);
  dump_counters(kv.scoped("intra"), stats.intra);
}

void dump_counters(KvWriter kv, const StreamStats& stats) {
  stats.for_each_counter([&](const char* group, const char* key, CounterKind, std::size_t v) {
    kv.scoped(group).emit(key, v);
  });
}

}  // namespace il::engine
