// Debugfs-style introspection for the engine: every counter family renders
// as stable `key value` lines an operator (or a script) can watch live, in
// the spirit of the mv88e6xxx register dumps — one counter per line, dotted
// hierarchical keys, values in decimal, nothing else.  The format is a
// contract: keys are emitted in a fixed order, every line matches
// `^[a-z0-9_.]+ [0-9]+$`, and tests/test_monitor_service.cpp pins it with a
// golden dump.
//
// The sources are the counter-export hooks on the decision stores
// (DecisionCache, IntraDecisionStats in engine/decision.h) and the
// per-family stats structs (engine.h, decision.h) — the streaming family's
// generated from its counter table, IL_STREAM_COUNTERS;
// MonitorService::dump() composes these per shard.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "engine/decision.h"
#include "engine/engine.h"

namespace il::engine {

/// Writes `key value` lines under a dotted prefix.  Copyable and cheap:
/// scoped("memo") returns a writer whose lines read `<prefix>memo.<key>`.
class KvWriter {
 public:
  explicit KvWriter(std::ostream& os, std::string prefix = "");

  /// A writer for the nested group `<prefix><group>.`.
  KvWriter scoped(const std::string& group) const;

  void emit(const std::string& key, std::uint64_t value);

 private:
  std::ostream* os_;
  std::string prefix_;
};

/// Renders a store's counter-export hook under the writer's prefix.
void dump_counters(KvWriter kv, const DecisionCache& cache);
void dump_counters(KvWriter kv, const IntraDecisionStats& stats);

/// Renders a per-family stats struct (fixed key order, one key per field;
/// StreamStats in IL_STREAM_COUNTERS row order, trace_bytes excluded).
void dump_counters(KvWriter kv, const CheckStats& stats);
void dump_counters(KvWriter kv, const DecisionStats& stats);
void dump_counters(KvWriter kv, const StreamStats& stats);

}  // namespace il::engine
