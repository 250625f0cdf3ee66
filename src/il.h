// The public facade of the interval-logic library.  Applications include
// this one header and use namespace `il::` — everything re-exported here is
// the supported surface; headers under src/ not reachable from this file
// are internals and may change without notice.
//
// The surface, by workload:
//
//   One-shot checking     check(), check_spec(), Spec / Axiom / CheckResult
//   Batch checking        BatchChecker / CheckJob / check_batch()
//   Batch decisions       BatchDecider / DecisionJob / decide_batch()
//   Online monitoring     Monitor (one stream, standalone)
//   Resident service      MonitorService / MonitorId / StreamId / VerdictRow,
//                         Verdict / ServiceFault (fault isolation)
//   Introspection         KvWriter, dump_counters(), MonitorService::dump()
//   Options & stats       Options, CheckStats / DecisionStats / StreamStats /
//                         ServiceStats
//   Building blocks       TraceBuilder / Trace / State / Env, parse_formula
//   Case studies          sys:: simulators (mutex, queue, AB protocol,
//                         self-timed, arbiter) and the theory oracles
//
// The engine types live in namespace il::engine and are re-exported into
// il:: below, so `il::MonitorService` and `il::engine::MonitorService` name
// the same type.
#pragma once

#include "core/bounded.h"
#include "core/check.h"
#include "core/diagram.h"
#include "core/monitor.h"
#include "core/parser.h"
#include "core/semantics.h"
#include "engine/decision.h"
#include "engine/engine.h"
#include "engine/introspect.h"
#include "engine/service.h"
#include "systems/ab_protocol.h"
#include "systems/arbiter.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"
#include "systems/selftimed.h"
#include "theory/combined.h"
#include "trace/trace.h"

namespace il {

// Options and per-family statistics (engine/engine.h, engine/decision.h).
using engine::CheckStats;
using engine::DecisionStats;
using engine::Options;
using engine::ServiceStats;
using engine::StreamStats;

// Offline batch checking (engine/engine.h).
using engine::BatchChecker;
using engine::check_batch;
using engine::CheckJob;
using engine::jobs_for_traces;

// Batched decision procedures (engine/decision.h).
using engine::BatchDecider;
using engine::decide_batch;
using engine::DecisionJob;
using engine::DecisionResult;
using engine::lll_sat_job;
using engine::tableau_sat_job;
using engine::tableau_valid_job;

// The resident monitoring service (engine/service.h).
using engine::AppendStatus;
using engine::kDefaultStream;
using engine::MonitorId;
using engine::MonitorService;
using engine::ServiceFault;
using engine::ServiceVerdict;
using engine::StreamId;
using engine::Verdict;
using engine::VerdictRow;

// Introspection (engine/introspect.h).
using engine::dump_counters;
using engine::KvWriter;

}  // namespace il
