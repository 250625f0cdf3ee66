// MonitorService lifecycle, backpressure, introspection, and differential
// coverage: register/feed/retire interleavings are sequenced by the command
// queue; the bounded ingest queue fills (QueueFull / blocking append) and
// drains; dump() emits the stable debugfs-style `key value` format (pinned
// by a golden dump); and the five case-study monitors stream through the
// service with verdicts bit-identical to standalone monitors at 1/2/4
// threads.  Decision batches through decide() must match decide_batch() and
// populate the per-shard decision caches.
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "il.h"
#include "lll/encode.h"
#include "ltl/formula.h"
#include "systems/ab_protocol.h"
#include "systems/arbiter.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"
#include "systems/selftimed.h"

namespace il {
namespace {

std::vector<std::int64_t> domain(std::size_t n) {
  std::vector<std::int64_t> d;
  for (std::size_t i = 1; i <= n; ++i) d.push_back(static_cast<std::int64_t>(i));
  return d;
}

/// The five case-study specs with good and misbehaving recorded runs — the
/// PR 5 differential corpus, replayed through the service.
struct StreamCases {
  std::deque<Spec> specs;  ///< deque: spec_of pointers survive growth
  std::vector<const Spec*> spec_of;  ///< per trace
  std::vector<Trace> traces;

  StreamCases() {
    traces.reserve(16);

    specs.push_back(sys::mutex_spec(3));
    const Spec* mutex = &specs.back();
    sys::MutexRunConfig mc;
    mc.seed = 1;
    mc.entries = 4;
    add(mutex, sys::run_mutex(mc));
    add(mutex, sys::run_mutex_buggy(mc));

    specs.push_back(sys::queue_spec(domain(3)));
    const Spec* queue = &specs.back();
    sys::QueueRunConfig qc;
    qc.seed = 1;
    qc.values = 3;
    add(queue, sys::run_fifo_queue(qc));
    add(queue, sys::run_swapping_queue(qc));

    sys::AbRunConfig ac;
    ac.seed = 7;
    specs.push_back(sys::ab_sender_spec(domain(3)));
    const Spec* ab = &specs.back();
    add(ab, sys::run_ab_protocol(ac).trace);

    specs.push_back(sys::request_ack_spec());
    const Spec* selftimed = &specs.back();
    sys::SelfTimedRunConfig sc;
    add(selftimed, sys::run_request_ack_buggy(sc));

    specs.push_back(sys::arbiter_spec());
    const Spec* arbiter = &specs.back();
    sys::ArbiterRunConfig arc;
    add(arbiter, sys::run_arbiter(arc));
  }

  void add(const Spec* spec, Trace trace) {
    traces.push_back(std::move(trace));
    spec_of.push_back(spec);
  }
};

/// Verdicts of a standalone monitor fed every state of `run` by append():
/// the independent reference the service rows must equal.
std::vector<CheckResult> standalone(const Spec& spec, Monitor::Mode mode, const Trace& run) {
  Monitor m(spec, {}, mode);
  std::vector<CheckResult> out;
  for (const State& s : run.states()) out.push_back(m.append(s));
  return out;
}

TEST(MonitorService, VerdictsBitIdenticalToStandaloneMonitorsAcrossThreadCounts) {
  StreamCases cases;
  const std::vector<Monitor::Mode> modes = {Monitor::Mode::Incremental, Monitor::Mode::Scratch,
                                            Monitor::Mode::Incremental};
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];

    // Reference: one standalone monitor per subscription, incremental and
    // scratch interleaved.
    std::vector<std::vector<CheckResult>> reference;
    for (const Monitor::Mode mode : modes) reference.push_back(standalone(spec, mode, run));

    for (const std::size_t threads : {1u, 2u, 4u}) {
      Options opts;
      opts.num_threads = threads;
      MonitorService service(opts);
      std::vector<MonitorId> ids;
      for (const Monitor::Mode mode : modes) ids.push_back(service.register_spec(spec, {}, mode));
      for (const State& s : run.states()) service.append(s);
      service.flush();
      const std::vector<VerdictRow> rows = service.drain();

      ASSERT_EQ(rows.size(), run.size()) << "case " << c << " threads " << threads;
      for (std::size_t k = 0; k < rows.size(); ++k) {
        ASSERT_EQ(rows[k].seq, k);
        ASSERT_EQ(rows[k].verdicts.size(), modes.size());
        for (std::size_t j = 0; j < modes.size(); ++j) {
          ASSERT_EQ(rows[k].verdicts[j].id, ids[j]);
          ASSERT_EQ(rows[k].verdicts[j].result.ok, reference[j][k].ok)
              << "case " << c << " threads " << threads << " state " << k << " job " << j;
          ASSERT_EQ(rows[k].verdicts[j].result.failed, reference[j][k].failed)
              << "case " << c << " threads " << threads << " state " << k << " job " << j;
        }
      }
    }
  }
}

TEST(MonitorService, RegisterFeedRetireInterleavingsAreSequenced) {
  const Spec spec = sys::mutex_spec(2);
  sys::MutexRunConfig mc;
  mc.entries = 3;
  const Trace run = sys::run_mutex(mc);
  ASSERT_GE(run.size(), 3u);
  const State& s0 = run.states()[0];
  const State& s1 = run.states()[1];
  const State& s2 = run.states()[2];

  Options opts;
  opts.num_threads = 2;
  MonitorService service(opts);

  const MonitorId a = service.register_spec(spec);
  service.append(s0);
  const MonitorId b = service.register_spec(spec);  // b must not see s0
  service.append(s1);
  service.retire(a);  // a must not see s2
  service.append(s2);
  service.flush();
  EXPECT_LT(a, b) << "MonitorIds are allocated in registration order";
  EXPECT_EQ(service.resident(), 1u);

  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_EQ(rows.size(), 3u);
  ASSERT_EQ(rows[0].verdicts.size(), 1u);
  EXPECT_EQ(rows[0].verdicts[0].id, a);
  ASSERT_EQ(rows[1].verdicts.size(), 2u);
  EXPECT_EQ(rows[1].verdicts[0].id, a);
  EXPECT_EQ(rows[1].verdicts[1].id, b);
  ASSERT_EQ(rows[2].verdicts.size(), 1u);
  EXPECT_EQ(rows[2].verdicts[0].id, b);

  // The late subscriber's verdicts correspond to the suffix it observed.
  Monitor late(spec);
  const CheckResult late1 = late.append(s1);
  const CheckResult late2 = late.append(s2);
  EXPECT_EQ(rows[1].verdicts[1].result.ok, late1.ok);
  EXPECT_EQ(rows[1].verdicts[1].result.failed, late1.failed);
  EXPECT_EQ(rows[2].verdicts[0].result.ok, late2.ok);
  EXPECT_EQ(rows[2].verdicts[0].result.failed, late2.failed);

  // Retiring an unknown id is counted, not fatal.
  service.retire(12345);
  service.flush();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.monitors_registered, 2u);
  EXPECT_EQ(stats.monitors_retired, 1u);
  EXPECT_EQ(stats.monitors_resident, 1u);
  EXPECT_EQ(stats.retire_misses, 1u);
  EXPECT_EQ(stats.states_ingested, 3u);
  EXPECT_EQ(stats.states_applied, 3u);
}

TEST(MonitorService, RetireFreesSettledCacheAndObligations) {
  // mutex_spec(3) is the smallest corpus case whose incremental run leaves
  // resident settled-cache entries behind (mutex_spec(2) settles nothing).
  const Spec spec = sys::mutex_spec(3);
  sys::MutexRunConfig mc;
  mc.entries = 4;
  const Trace run = sys::run_mutex(mc);

  Options opts;
  opts.num_threads = 1;  // one shard, so the gauges are easy to read
  MonitorService service(opts);
  const MonitorId id = service.register_spec(spec);
  for (const State& s : run.states()) service.append(s);
  service.flush();

  StreamStats before = service.shard_stats(0);
  EXPECT_EQ(before.monitors, 1u);
  EXPECT_GT(before.memo_entries, 0u);
  EXPECT_GT(before.obligation_entries, 0u);

  service.retire(id);
  service.flush();
  StreamStats after = service.shard_stats(0);
  EXPECT_EQ(after.monitors, 0u);
  EXPECT_EQ(after.memo_entries, 0u) << "retire frees the settled cache";
  EXPECT_EQ(after.obligation_entries, 0u) << "retire frees the obligation graph";
  // Lifetime counters survive the retirement.
  EXPECT_EQ(after.memo_hits, before.memo_hits);
  EXPECT_EQ(after.obligation_recomputed, before.obligation_recomputed);
  EXPECT_EQ(after.states, before.states);
  EXPECT_EQ(after.verdicts, before.verdicts);
}

TEST(MonitorService, BoundedQueueBackpressureFillsAndDrains) {
  const Spec spec = sys::mutex_spec(2);
  sys::MutexRunConfig mc;
  mc.entries = 2;
  const Trace run = sys::run_mutex(mc);
  const State& s = run.states()[0];

  Options opts;
  opts.num_threads = 1;
  opts.queue_capacity = 2;
  MonitorService service(opts);
  service.register_spec(spec);
  service.flush();

  // Freeze the coordinator so the queue fills deterministically.
  service.pause();
  EXPECT_EQ(service.try_append(s), AppendStatus::Ok);
  EXPECT_EQ(service.try_append(s), AppendStatus::Ok);
  EXPECT_EQ(service.try_append(s), AppendStatus::QueueFull);
  EXPECT_EQ(service.stats().queue_depth, 2u);

  // A blocking append parks on the backpressure condvar until the
  // coordinator resumes and frees a slot.
  std::thread producer([&]() { service.append(s); });
  service.resume();
  producer.join();
  service.flush();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.states_ingested, 3u);
  EXPECT_EQ(stats.states_applied, 3u);
  EXPECT_EQ(service.drain().size(), 3u);
}

TEST(MonitorService, GoldenDumpOfFreshService) {
  Options opts;
  opts.num_threads = 2;
  opts.num_shards = 2;
  opts.queue_capacity = 4;
  MonitorService service(opts);

  std::ostringstream os;
  service.dump(os);

  std::string expected;
  expected +=
      "service.shards 2\n"
      "service.threads 2\n"
      "service.streams 1\n"
      "service.queue_capacity 4\n"
      "service.queue_depth 0\n"
      "service.queue_peak 0\n"
      "service.states_ingested 0\n"
      "service.states_applied 0\n"
      "service.epoch_batches 0\n"
      "service.states_per_batch_max 0\n"
      "service.rows_pending 0\n"
      "service.monitors_registered 0\n"
      "service.monitors_resident 0\n"
      "service.monitors_retired 0\n"
      "service.retire_misses 0\n"
      "service.retired_compactions 0\n"
      "service.monitors_quarantined 0\n"
      "service.quarantines 0\n"
      "service.reinstates 0\n"
      "service.reinstate_misses 0\n"
      "service.reinstate_refused 0\n"
      "service.budget_gcs 0\n"
      "service.budget_demotions 0\n"
      "service.budget_quarantines 0\n"
      "service.decision_jobs 0\n"
      "service.trace_bytes 0\n"
      "service.trace_dropped 0\n"
      "service.stream0.trace_bytes 0\n"
      "service.stream0.trace_dropped 0\n";
  for (const char* shard : {"shard0", "shard1"}) {
    const std::string p(shard);
    expected += p + ".engine.monitors 0\n";
    expected += p + ".engine.threads 2\n";
    expected += p + ".engine.states 0\n";
    expected += p + ".engine.verdicts 0\n";
    expected += p + ".engine.axioms_checked 0\n";
    expected += p + ".engine.axioms_failed 0\n";
    expected += p + ".memo.hits 0\n";
    expected += p + ".memo.misses 0\n";
    expected += p + ".memo.inserts 0\n";
    expected += p + ".memo.evicted 0\n";
    expected += p + ".memo.entries 0\n";
    expected += p + ".memo.bytes 0\n";
    expected += p + ".obligation.entries 0\n";
    expected += p + ".obligation.settled 0\n";
    expected += p + ".obligation.open 0\n";
    expected += p + ".obligation.edges 0\n";
    expected += p + ".obligation.bytes 0\n";
    expected += p + ".obligation.dirtied 0\n";
    expected += p + ".obligation.recomputed 0\n";
    expected += p + ".obligation_index.nodes 0\n";
    expected += p + ".obligation_index.stabs 0\n";
    expected += p + ".obligation_index.visited 0\n";
    expected += p + ".obligation_index.touched 0\n";
    expected += p + ".gc.sweeps 0\n";
    expected += p + ".gc.marked 0\n";
    expected += p + ".gc.freed 0\n";
    expected += p + ".gc.freed_bytes 0\n";
    expected += p + ".gc.orphans 0\n";
    expected += p + ".retired_compactions 0\n";
    expected += p + ".quarantined 0\n";
    expected += p + ".quarantines 0\n";
    expected += p + ".budget_gcs 0\n";
    expected += p + ".budget_demotions 0\n";
    expected += p + ".budget_quarantines 0\n";
    expected += p + ".decision.hits 0\n";
    expected += p + ".decision.misses 0\n";
    expected += p + ".decision.inserts 0\n";
    expected += p + ".decision.entries 0\n";
    expected += p + ".decision.jobs 0\n";
    expected += p + ".decision.intra.threads 1\n";
    expected += p + ".decision.intra.waves 0\n";
    expected += p + ".decision.intra.frontier_sets 0\n";
    expected += p + ".decision.intra.sweep_tasks 0\n";
    expected += p + ".decision.intra.prefix_hits 0\n";
    expected += p + ".decision.intra.prefix_misses 0\n";
  }
  EXPECT_EQ(os.str(), expected);
}

TEST(MonitorService, DumpAfterTrafficKeepsTheStableFormat) {
  StreamCases cases;
  Options opts;
  opts.num_threads = 2;
  opts.num_shards = 2;
  MonitorService service(opts);
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    service.register_spec(*cases.spec_of[c]);
  }
  for (const State& s : cases.traces[0].states()) service.append(s);
  service.flush();

  std::ostringstream os;
  service.dump(os);
  const std::string dump = os.str();

  // Every line is `key value`; keys are unique, lowercase, dotted.
  const std::regex line_re("^[a-z0-9_.]+ [0-9]+$");
  std::set<std::string> keys;
  std::istringstream in(dump);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad line: " << line;
    const std::string key = line.substr(0, line.find(' '));
    EXPECT_TRUE(keys.insert(key).second) << "duplicate key: " << key;
  }
  EXPECT_GT(lines, 0u);

  // Every shard section carries the four counter families the operator
  // watches: engine, eval cache (memo), decision cache, obligation graph.
  for (const char* shard : {"shard0", "shard1"}) {
    for (const char* group : {".engine.monitors", ".memo.hits", ".memo.entries",
                              ".decision.hits", ".decision.entries", ".obligation.entries",
                              ".obligation.recomputed", ".obligation_index.stabs",
                              ".gc.sweeps"}) {
      EXPECT_TRUE(keys.count(std::string(shard) + group) == 1)
          << "missing " << shard << group;
    }
  }

  // The dump agrees with the structured stats.
  const ServiceStats stats = service.stats();
  EXPECT_NE(dump.find("service.monitors_resident " + std::to_string(stats.monitors_resident)),
            std::string::npos);
  EXPECT_GT(stats.totals.obligation_entries, 0u);
  EXPECT_GT(stats.totals.memo_hits, 0u);
  const StreamStats sh0 = service.shard_stats(0);
  const StreamStats sh1 = service.shard_stats(1);
  EXPECT_EQ(sh0.monitors + sh1.monitors, stats.totals.monitors);
}

TEST(MonitorService, DecideMatchesBatchDeciderAndWarmsPerShardCaches) {
  ltl::Arena arena;
  std::vector<engine::DecisionJob> jobs;
  for (const char* s : {"p", "[]p", "<>p", "[]p /\\ <>!p", "<>[]p", "[](p -> <>q)"}) {
    const ltl::Id f = arena.parse(s);
    jobs.push_back(tableau_sat_job(arena, f));
    jobs.push_back(lll_sat_job(lll::encode_ltl(arena, arena.nnf(f))));
  }
  const std::vector<DecisionResult> reference = decide_batch(jobs);

  for (const std::size_t threads : {1u, 4u}) {
    Options opts;
    opts.num_threads = threads;
    MonitorService service(opts);
    const std::vector<DecisionResult> cold = service.decide(jobs);
    ASSERT_EQ(cold.size(), reference.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(cold[i].verdict, reference[i].verdict) << "threads " << threads << " job " << i;
      EXPECT_EQ(cold[i].graph_nodes, reference[i].graph_nodes);
      EXPECT_EQ(cold[i].graph_edges, reference[i].graph_edges);
    }

    // A repeat batch is answered from the per-shard caches.
    const std::vector<DecisionResult> warm = service.decide(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(warm[i].verdict, reference[i].verdict);
    }
    std::ostringstream os;
    service.dump(os);
    const std::string dump = os.str();
    std::size_t hits = 0;
    std::size_t entries = 0;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t space = line.find(' ');
      const std::string key = line.substr(0, space);
      if (key.find(".decision.hits") != std::string::npos) {
        hits += std::stoull(line.substr(space + 1));
      }
      if (key.find(".decision.entries") != std::string::npos) {
        entries += std::stoull(line.substr(space + 1));
      }
    }
    EXPECT_EQ(hits, jobs.size()) << "warm batch must be pure per-shard cache hits";
    EXPECT_GT(entries, 0u);
    EXPECT_EQ(service.stats().decision_jobs, 2 * jobs.size());
  }
}

}  // namespace
}  // namespace il
