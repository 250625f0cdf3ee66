// Batched-epoch and multi-stream differential coverage for MonitorService:
// folding queued appends into multi-state epochs (Options::max_epoch_batch)
// must be invisible in the verdict stream.  Rows are pinned bit-identical
// to per-state epochs across batch sizes 1/4/16 x shards 1/2/4 x pool
// widths 1/2/4 on the five case studies; Register/Retire barriers
// mid-stream keep their sequenced semantics at any batch size; two
// interleaved streams produce exactly their single-stream rows while their
// states coalesce into shared batches; and tombstone compaction frees
// retired slots once a shard passes the 1/4 retired fraction.
//
// The window suite pins the per-stream store: every monitor reads one
// shared trace through its own window, and across batch sizes 1/7/32 x
// shards 1/3 x pool widths 1/2/4 its rows stay bit-identical to a
// standalone per-state Monitor fed the same states — for mid-stream
// registration (a non-zero base), Scratch-mode slots, retire then
// re-register, quarantine then reinstate, and the prefix drop that follows
// the early monitors' retirement.  trace_bytes counts the store once per
// stream, whatever the fleet size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "il.h"
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
/// PR 5 differential corpus, replayed through batched service epochs.
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

/// Runs one trace through a service configured with (batch, shards,
/// threads): pause first so every append is queued before the coordinator
/// moves, which forces real max_epoch_batch-sized blocks instead of
/// whatever the producer/coordinator race happens to leave in the queue.
std::vector<VerdictRow> run_service(const Spec& spec, const Trace& run, std::size_t batch,
                                    std::size_t shards, std::size_t threads,
                                    engine::ServiceStats* stats_out = nullptr) {
  Options opts;
  opts.num_threads = threads;
  opts.num_shards = shards;
  opts.max_epoch_batch = batch;
  opts.queue_capacity = run.size() + 8;
  MonitorService service(opts);
  service.pause();
  service.register_spec(spec, {}, Monitor::Mode::Incremental);
  service.register_spec(spec, {}, Monitor::Mode::Scratch);
  service.register_spec(spec, {}, Monitor::Mode::Incremental);
  for (const State& s : run.states()) service.append(s);
  service.resume();
  service.flush();
  if (stats_out != nullptr) *stats_out = service.stats();
  return service.drain();
}

void expect_same_rows(const std::vector<VerdictRow>& got, const std::vector<VerdictRow>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].stream, want[k].stream) << label << " row " << k;
    ASSERT_EQ(got[k].seq, want[k].seq) << label << " row " << k;
    ASSERT_EQ(got[k].verdicts.size(), want[k].verdicts.size()) << label << " row " << k;
    for (std::size_t j = 0; j < got[k].verdicts.size(); ++j) {
      ASSERT_EQ(got[k].verdicts[j].id, want[k].verdicts[j].id)
          << label << " row " << k << " slot " << j;
      ASSERT_EQ(got[k].verdicts[j].result.ok, want[k].verdicts[j].result.ok)
          << label << " row " << k << " slot " << j;
      ASSERT_EQ(got[k].verdicts[j].result.failed, want[k].verdicts[j].result.failed)
          << label << " row " << k << " slot " << j;
    }
  }
}

TEST(ServiceBatch, BatchedEpochsBitIdenticalToPerStateEpochs) {
  StreamCases cases;
  for (std::size_t c = 0; c < cases.traces.size(); ++c) {
    const Spec& spec = *cases.spec_of[c];
    const Trace& run = cases.traces[c];

    // Reference: strict per-state epochs, sequential, single shard.
    const std::vector<VerdictRow> reference = run_service(spec, run, 1, 1, 1);
    ASSERT_EQ(reference.size(), run.size());

    for (const std::size_t batch : {1u, 4u, 16u}) {
      for (const std::size_t shards : {1u, 2u, 4u}) {
        for (const std::size_t threads : {1u, 2u, 4u}) {
          engine::ServiceStats stats;
          const std::vector<VerdictRow> rows =
              run_service(spec, run, batch, shards, threads, &stats);
          const std::string label = "case " + std::to_string(c) + " batch " +
                                    std::to_string(batch) + " shards " +
                                    std::to_string(shards) + " threads " +
                                    std::to_string(threads);
          expect_same_rows(rows, reference, label);
          // The queue was fully loaded before the coordinator moved, so the
          // first block is exactly min(batch, trace size) states — batching
          // really happened and the gauges saw it.
          const std::size_t want_max = std::min<std::size_t>(batch, run.size());
          EXPECT_EQ(stats.states_per_batch_max, want_max) << label;
          EXPECT_GE(stats.queue_peak, run.size()) << label;
          EXPECT_EQ(stats.states_applied, run.size()) << label;
          if (batch >= run.size()) {
            EXPECT_EQ(stats.epoch_batches, 1u) << label;
          }
        }
      }
    }
  }
}

TEST(ServiceBatch, RegisterRetireBarriersMidStreamMatchPerState) {
  const Spec spec = sys::mutex_spec(3);
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 4;
  const Trace run = sys::run_mutex(mc);
  ASSERT_GE(run.size(), 6u);

  // One scripted lifecycle: monitors join and leave between appends, so
  // the coordinator must split the append stream at every barrier.
  const auto script = [&](std::size_t batch, std::size_t shards,
                          std::size_t threads) -> std::vector<VerdictRow> {
    Options opts;
    opts.num_threads = threads;
    opts.num_shards = shards;
    opts.max_epoch_batch = batch;
    opts.queue_capacity = 2 * run.size() + 16;
    MonitorService service(opts);
    service.pause();
    const MonitorId first = service.register_spec(spec);
    for (std::size_t k = 0; k < 3; ++k) service.append(run.states()[k]);
    service.register_spec(spec, {}, Monitor::Mode::Scratch);
    for (std::size_t k = 3; k < 5; ++k) service.append(run.states()[k]);
    service.retire(first);
    for (std::size_t k = 5; k < run.size(); ++k) service.append(run.states()[k]);
    service.resume();
    service.flush();
    return service.drain();
  };

  const std::vector<VerdictRow> reference = script(1, 1, 1);
  ASSERT_EQ(reference.size(), run.size());
  ASSERT_EQ(reference[0].verdicts.size(), 1u);   // only `first`
  ASSERT_EQ(reference[4].verdicts.size(), 2u);   // both resident
  ASSERT_EQ(reference[5].verdicts.size(), 1u);   // first retired
  for (const std::size_t batch : {4u, 16u}) {
    for (const std::size_t shards : {1u, 4u}) {
      for (const std::size_t threads : {1u, 4u}) {
        const std::string label = "batch " + std::to_string(batch) + " shards " +
                                  std::to_string(shards) + " threads " +
                                  std::to_string(threads);
        expect_same_rows(script(batch, shards, threads), reference, label);
      }
    }
  }
}

TEST(ServiceBatch, InterleavedStreamsMatchSingleStreamRuns) {
  StreamCases cases;
  const Spec& spec_a = *cases.spec_of[0];
  const Trace& run_a = cases.traces[0];  // mutex, good
  const Spec& spec_b = *cases.spec_of[2];
  const Trace& run_b = cases.traces[2];  // queue, fifo
  const std::size_t n = std::min(run_a.size(), run_b.size());
  ASSERT_GE(n, 4u);

  // Single-stream references via the default stream.
  const std::vector<VerdictRow> ref_a = [&]() {
    Options opts;
    opts.num_threads = 2;
    opts.max_epoch_batch = 1;
    MonitorService service(opts);
    service.register_spec(spec_a);
    for (std::size_t k = 0; k < n; ++k) service.append(run_a.states()[k]);
    service.flush();
    return service.drain();
  }();
  const std::vector<VerdictRow> ref_b = [&]() {
    Options opts;
    opts.num_threads = 2;
    opts.max_epoch_batch = 1;
    MonitorService service(opts);
    service.register_spec(spec_b);
    for (std::size_t k = 0; k < n; ++k) service.append(run_b.states()[k]);
    service.flush();
    return service.drain();
  }();

  for (const std::size_t batch : {1u, 4u, 16u}) {
    Options opts;
    opts.num_threads = 2;
    opts.num_shards = 2;
    opts.max_epoch_batch = batch;
    opts.queue_capacity = 2 * n + 8;
    MonitorService service(opts);
    const StreamId stream_a = service.open_stream("mutex");
    const StreamId stream_b = service.open_stream("queue");
    service.pause();
    const MonitorId id_a = service.register_spec(stream_a, spec_a);
    const MonitorId id_b = service.register_spec(stream_b, spec_b);
    for (std::size_t k = 0; k < n; ++k) {
      service.append(stream_a, run_a.states()[k]);
      service.append(stream_b, run_b.states()[k]);
    }
    service.resume();
    service.flush();
    const engine::ServiceStats stats = service.stats();
    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), 2 * n);

    // Per-stream projections must match the single-stream runs row for row
    // (ids differ by registration order, so compare verdict payloads).
    std::vector<const VerdictRow*> got_a, got_b;
    for (const VerdictRow& row : rows) {
      if (row.stream == stream_a) got_a.push_back(&row);
      if (row.stream == stream_b) got_b.push_back(&row);
    }
    ASSERT_EQ(got_a.size(), n);
    ASSERT_EQ(got_b.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(got_a[k]->seq, k);
      ASSERT_EQ(got_b[k]->seq, k);
      ASSERT_EQ(got_a[k]->verdicts.size(), 1u);
      ASSERT_EQ(got_b[k]->verdicts.size(), 1u);
      EXPECT_EQ(got_a[k]->verdicts[0].id, id_a);
      EXPECT_EQ(got_b[k]->verdicts[0].id, id_b);
      EXPECT_EQ(got_a[k]->verdicts[0].result.ok, ref_a[k].verdicts[0].result.ok)
          << "batch " << batch << " state " << k;
      EXPECT_EQ(got_a[k]->verdicts[0].result.failed, ref_a[k].verdicts[0].result.failed)
          << "batch " << batch << " state " << k;
      EXPECT_EQ(got_b[k]->verdicts[0].result.ok, ref_b[k].verdicts[0].result.ok)
          << "batch " << batch << " state " << k;
      EXPECT_EQ(got_b[k]->verdicts[0].result.failed, ref_b[k].verdicts[0].result.failed)
          << "batch " << batch << " state " << k;
    }

    // Distinct streams coalesce: with the queue fully loaded and a batch
    // bound above one stream's share, some block held both streams' states.
    if (batch > 1) {
      EXPECT_GT(stats.states_per_batch_max, 1u) << "batch " << batch;
      EXPECT_EQ(stats.states_per_batch_max, std::min<std::size_t>(batch, 2 * n))
          << "batch " << batch;
    }
    EXPECT_EQ(stats.streams, 3u);  // default + mutex + queue
  }
}

TEST(ServiceBatch, AppendToStreamWithoutMonitorsYieldsEmptyRows) {
  Options opts;
  opts.num_threads = 1;
  MonitorService service(opts);
  const StreamId idle = service.open_stream("idle");
  sys::MutexRunConfig mc;
  const Trace run = sys::run_mutex(mc);
  service.append(idle, run.states()[0]);
  service.flush();
  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].stream, idle);
  EXPECT_EQ(rows[0].seq, 0u);
  EXPECT_TRUE(rows[0].verdicts.empty());
}

TEST(ServiceBatch, RetireCompactsTombstonesPastQuarterFraction) {
  const Spec spec = sys::mutex_spec(2);
  sys::MutexRunConfig mc;
  mc.entries = 2;
  const Trace run = sys::run_mutex(mc);

  Options opts;
  opts.num_threads = 1;
  opts.num_shards = 1;  // all ids land in shard 0
  MonitorService service(opts);
  std::vector<MonitorId> ids;
  for (std::size_t i = 0; i < 8; ++i) ids.push_back(service.register_spec(spec));
  service.flush();

  // 1/8 and 2/8 retired: at or below the 1/4 fraction, no sweep yet.
  service.retire(ids[0]);
  service.retire(ids[2]);
  service.flush();
  EXPECT_EQ(service.stats().retired_compactions, 0u);

  // 3/8 retired: exceeds 1/4, one sweep reclaims every tombstone.
  service.retire(ids[4]);
  service.flush();
  const engine::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retired_compactions, 1u);
  EXPECT_EQ(stats.monitors_resident, 5u);
  EXPECT_EQ(stats.monitors_retired, 3u);

  std::ostringstream os;
  service.dump_shard(0, os);
  EXPECT_NE(os.str().find("shard0.retired_compactions 1\n"), std::string::npos);

  // The survivors still monitor: a post-compaction append produces rows for
  // exactly the five residents, in id order.
  for (const State& s : run.states()) service.append(s);
  service.flush();
  const std::vector<VerdictRow> rows = service.drain();
  ASSERT_FALSE(rows.empty());
  ASSERT_EQ(rows.back().verdicts.size(), 5u);
  const std::vector<MonitorId> want = {ids[1], ids[3], ids[5], ids[6], ids[7]};
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(rows.back().verdicts[j].id, want[j]);
  }
}

/// A spec that throws organically once a boom=1 state is in its window:
/// the implication short-circuits on every other state, and the unbound
/// meta variable $unbound throws std::invalid_argument.
Spec boom_spec() {
  Spec s;
  s.name = "boom";
  s.axioms.push_back(Axiom{"no_boom", parse_formula("[] (boom = 1 -> $unbound > 0)")});
  return s;
}

/// Verdicts of a standalone monitor fed states [from, to) of `run` one at
/// a time — the reference every windowed service row must equal.
std::vector<CheckResult> standalone(const Spec& spec, Monitor::Mode mode, const Trace& run,
                                    std::size_t from, std::size_t to) {
  Monitor m(spec, {}, mode);
  std::vector<CheckResult> out;
  for (std::size_t k = from; k < to; ++k) out.push_back(m.append(run.states()[k]));
  return out;
}

void expect_same_result(const ServiceVerdict& got, const CheckResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.result.ok, want.ok) << label;
  EXPECT_EQ(got.result.failed, want.failed) << label;
}

TEST(ServiceBatch, WindowLifecyclesMatchStandaloneMonitors) {
  const Spec spec = sys::mutex_spec(3);
  const Spec boom = boom_spec();
  constexpr std::size_t kBoom = 4;        // the victim throws here
  constexpr std::size_t kJoin = 10;       // C (Incremental) and D (Scratch) register
  constexpr std::size_t kLeave = 16;      // A, B, E retire: the prefix below kJoin is dead
  constexpr std::size_t kReinstate = 20;  // the victim comes back with a fresh window
  constexpr std::size_t kRejoin = 24;     // E's spec registers again
  sys::MutexRunConfig mc;
  mc.seed = 1;
  mc.entries = 8;
  std::vector<State> states = sys::run_mutex(mc).states();
  ASSERT_GE(states.size(), kRejoin + 6);
  states[kBoom].set("boom", 1);
  const Trace run(std::move(states));
  const std::size_t n = run.size();

  using Mode = Monitor::Mode;
  const std::vector<CheckResult> ref_a = standalone(spec, Mode::Incremental, run, 0, kLeave);
  const std::vector<CheckResult> ref_b = standalone(spec, Mode::Scratch, run, 0, kLeave);
  const std::vector<CheckResult> ref_v = standalone(boom, Mode::Incremental, run, 0, kBoom);
  const std::vector<CheckResult> ref_v2 = standalone(boom, Mode::Incremental, run, kReinstate, n);
  const std::vector<CheckResult> ref_c = standalone(spec, Mode::Incremental, run, kJoin, n);
  const std::vector<CheckResult> ref_d = standalone(spec, Mode::Scratch, run, kJoin, n);
  const std::vector<CheckResult> ref_e2 = standalone(spec, Mode::Incremental, run, kRejoin, n);

  for (const std::size_t batch : {1u, 7u, 32u}) {
    for (const std::size_t shards : {1u, 3u}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        const std::string label = "batch " + std::to_string(batch) + " shards " +
                                  std::to_string(shards) + " threads " +
                                  std::to_string(threads);
        Options opts;
        opts.num_threads = threads;
        opts.num_shards = shards;
        opts.max_epoch_batch = batch;
        opts.queue_capacity = 2 * n + 32;
        MonitorService service(opts);
        const StreamId stream = service.open_stream("windows");
        const StreamId idle = service.open_stream("idle");  // appended to, never read
        const auto feed = [&](std::size_t from, std::size_t to) {
          for (std::size_t k = from; k < to; ++k) {
            service.append(stream, run.states()[k]);
            service.append(idle, run.states()[k]);
          }
        };

        service.pause();
        const MonitorId a = service.register_spec(stream, spec, {}, Mode::Incremental);
        const MonitorId b = service.register_spec(stream, spec, {}, Mode::Scratch);
        const MonitorId v = service.register_spec(stream, boom, {}, Mode::Incremental);
        const MonitorId e = service.register_spec(stream, spec, {}, Mode::Incremental);
        feed(0, kJoin);
        const MonitorId c = service.register_spec(stream, spec, {}, Mode::Incremental);
        const MonitorId d = service.register_spec(stream, spec, {}, Mode::Scratch);
        feed(kJoin, kLeave);
        service.resume();
        service.flush();
        const ServiceStats before = service.stats();
        EXPECT_EQ(before.quarantines, 1u) << label;
        EXPECT_GT(before.stream_trace_bytes[stream], 0u) << label;
        EXPECT_EQ(before.stream_trace_bytes[idle], 0u) << label;

        // The early monitors leave; C and D (base kJoin) are the oldest
        // readers left, the dead prefix is kJoin >= half the store, and it
        // is dropped.
        service.pause();
        service.retire(a);
        service.retire(b);
        service.retire(e);
        service.resume();
        service.flush();
        const ServiceStats after = service.stats();
        EXPECT_LT(after.stream_trace_bytes[stream], before.stream_trace_bytes[stream]) << label;
        EXPECT_EQ(after.totals.trace_bytes, after.stream_trace_bytes[stream]) << label;

        service.pause();
        feed(kLeave, kReinstate);
        service.reinstate(v);
        feed(kReinstate, kRejoin);
        const MonitorId e2 = service.register_spec(stream, spec, {}, Mode::Incremental);
        feed(kRejoin, n);
        service.resume();
        service.flush();
        EXPECT_EQ(service.stats().reinstates, 1u) << label;

        std::vector<VerdictRow> rows;
        for (VerdictRow& row : service.drain()) {
          if (row.stream == stream) rows.push_back(std::move(row));
        }
        ASSERT_EQ(rows.size(), n) << label;
        std::size_t first_faulted = n;
        for (std::size_t k = 0; k < n; ++k) {
          const VerdictRow& row = rows[k];
          const std::string at = label + " seq " + std::to_string(k);
          ASSERT_EQ(row.seq, k) << at;
          std::vector<MonitorId> want;
          if (k < kLeave) want = {a, b, v, e};
          else want = {v};
          if (k >= kJoin) {
            want.push_back(c);
            want.push_back(d);
          }
          if (k >= kRejoin) want.push_back(e2);
          ASSERT_EQ(row.verdicts.size(), want.size()) << at;
          for (std::size_t j = 0; j < want.size(); ++j) {
            const MonitorId id = row.verdicts[j].id;
            ASSERT_EQ(id, want[j]) << at;
            if (id == v) {
              // Faulted from the start of the block holding the boom state
              // up to the reinstatement; the standalone verdicts elsewhere.
              if (row.faulted_at(j)) {
                first_faulted = std::min(first_faulted, k);
                EXPECT_LT(k, kReinstate) << at;
              } else if (k < kReinstate) {
                EXPECT_LT(k, kBoom) << at;
                EXPECT_EQ(first_faulted, n) << at;
                expect_same_result(row.verdicts[j], ref_v[k], at);
              } else {
                expect_same_result(row.verdicts[j], ref_v2[k - kReinstate], at);
              }
              continue;
            }
            EXPECT_FALSE(row.faulted_at(j)) << at;
            if (id == a) expect_same_result(row.verdicts[j], ref_a[k], at);
            if (id == b) expect_same_result(row.verdicts[j], ref_b[k], at);
            if (id == e) expect_same_result(row.verdicts[j], ref_a[k], at);
            if (id == c) expect_same_result(row.verdicts[j], ref_c[k - kJoin], at);
            if (id == d) expect_same_result(row.verdicts[j], ref_d[k - kJoin], at);
            if (id == e2) expect_same_result(row.verdicts[j], ref_e2[k - kRejoin], at);
          }
        }
        EXPECT_LE(first_faulted, kBoom) << label;
        if (batch == 1) {
          EXPECT_EQ(first_faulted, kBoom) << label;
        }

        // Once nobody reads the stream, it stores nothing.
        for (const MonitorId id : {c, d, v, e2}) service.retire(id);
        service.flush();
        EXPECT_EQ(service.stats().stream_trace_bytes[stream], 0u) << label;
        EXPECT_EQ(service.stats().totals.trace_bytes, 0u) << label;
      }
    }
  }
}

/// One simulator run for the generated schedules: the mutex, AB-protocol
/// and arbiter simulators in turn, correct and misbehaving alternately,
/// each with the specs that watch it.
struct GeneratedRun {
  std::vector<Spec> specs;
  Trace trace;
};

GeneratedRun generated_run(std::uint64_t seed) {
  GeneratedRun out;
  const bool buggy = (seed / 3) % 2 == 1;
  switch (seed % 3) {
    case 0: {
      sys::MutexRunConfig mc;
      mc.seed = seed;
      mc.entries = 3;
      out.specs.push_back(sys::mutex_spec(3));
      out.trace = buggy ? sys::run_mutex_buggy(mc) : sys::run_mutex(mc);
      break;
    }
    case 1: {
      sys::AbRunConfig ac;
      ac.seed = seed;
      ac.messages = 3;
      ac.max_steps = 100;  // the stuck-bit run never finishes on its own
      out.specs.push_back(sys::ab_sender_spec(domain(3)));
      out.specs.push_back(sys::ab_receiver_spec(domain(3)));
      out.trace = buggy ? sys::run_ab_protocol_stuck_bit(ac).trace : sys::run_ab_protocol(ac).trace;
      break;
    }
    default: {
      sys::ArbiterRunConfig arc;
      arc.seed = seed;
      arc.grants = 4;
      out.specs.push_back(sys::arbiter_spec());
      out.trace = buggy ? sys::run_arbiter_buggy(arc) : sys::run_arbiter(arc);
      break;
    }
  }
  return out;
}

/// Generated register/retire schedules: per seed, a simulator run and a
/// random set of monitor windows [join, leave) — mixed specs and modes,
/// overlapping, some open to the end — enqueued around the run's appends
/// while the coordinator is paused, under a batch size, shard count and
/// pool width drawn from {1, 7, 32} x {1, 3} x {1, 2, 4}.  Every window's
/// rows must equal a standalone monitor fed the same [join, leave) states.
TEST(ServiceBatch, GeneratedSchedulesMatchStandaloneMonitors) {
  using Mode = Monitor::Mode;
  struct Window {
    std::size_t spec = 0;
    Mode mode = Mode::Incremental;
    std::size_t join = 0;
    std::size_t leave = 0;  ///< n = retired after the last state
    MonitorId id = 0;
    std::vector<CheckResult> reference;
  };
  constexpr std::size_t kBatches[] = {1, 7, 32};
  constexpr std::size_t kShards[] = {1, 3};
  constexpr std::size_t kWidths[] = {1, 2, 4};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    const GeneratedRun gen = generated_run(seed);
    const Trace& run = gen.trace;
    const std::size_t n = run.size();
    ASSERT_GE(n, 2u) << "seed " << seed;
    const std::size_t batch = kBatches[rng() % 3];
    const std::size_t shards = kShards[rng() % 2];
    const std::size_t threads = kWidths[rng() % 3];
    const std::string label = "seed " + std::to_string(seed) + " batch " +
                              std::to_string(batch) + " shards " + std::to_string(shards) +
                              " threads " + std::to_string(threads);

    std::vector<Window> windows(4 + rng() % 7);
    for (Window& w : windows) {
      w.spec = rng() % gen.specs.size();
      w.mode = rng() % 3 == 0 ? Mode::Scratch : Mode::Incremental;
      w.join = rng() % n;
      w.leave = rng() % 3 == 0 ? n : w.join + 1 + rng() % (n - w.join);
      w.reference = standalone(gen.specs[w.spec], w.mode, run, w.join, w.leave);
    }

    Options opts;
    opts.num_threads = threads;
    opts.num_shards = shards;
    opts.max_epoch_batch = batch;
    opts.queue_capacity = n + 2 * windows.size() + 8;
    MonitorService service(opts);
    const StreamId stream = service.open_stream("generated");
    service.pause();
    for (std::size_t k = 0; k <= n; ++k) {
      for (const Window& w : windows) {
        if (w.leave == k) service.retire(w.id);
      }
      for (Window& w : windows) {
        if (w.join == k) w.id = service.register_spec(stream, gen.specs[w.spec], {}, w.mode);
      }
      if (k < n) service.append(stream, run.states()[k]);
    }
    service.resume();
    service.flush();

    const std::vector<VerdictRow> rows = service.drain();
    ASSERT_EQ(rows.size(), n) << label;
    for (std::size_t k = 0; k < n; ++k) {
      const std::string at = label + " seq " + std::to_string(k);
      ASSERT_EQ(rows[k].stream, stream) << at;
      ASSERT_EQ(rows[k].seq, k) << at;
      std::vector<const Window*> live;
      for (const Window& w : windows) {
        if (w.join <= k && k < w.leave) live.push_back(&w);
      }
      std::sort(live.begin(), live.end(),
                [](const Window* a, const Window* b) { return a->id < b->id; });
      ASSERT_EQ(rows[k].verdicts.size(), live.size()) << at;
      for (std::size_t j = 0; j < live.size(); ++j) {
        ASSERT_EQ(rows[k].verdicts[j].id, live[j]->id) << at;
        ASSERT_FALSE(rows[k].faulted_at(j)) << at;
        expect_same_result(rows[k].verdicts[j], live[j]->reference[k - live[j]->join],
                           at + " monitor " + std::to_string(live[j]->id));
      }
    }

    // Every window has closed, so the stream stores nothing, and every
    // state it stored has been released (trimmed, or dropped with it).
    EXPECT_EQ(service.stats().stream_trace_bytes[stream], 0u) << label;
    EXPECT_GT(service.stats().stream_trace_dropped[stream], 0u) << label;
    EXPECT_EQ(service.stats().retire_misses, 0u) << label;
  }
}

TEST(ServiceBatch, TraceBytesCountTheStoreOncePerStream) {
  const Spec spec = sys::mutex_spec(3);
  sys::MutexRunConfig mc;
  mc.entries = 4;
  const Trace run = sys::run_mutex(mc);

  const auto stream_bytes = [&](std::size_t monitors) {
    Options opts;
    opts.num_threads = 2;
    opts.num_shards = 2;
    MonitorService service(opts);
    const StreamId watched = service.open_stream("watched");
    const StreamId unread = service.open_stream("unread");
    for (std::size_t i = 0; i < monitors; ++i) service.register_spec(watched, spec);
    for (const State& s : run.states()) {
      service.append(watched, s);
      service.append(unread, s);
    }
    service.flush();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.stream_trace_bytes[unread], 0u) << monitors << " monitors";
    EXPECT_EQ(stats.stream_trace_bytes[kDefaultStream], 0u) << monitors << " monitors";
    EXPECT_EQ(stats.totals.trace_bytes, stats.stream_trace_bytes[watched]);
    std::ostringstream os;
    service.dump(os);
    EXPECT_NE(os.str().find("service.trace_bytes " + std::to_string(stats.totals.trace_bytes) +
                            "\n"),
              std::string::npos);
    EXPECT_NE(os.str().find("service.stream" + std::to_string(watched) + ".trace_bytes " +
                            std::to_string(stats.stream_trace_bytes[watched]) + "\n"),
              std::string::npos);
    return stats.stream_trace_bytes[watched];
  };
  const std::size_t one = stream_bytes(1);
  EXPECT_GE(one, run.size() * sizeof(State));
  EXPECT_EQ(stream_bytes(16), one);
}

}  // namespace
}  // namespace il
