// E14 — monitoring as a service: what the resident parked pool buys over
// the spawn-per-feed fan-out it replaced, and how a resident fleet scales.
//
//   bench_service_feed_parked/T   per-state fleet epoch through a ParkedPool
//                                 of T workers (the BatchMonitor/
//                                 MonitorService path: wake + drain)
//   bench_service_feed_spawn/T    the pre-service reference: the same epoch
//                                 through run_claimed(), spawning and
//                                 joining T threads for every state
//   bench_service_resident_fleet/N
//                                 one appended state through a MonitorService
//                                 with N resident monitors (10^2..10^4),
//                                 including verdict-row assembly and drain;
//                                 the trace_bytes counter is the stream's
//                                 store, flat in N
//   bench_service_batch_ingest/N/B
//                                 a 32-state burst through a resident fleet
//                                 of N monitors (10^2..10^4) with
//                                 max_epoch_batch = B; B=1 is strict
//                                 per-state epochs, B=32 folds the whole
//                                 burst into one multi-state epoch.  The
//                                 queue is loaded while paused so the block
//                                 shape is deterministic, not a race.
//
// CI asserts feed_parked < feed_spawn at 4 threads, and batched (B=32)
// >= per-state (B=1) states/s at every fleet size, from the emitted JSON
// (batch_ingest runs UseRealTime(): evaluation happens on pool threads, so
// only wall-clock states/s measures it):
// parking the workers is the reason the service can afford an epoch per
// state, and batching is the reason a state costs less than an epoch.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "core/monitor.h"
#include "core/parser.h"
#include "engine/pool.h"
#include "engine/service.h"
#include "systems/mutex.h"

namespace {

using namespace il;

Spec monitored_spec() {
  Spec spec;
  spec.name = "monitored";
  spec.axioms.push_back({"safety", parse_formula("[] (cs1 -> x1)")});
  spec.axioms.push_back({"scan", parse_formula("[] [ x1 <= cs1 ] <> !x2")});
  return spec;
}

Trace mutex_run(std::size_t entries) {
  sys::MutexRunConfig config;
  config.entries = entries;
  return sys::run_mutex(config);
}

constexpr std::size_t kFleet = 16;   ///< monitors per feed benchmark
constexpr std::size_t kBlock = 32;   ///< timed states per iteration

/// The feed benchmarks monitor one cheap safety axiom: the point is the
/// fan-out cost per state (wake + drain vs spawn + join), so the per-monitor
/// append must be small enough not to drown it.
Spec feed_spec() {
  Spec spec;
  spec.name = "feed";
  spec.axioms.push_back({"safety", parse_formula("[] (cs1 -> x1)")});
  return spec;
}

/// Feeds kBlock states to a fresh fleet, one epoch per state, fanned out by
/// `epoch(count, body)`.  The fleet build is untimed; the timed region is
/// exactly the per-state epochs, so items_per_second is states/s.
template <typename Epoch>
void feed_blocks(benchmark::State& state, Epoch&& epoch) {
  const Spec spec = feed_spec();
  const Trace tr = mutex_run(8);
  std::size_t failed = 0;
  std::vector<std::size_t> slots(kFleet);  ///< per-monitor, so workers never share
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Monitor> fleet;
    fleet.reserve(kFleet);
    for (std::size_t i = 0; i < kFleet; ++i) fleet.emplace_back(spec);
    state.ResumeTiming();
    for (std::size_t j = 0; j < kBlock; ++j) {
      const State& s = tr.at(j);
      epoch(fleet.size(), [&](std::size_t i) { slots[i] = fleet[i].append(s).failed.size(); });
      for (const std::size_t f : slots) failed += f;
    }
    benchmark::DoNotOptimize(failed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBlock));
  state.counters["monitors"] = static_cast<double>(kFleet);
}

void bench_service_feed_parked(benchmark::State& state) {
  engine::detail::ParkedPool pool(static_cast<std::size_t>(state.range(0)));
  feed_blocks(state, [&](std::size_t count, const std::function<void(std::size_t)>& body) {
    pool.run(count, body);
  });
}

void bench_service_feed_spawn(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  feed_blocks(state, [&](std::size_t count, const std::function<void(std::size_t)>& body) {
    engine::detail::run_claimed(
        count, threads, [](std::size_t) { return 0; },
        [&](int&, std::size_t i) { body(i); }, [](int&, std::size_t) {});
  });
}

/// One state through a resident service with N monitors: epoch fan-out over
/// the dirty shards, verdict-row assembly, and the caller's drain.
void bench_service_resident_fleet(benchmark::State& state) {
  const std::size_t monitors = static_cast<std::size_t>(state.range(0));
  const Spec spec = monitored_spec();
  const Trace tr = mutex_run(8);
  engine::Options options;
  options.num_threads = 4;
  options.queue_capacity = 64;
  engine::MonitorService service(options);
  for (std::size_t i = 0; i < monitors; ++i) service.register_spec(spec);
  service.flush();
  std::size_t k = 0;
  std::size_t rows = 0;
  for (auto _ : state) {
    service.append(tr.at(k));
    service.flush();
    rows += service.drain().size();
    k = (k + 1) % tr.size();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["monitors"] = static_cast<double>(monitors);
  state.counters["shards"] = static_cast<double>(service.shards());
  // The stream's one store: flat in fleet size, since every monitor reads
  // it through a window instead of holding a copy.
  state.counters["trace_bytes"] = static_cast<double>(service.stats().totals.trace_bytes);
}

/// A 32-state burst through a resident fleet at a fixed epoch-batch bound.
/// The burst is enqueued while the coordinator is paused, so the B=32 run
/// folds it into one epoch (one pool wake, one begin_epoch() walk per
/// monitor) while the B=1 run pays the full per-state epoch loop — the
/// states/s ratio is exactly what Options::max_epoch_batch buys.
void bench_service_batch_ingest(benchmark::State& state) {
  const std::size_t monitors = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = static_cast<std::size_t>(state.range(1));
  const Spec spec = monitored_spec();
  const Trace tr = mutex_run(8);
  engine::Options options;
  options.num_threads = 4;
  options.max_epoch_batch = batch;
  options.queue_capacity = 2 * kBlock;
  engine::MonitorService service(options);
  for (std::size_t i = 0; i < monitors; ++i) service.register_spec(spec);
  service.flush();
  std::size_t k = 0;
  std::size_t rows = 0;
  for (auto _ : state) {
    service.pause();
    for (std::size_t j = 0; j < kBlock; ++j) {
      service.append(tr.at(k));
      k = (k + 1) % tr.size();
    }
    service.resume();
    service.flush();
    rows += service.drain().size();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBlock));
  state.counters["monitors"] = static_cast<double>(monitors);
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["batch_max"] = static_cast<double>(service.stats().states_per_batch_max);
}

}  // namespace

BENCHMARK(bench_service_feed_parked)->Arg(2)->Arg(4);
BENCHMARK(bench_service_feed_spawn)->Arg(2)->Arg(4);
BENCHMARK(bench_service_resident_fleet)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(bench_service_batch_ingest)
    ->Args({100, 1})
    ->Args({100, 32})
    ->Args({1000, 1})
    ->Args({1000, 32})
    ->Args({10000, 1})
    ->Args({10000, 32})
    ->UseRealTime();

BENCHMARK_MAIN();
