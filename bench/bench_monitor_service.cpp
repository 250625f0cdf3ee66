// E14 — monitoring as a service: what the resident parked pool buys over
// the spawn-per-feed fan-out it replaced, and how a resident fleet scales.
//
//   bench_service_feed_parked/T   per-state fleet epoch through a ParkedPool
//                                 of T workers (the MonitorService path:
//                                 wake + drain)
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
//                                 shape is deterministic, not a race.  The
//                                 iteration count is pinned per fleet size
//                                 (kBatchIterations): every iteration
//                                 appends 32 more states to the same
//                                 resident monitors, so the cost of an
//                                 iteration moves with the count, and arms
//                                 whose counts a min_time picked
//                                 independently would not do the same work.
//   bench_service_store_window/N  the long-horizon fleet (four
//                                 suffix-sensitive monitors, two of them
//                                 intervals at position 0) on a mutex
//                                 stream: N states untimed, then 128 timed
//                                 32-state bursts; trace_bytes is the
//                                 stream store's high-water mark over the
//                                 timed bursts, which the service trims to
//                                 the monitors' read floors.
//
// CI asserts feed_parked < feed_spawn at 4 threads, batched (B=32)
// >= per-state (B=1) states/s at every fleet size, and a store flat in the
// stream's length (store_window trace_bytes at N=1e5 <= 1.25x N=1e3; a
// deterministic byte count, not a timing), from the emitted JSON
// (batch_ingest runs UseRealTime(): evaluation happens on pool threads, so
// only wall-clock states/s measures it):
// parking the workers is the reason the service can afford an epoch per
// state, and batching is the reason a state costs less than an epoch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/ast.h"
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
/// Timed bursts per repetition of bench_service_batch_ingest, for fleets of
/// 10^2 and 10^3 monitors.  A 10^4 fleet runs kLargeFleetIterations: one of
/// its bursts already takes seconds, and its obligation graphs grow by about
/// 0.5 GB per burst while they fill, so 20 would need gigabytes.
constexpr int kBatchIterations = 20;
constexpr int kLargeFleetIterations = 2;

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
/// folds it into one epoch (one pool wake, one begin_epoch() pass per
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

Spec single_axiom(const std::string& name, FormulaPtr formula) {
  Spec spec;
  spec.name = name;
  spec.axioms.push_back({"tail", std::move(formula)});
  return spec;
}

/// The e2e long_horizon fleet: an interval from a suffix-sensitive event
/// search (forward or backward) to the end, whose body waits for a state a
/// passing mutex run never reaches, plus a [] over an interval search and a
/// pending response.
std::vector<Spec> long_horizon_specs() {
  const auto open_tail = [](const std::string& name, bool forward, const std::string& moving,
                            const std::string& other) {
    TermPtr search = t::event(f::always(f::negate(f::atom(moving))));
    TermPtr term = forward ? t::fwd(search, nullptr) : t::bwd(search, nullptr);
    return single_axiom(
        name, f::interval(term, f::eventually(f::conj(f::atom(moving), f::atom(other)))));
  };
  return {open_tail("relocate", true, "cs1", "cs2"), open_tail("latest", false, "cs2", "cs3"),
          single_axiom("scan", parse_formula("[] [ x1 <= cs1 ] <> !x2")),
          single_axiom("pending", parse_formula("[] (x3 -> <> cs3)"))};
}

constexpr int kStoreBursts = 128;  ///< timed bursts: several trim cycles of the store

/// The stream store of a resident long-horizon fleet, N states in.  Every
/// feed is enqueued while paused, so each block is max_epoch_batch states
/// and the floors (and the store) are the same on every run.  The store
/// grows until its dead prefix is half of it, then drops it, so the
/// high-water mark over several trims is what is compared across N.
void bench_service_store_window(benchmark::State& state) {
  const std::size_t prefix = static_cast<std::size_t>(state.range(0));
  const std::size_t total = prefix + kBlock * static_cast<std::size_t>(state.max_iterations);
  sys::MutexRunConfig config;
  config.seed = 1;
  config.processes = 3;
  config.entries = total;
  config.max_steps = total;
  const Trace tr = sys::run_mutex(config);
  engine::Options options;
  options.num_threads = 2;
  options.num_shards = 2;
  options.max_epoch_batch = kBlock;
  options.queue_capacity = prefix + kBlock;
  engine::MonitorService service(options);
  for (const Spec& spec : long_horizon_specs()) service.register_spec(spec);
  std::size_t k = 0;
  const auto feed = [&](std::size_t count) {
    service.pause();
    for (std::size_t j = 0; j < count; ++j) service.append(tr.at(k++));
    service.resume();
    service.flush();
    return service.drain().size();
  };
  feed(prefix);
  std::size_t peak = 0;
  std::size_t rows = 0;
  for (auto _ : state) {
    rows += feed(kBlock);
    benchmark::DoNotOptimize(rows);
    state.PauseTiming();
    peak = std::max(peak, service.stats().totals.trace_bytes);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBlock));
  const engine::ServiceStats stats = service.stats();
  state.counters["trace_bytes"] = static_cast<double>(peak);
  state.counters["trace_dropped"] = static_cast<double>(stats.trace_dropped);
  state.counters["states"] = static_cast<double>(k);
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
    ->Iterations(kBatchIterations)
    ->UseRealTime();
BENCHMARK(bench_service_batch_ingest)
    ->Args({10000, 1})
    ->Args({10000, 32})
    ->Iterations(kLargeFleetIterations)
    ->UseRealTime();
BENCHMARK(bench_service_store_window)
    ->Arg(1000)
    ->Arg(100000)
    ->Iterations(kStoreBursts)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
