// E15 — what fault isolation costs: quarantined slots on the ingest path,
// and the price of the budget ladder's Scratch demotion rung.
//
//   bench_service_fault_ingest/V  a 32-state burst through a resident fleet
//                                 of 1000 monitors of which V were
//                                 organically quarantined before timing
//                                 (V = 0 / 10 / 100, i.e. 0% / 1% / 10%),
//                                 paired with the same burst through a
//                                 reference fleet of 1000 monitors that
//                                 never saw a fault
//                                 (bench_service_batch_ingest/1000/32's
//                                 shape).  The fleet under test's
//                                 wall-clock rate is items_per_second; the
//                                 reference's is baseline_items_per_second.
//                                 CI gates V=0 within 5% of its baseline,
//                                 which is the fault-isolation overhead
//                                 bound for a healthy fleet with injection
//                                 compiled out.  V>0 prices the quarantined
//                                 slots: each one renders Verdict::Faulted
//                                 rows per epoch instead of evaluating, so
//                                 throughput should *rise* with V.
//   bench_service_degraded_mode/M per-state cost of a 100-monitor fleet in
//                                 Incremental mode (M=0) vs Scratch mode
//                                 (M=1): the ratio is what the budget
//                                 ladder's demote_to_scratch() rung trades —
//                                 bounded memory for re-evaluation work.
//
// The gate's two rates come from one repetition: the two fleets take
// turns, one burst each per iteration with the first mover alternating, so
// host drift lands on both alike instead of on whichever arm ran during
// it.  The iteration count is pinned (kGateIterations): every iteration
// appends kBlock more states to the same resident monitors, so the cost of
// an iteration grows with the count, and arms whose counts a min_time
// picked independently would not do the same work.
//
// Quarantine here is organic (no IL_FAULT_INJECTION needed): the victims
// monitor `[] (boom = 1 -> $unbound > 0)`, which short-circuits on every
// mutex state (absent keys read 0) and throws from the unbound meta exactly
// when the setup feeds one boom=1 state.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <vector>

#include "core/monitor.h"
#include "core/parser.h"
#include "engine/service.h"
#include "systems/mutex.h"

namespace {

using namespace il;

constexpr std::size_t kBlock = 32;  ///< timed states per iteration
constexpr std::size_t kFleet = 1000;
constexpr int kGateIterations = 20;  ///< timed bursts per repetition, every ingest arm

/// Same monitored spec as bench_service_batch_ingest (bench_monitor_service).
Spec monitored_spec() {
  Spec spec;
  spec.name = "monitored";
  spec.axioms.push_back({"safety", parse_formula("[] (cs1 -> x1)")});
  spec.axioms.push_back({"scan", parse_formula("[] [ x1 <= cs1 ] <> !x2")});
  return spec;
}

/// Throws std::invalid_argument (unbound meta) on the first boom=1 state.
Spec boom_spec() {
  Spec spec;
  spec.name = "boom";
  spec.axioms.push_back({"no_boom", parse_formula("[] (boom = 1 -> $unbound > 0)")});
  return spec;
}

Trace mutex_run(std::size_t entries) {
  sys::MutexRunConfig config;
  config.entries = entries;
  return sys::run_mutex(config);
}

engine::Options ingest_options() {
  engine::Options options;
  options.num_threads = 4;
  options.max_epoch_batch = 32;
  options.queue_capacity = 2 * kBlock;
  return options;
}

/// One burst, timed as bench_service_batch_ingest times it: pause, enqueue
/// kBlock states, resume, flush, drain.  Returns wall-clock seconds.
double timed_burst(engine::MonitorService& service, const Trace& tr, std::size_t& k) {
  const auto start = std::chrono::steady_clock::now();
  service.pause();
  for (std::size_t j = 0; j < kBlock; ++j) {
    service.append(tr.at(k));
    k = (k + 1) % tr.size();
  }
  service.resume();
  service.flush();
  benchmark::DoNotOptimize(service.drain().size());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// 32-state bursts through a 1000-monitor fleet with `victims` quarantined,
/// paired with a never-faulted reference fleet.  Setup (untimed): register
/// victims on the boom spec and feed the fleet one boom state so they
/// quarantine organically; feed the reference the same state without boom,
/// so both stores hold equally many states.
void bench_service_fault_ingest(benchmark::State& state) {
  const std::size_t victims = static_cast<std::size_t>(state.range(0));
  const Spec spec = monitored_spec();
  const Spec boom = boom_spec();
  const Trace tr = mutex_run(8);
  engine::MonitorService fleet(ingest_options());
  engine::MonitorService reference(ingest_options());
  for (std::size_t i = 0; i < kFleet; ++i) {
    fleet.register_spec(i < victims ? boom : spec);
    reference.register_spec(spec);
  }
  State boomed = tr.at(0);
  boomed.set("boom", 1);
  fleet.append(boomed);
  reference.append(tr.at(0));
  for (engine::MonitorService* service : {&fleet, &reference}) {
    service->flush();
    service->drain();
  }
  std::size_t k_fleet = 0;
  std::size_t k_reference = 0;
  double reference_seconds = 0.0;
  bool fleet_first = true;
  for (auto _ : state) {
    double seconds = 0.0;
    if (fleet_first) {
      seconds = timed_burst(fleet, tr, k_fleet);
      reference_seconds += timed_burst(reference, tr, k_reference);
    } else {
      reference_seconds += timed_burst(reference, tr, k_reference);
      seconds = timed_burst(fleet, tr, k_fleet);
    }
    fleet_first = !fleet_first;
    state.SetIterationTime(seconds);
  }
  const double states = static_cast<double>(state.iterations() * kBlock);
  state.SetItemsProcessed(static_cast<std::int64_t>(states));
  state.counters["baseline_items_per_second"] = states / reference_seconds;
  state.counters["monitors"] = static_cast<double>(kFleet);
  state.counters["quarantined"] = static_cast<double>(fleet.stats().monitors_quarantined);
}

/// Per-state fleet cost in Incremental (M=0) vs Scratch (M=1) mode: prices
/// the budget ladder's demotion rung without depending on a byte threshold.
void bench_service_degraded_mode(benchmark::State& state) {
  const bool scratch = state.range(0) != 0;
  const Spec spec = monitored_spec();
  const Trace tr = mutex_run(8);
  engine::Options options;
  options.num_threads = 4;
  options.queue_capacity = 64;
  engine::MonitorService service(options);
  for (std::size_t i = 0; i < 100; ++i)
    service.register_spec(spec, {}, scratch ? Monitor::Mode::Scratch : Monitor::Mode::Incremental);
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
  state.counters["monitors"] = 100.0;
  state.counters["scratch"] = scratch ? 1.0 : 0.0;
}

}  // namespace

BENCHMARK(bench_service_fault_ingest)
    ->Arg(0)
    ->Arg(10)
    ->Arg(100)
    ->Iterations(kGateIterations)
    ->UseManualTime();
BENCHMARK(bench_service_degraded_mode)->Arg(0)->Arg(1);

BENCHMARK_MAIN();
