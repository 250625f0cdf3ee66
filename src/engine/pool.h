// The engine's shared fan-out machinery.  Two loops live here:
//
//   run_claimed() — spawn-per-batch: workers claim job indices from a single
//   atomic counter, results land in pre-sized slots, and the lowest-indexed
//   exception is rethrown on the calling thread.  For one-shot callers
//   that cannot amortize a resident pool: BatchChecker (engine.h) runs its
//   batches here, with a private EvalCache built on each worker.
//
//   ParkedPool — the resident variant: the same claim-counter loop, but the
//   workers are spawned once and *parked* on a condition variable between
//   runs instead of being created and joined per batch.  A run() is a wake
//   (publish a context + notify) and a drain (the caller claims indices
//   alongside the workers until the context is exhausted), which costs
//   microseconds where a thread spawn costs tens — the difference that makes
//   fine-grained streaming pay off.  The resident MonitorService
//   (service.h) and the decision family (decision.h) run their epochs
//   through it.
//
//   Runs nest: a body executing under run() may call run_nested() to fan a
//   sub-frontier (e.g. one decision's tableau wave) across whatever workers
//   are currently parked.  Open contexts form a stack; parked workers join
//   the most recently opened context first, so helpers flow to the deepest
//   frontier.  The nested caller always participates in its own claim loop,
//   so a nested run makes progress — degrading to an inline loop — even
//   when every other worker is busy, and can never deadlock on pool
//   exhaustion.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/fault.h"

namespace il::engine::detail {

/// Resolves Options::num_threads against a workload: 0 means the hardware
/// concurrency, and the pool never exceeds the number of jobs.  Shared by
/// the batch front-ends so "how many workers will this spawn" has exactly
/// one answer.
inline std::size_t effective_pool(std::size_t jobs, std::size_t requested) {
  std::size_t pool = requested;
  if (pool == 0) pool = std::thread::hardware_concurrency();
  if (pool == 0) pool = 1;
  if (pool > jobs) pool = jobs;
  return pool;
}

/// Runs `body(state, i)` for every i in [0, count) across `pool` worker
/// threads.  `make_worker(w)` builds per-worker state on the worker thread;
/// `finish(state, w)` runs there after the claim loop drains (use it to
/// publish per-worker counters).  Exceptions thrown by `body` are captured
/// per worker and the one with the lowest job index is rethrown here after
/// all workers join.  Requires pool >= 1; the caller handles the inline
/// (pool <= 1) fast path itself if it wants to avoid a thread spawn.
template <typename MakeWorker, typename Body, typename Finish>
void run_claimed(std::size_t count, std::size_t pool, MakeWorker&& make_worker, Body&& body,
                 Finish&& finish) {
  struct Capture {
    std::size_t index = 0;
    std::exception_ptr error;
  };
  std::atomic<std::size_t> next{0};
  std::vector<Capture> errors(pool);
  std::vector<std::thread> workers;
  workers.reserve(pool);
  for (std::size_t w = 0; w < pool; ++w) {
    workers.emplace_back([&, w]() {
      auto state = make_worker(w);
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        try {
          body(state, i);
        } catch (...) {
          // Indices claimed by one worker increase, so the first capture is
          // this worker's lowest.
          if (!errors[w].error) {
            errors[w].error = std::current_exception();
            errors[w].index = i;
          }
        }
      }
      finish(state, w);
    });
  }
  for (auto& t : workers) t.join();

  const Capture* first = nullptr;
  for (const Capture& c : errors) {
    if (c.error && (first == nullptr || c.index < first->index)) first = &c;
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

/// A resident worker pool.  Threads are spawned once, park on a condition
/// variable between runs, and execute a claim-counter loop over each run's
/// context when woken, with the same contracts as run_claimed():
///
///   - run(count, body) executes body(i) for every i in [0, count) exactly
///     once; callers pre-size result slots so output order is input order,
///   - exceptions are captured and the lowest-indexed one is rethrown on
///     the run() caller after the context drains,
///   - run() returns only when every participant has checked back in, so
///     `body` (which lives on the caller's stack) is never read after
///     return.
///
/// The caller participates in its own claim loop, so a run on a fully busy
/// pool degrades to the plain sequential loop instead of blocking.
/// run_nested() is the same operation minus the top-level serialization;
/// it is safe to call from inside a body and fans across parked workers
/// only.  Top-level run() callers queue on an internal mutex, which lets
/// one pool serve several front-ends (e.g. a service's stream epochs and
/// its decision batches) without interleaving their fan-outs; nested runs
/// stack freely under whichever top-level run is active.
class ParkedPool {
 public:
  explicit ParkedPool(std::size_t threads) : threads_(threads == 0 ? 1 : threads) {
    workers_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w) {
      workers_.emplace_back([this]() { worker_loop(); });
    }
  }

  ~ParkedPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ParkedPool(const ParkedPool&) = delete;
  ParkedPool& operator=(const ParkedPool&) = delete;

  std::size_t size() const { return threads_; }

  /// Wakes the pool, runs body(i) for every i in [0, count) with the caller
  /// claiming alongside the workers, and blocks until the context drains.
  /// Rethrows the lowest-indexed captured exception, if any.
  void run(std::size_t count, const std::function<void(std::size_t)>& body) {
    if (count == 0) return;
    if (count == 1) {
      // Single work item: publishing a context just wakes workers to lose
      // the claim race.  Run inline — same order, same error contract — so
      // e.g. a service epoch touching one dirty shard costs no wake at all.
      body(0);
      return;
    }
    std::lock_guard<std::mutex> serialize(run_mu_);
    run_context(count, body);
  }

  /// The nestable variant: identical claim/drain/error contract, but skips
  /// the top-level serialization so a body already running under run() can
  /// lend its frontier to whatever workers are parked.  Helpers prefer the
  /// most recently opened context, so the deepest frontier fills first.
  void run_nested(std::size_t count, const std::function<void(std::size_t)>& body) {
    if (count == 0) return;
    if (count == 1) {  // nothing to fan out; skip the publish round-trip
      body(0);
      return;
    }
    run_context(count, body);
  }

 private:
  struct Context {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::size_t inside = 0;     ///< workers currently executing this context
    bool open = false;          ///< still listed in open_ (has unclaimed work)
    std::size_t error_index = 0;
    std::exception_ptr error;
  };

  void run_context(std::size_t count, const std::function<void(std::size_t)>& body) {
    Context ctx;
    ctx.count = count;
    ctx.body = &body;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ctx.open = true;
      open_.push_back(&ctx);
    }
    wake_.notify_all();
    drain(ctx);
    {
      std::unique_lock<std::mutex> lock(mu_);
      drained_.wait(lock, [&]() { return ctx.inside == 0; });
    }
    if (ctx.error) std::rethrow_exception(ctx.error);
  }

  /// The shared claim loop.  Whoever runs it — owner or parked worker —
  /// claims indices until the counter passes count; the claimer that
  /// observes exhaustion retires the context from the open list.
  void drain(Context& ctx) {
    for (;;) {
      const std::size_t i = ctx.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= ctx.count) break;
      try {
        IL_INJECT_FAULT("pool.dispatch");
        (*ctx.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!ctx.error || i < ctx.error_index) {
          ctx.error = std::current_exception();
          ctx.error_index = i;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    retire_locked(ctx);
  }

  void retire_locked(Context& ctx) {
    if (!ctx.open) return;
    ctx.open = false;
    for (std::size_t k = open_.size(); k-- > 0;) {
      if (open_[k] == &ctx) {
        open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
    }
  }

  void worker_loop() {
    for (;;) {
      Context* ctx = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&]() { return shutdown_ || !open_.empty(); });
        if (shutdown_) return;
        ctx = open_.back();  // LIFO: help the deepest (most nested) frontier
        ++ctx->inside;
      }
      drain(*ctx);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--ctx->inside == 0) drained_.notify_all();
      }
    }
  }

  const std::size_t threads_;
  std::mutex run_mu_;  ///< serializes concurrent top-level run() callers
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable drained_;
  bool shutdown_ = false;
  std::vector<Context*> open_;  ///< contexts with unclaimed indices, oldest first
  std::vector<std::thread> workers_;
};

}  // namespace il::engine::detail
