// e2e_bench: the wall-clock end-to-end benchmark of MonitorService and
// decide().  run.py builds this program and is the entry point; README.md
// documents the workloads and every metric.
//
// One generator thread, this one, drives one service through three phases
// on the same inputs:
//
//   paced      an open loop at the workload's fixed rate; each state is
//              timed from its due time to the moment its row comes out of
//              drain()
//   saturated  a closed loop that backs off on QueueFull; rows drained per
//              second of wall
//   decide     closed-loop decide() batches of (tableau, LLL) job pairs
//
// It also makes the register_spec()/retire() calls (set-up, churn,
// teardown) and the flush() calls.  Every timing is std::chrono::steady_clock
// read on this thread.  With --trace 1 those calls are wrapped in spans
// (spans.h), and after the run a replay re-drives the same states through
// Monitor::append_block on a ParkedPool of the service's width, and the
// distinct decision jobs through run_decision_job, so that each layer is
// timed from outside.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/ast.h"
#include "core/check.h"
#include "core/monitor.h"
#include "core/parser.h"
#include "engine/decision.h"
#include "engine/pool.h"
#include "engine/service.h"
#include "lll/encode.h"
#include "lll/graph.h"
#include "ltl/formula.h"
#include "spans.h"
#include "systems/arbiter.h"
#include "systems/mutex.h"
#include "systems/selftimed.h"
#include "util/rng.h"

namespace {

using namespace il;
using Clock = std::chrono::steady_clock;
using e2e::SpanRecorder;
using engine::AppendStatus;
using engine::DecisionJob;
using engine::DecisionResult;
using engine::MonitorId;
using engine::MonitorService;
using engine::StreamId;
using engine::VerdictRow;

// ---------------------------------------------------------------------------
// Workloads.  Each paced rate is a fixed absolute rate, about a third of the
// workload's saturated rate at the commit that introduced the benchmark
// (README.md).  Every workload runs all three phases, because every run
// reports every end-to-end metric; the phase a workload is about gets most
// of the run, the others run a small probe.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t width;        ///< Options::num_threads
  std::size_t intra;        ///< Options::intra_decision_threads
  double paced_rate;        ///< states/s, open loop
  double paced_share;       ///< shares of --seconds, per phase; a phase
  double saturated_share;   ///< also ends when its input runs out
  double decide_share;
  std::size_t states;       ///< generated input states, all streams
  std::size_t churn_every;  ///< appends per register+retire pair; 0 = none
  std::size_t formulas;     ///< distinct formulas in the decide corpus
  bool corpus_in_setup;     ///< the corpus build counts as set-up
};

constexpr Workload kWorkloads[] = {
    {"long_horizon", 1, 1, 8000.0, 0.40, 0.40, 0.20, 150000, 0, 256, false},
    {"streams_churn", 2, 1, 60000.0, 0.03, 0.50, 0.47, 320000, 64, 256, false},
    {"decide_corpus", 2, 2, 30000.0, 0.10, 0.10, 0.80, 262144, 0, 2048, true},
};

/// LLL graph edge budget of the corpus feasibility filter: it bounds the
/// cost of one decision, and with it the tail of the batch times.
constexpr std::size_t kFeasibleEdges = 5000;

constexpr std::size_t kQueueCapacity = 128;  ///< four full epoch batches
constexpr std::size_t kBatchPairs = 32;      ///< 64 jobs per decide() call
constexpr std::size_t kFreshPairs = 16;      ///< ... half of them new formulas
constexpr std::size_t kChurnLive = 4;        ///< churned monitors alive at once
/// Set-ups per run (setup_s is their median): fewer when the corpus build,
/// which takes seconds, is part of set-up.
int setup_reps(const Workload& w) { return w.corpus_in_setup ? 3 : 7; }
constexpr std::uint64_t kOpen = ~std::uint64_t{0};
const Clock::time_point kUnpaced = Clock::time_point::min();

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double to_ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
double to_s(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
Clock::duration from_s(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), v.size());
  return v[rank - 1];
}

/// The run is cut into this many consecutive slices and a timing is
/// reported as the median over slices, so that one stall of the machine
/// moves one slice instead of the reported figure.
constexpr std::size_t kSlices = 10;

/// Splits `v` into kSlices consecutive, near-equal parts (fewer if short).
std::vector<std::vector<double>> slices(const std::vector<double>& v) {
  const std::size_t n = std::max<std::size_t>(1, std::min(kSlices, v.size()));
  std::vector<std::vector<double>> out;
  for (std::size_t c = 0; c < n; ++c) {
    out.emplace_back(v.begin() + static_cast<std::ptrdiff_t>(v.size() * c / n),
                     v.begin() + static_cast<std::ptrdiff_t>(v.size() * (c + 1) / n));
  }
  return out;
}

/// Median over slices of each slice's percentile q.
double sliced_percentile(const std::vector<double>& v, double q) {
  std::vector<double> per;
  for (const auto& s : slices(v)) per.push_back(percentile(s, q));
  return percentile(per, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double share(std::size_t num, std::size_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}
double mib(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

/// The process's high-water resident set (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// ---------------------------------------------------------------------------
// Verdict digests: the oracle compares one 64-bit digest per row.
// ---------------------------------------------------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDULL;
  return h ^ (h >> 33);
}

std::uint64_t hash_text(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001B3ULL;
  return h;
}

/// Verdict kind plus the failed axiom names, in order.
std::uint64_t verdict_digest(engine::Verdict kind, const CheckResult& r) {
  std::uint64_t h = mix(0, static_cast<std::uint64_t>(kind) + 1);
  for (const std::string& name : r.failed) h = mix(h, hash_text(name));
  return h;
}

constexpr std::uint64_t kRowSeed = 0x51ED2701ULL;
std::uint64_t fold_row(std::uint64_t h, MonitorId id, std::uint64_t verdict) {
  return mix(mix(h, id), verdict);
}
/// Never 0, so 0 marks a row not seen.
std::uint64_t finish_row(std::uint64_t h) { return h | 1; }

// ---------------------------------------------------------------------------
// Inputs: states from the in-repo simulators, specs from the case studies.
// ---------------------------------------------------------------------------

std::vector<State> mutex_states(std::uint64_t seed, std::size_t steps, bool buggy) {
  sys::MutexRunConfig c;
  c.seed = seed;
  c.processes = 3;
  c.entries = steps;
  c.max_steps = steps;
  return (buggy ? sys::run_mutex_buggy(c) : sys::run_mutex(c)).states();
}

std::vector<State> arbiter_states(std::uint64_t seed, std::size_t steps, bool buggy) {
  sys::ArbiterRunConfig c;
  c.seed = seed;
  c.grants = steps;
  c.max_steps = steps;
  return (buggy ? sys::run_arbiter_buggy(c) : sys::run_arbiter(c)).states();
}

std::vector<State> request_ack_states(std::uint64_t seed, std::size_t steps, bool buggy) {
  sys::SelfTimedRunConfig c;
  c.seed = seed;
  c.handshakes = steps;
  c.max_steps = steps;
  return (buggy ? sys::run_request_ack_buggy(c) : sys::run_request_ack(c)).states();
}

Spec spec_of(const std::string& name, std::vector<Axiom> axioms) {
  Spec spec;
  spec.name = name;
  spec.axioms = std::move(axioms);
  return spec;
}

Spec text_spec(const std::string& name, const std::string& axiom, const std::string& text) {
  return spec_of(name, {{axiom, parse_formula(text)}});
}

Spec exclusion_spec() { return spec_of("exclusion", {{"theorem", sys::mutex_theorem(3)}}); }

/// An interval from a suffix-sensitive event search to the end of the trace
/// whose body waits for a state the passing mutex run never reaches: the
/// search relocates on every entry of `moving`, and the <> stays open.
Spec open_tail_spec(const std::string& name, bool forward, const std::string& moving,
                    const std::string& other) {
  TermPtr search = t::event(f::always(f::negate(f::atom(moving))));
  TermPtr term = forward ? t::fwd(search, nullptr) : t::bwd(search, nullptr);
  FormulaPtr never = f::eventually(f::conj(f::atom(moving), f::atom(other)));
  return spec_of(name, {{"tail", f::interval(term, never)}});
}

struct Inputs {
  std::vector<std::string> labels;          ///< per stream
  std::vector<std::vector<State>> streams;  ///< generated states per stream
  std::vector<bool> buggy;                  ///< from a buggy simulator run
  std::vector<Spec> specs;
  std::vector<std::pair<std::size_t, std::size_t>> fleet;  ///< (spec, stream) at set-up
  std::vector<std::size_t> churn_spec;      ///< per stream: the spec churn registers
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  const std::string name = w.name;
  const std::size_t total = w.states;
  if (name == "streams_churn") {
    using Run = std::vector<State> (*)(std::uint64_t, std::size_t, bool);
    const struct {
      const char* label;
      Run run;
      Spec a;
      Spec b;
    } kinds[] = {
        {"mutex", mutex_states, text_spec("flag", "A2_flag_held_1", "[] (cs1 -> x1)"),
         exclusion_spec()},
        {"arbiter", arbiter_states,
         text_spec("transfer", "A2_transfer_exclusion", "[] !(TR1 /\\ TR2)"),
         spec_of("grants", {{"mutual_exclusion", sys::arbiter_mutual_exclusion()}})},
        {"request_ack", request_ack_states,
         text_spec("ack", "A2_ack_holds", "[] [ A => begin(*(!R)) ] (R /\\ [] A)"),
         text_spec("init", "init_low", "!R /\\ !A")},
    };
    for (const auto& k : kinds) {
      in.specs.push_back(k.a);
      in.specs.push_back(k.b);
    }
    constexpr std::size_t kStreams = 32;
    const std::size_t per_stream = total / kStreams + 1;
    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::size_t kind = (s / 2) % 3;
      const bool buggy = s % 2 == 1;  // half the runs are buggy
      in.labels.push_back(std::string(kinds[kind].label) + (buggy ? "_buggy_" : "_") +
                          std::to_string(s));
      in.streams.push_back(kinds[kind].run(seed * 1000 + s, per_stream, buggy));
      in.buggy.push_back(buggy);
      in.fleet.emplace_back(2 * kind, s);
      in.fleet.emplace_back(2 * kind + 1, s);
      in.churn_spec.push_back(2 * kind);
    }
    return in;
  }

  in.labels.push_back("mutex");
  in.streams.push_back(mutex_states(seed, total, false));
  in.buggy.push_back(false);
  in.churn_spec.push_back(0);
  std::size_t copies = 1;
  if (name == "long_horizon") {
    in.specs = {open_tail_spec("relocate", true, "cs1", "cs2"),
                open_tail_spec("latest", false, "cs2", "cs3"),
                text_spec("scan", "A1_scan_1_2", "[] [ x1 <= cs1 ] <> !x2"),
                text_spec("pending", "entry", "[] (x3 -> <> cs3)")};
  } else {  // decide_corpus: a cheap probe fleet
    in.specs = {text_spec("flag", "A2_flag_held_1", "[] (cs1 -> x1)"), exclusion_spec()};
    copies = 2;
  }
  for (std::size_t c = 0; c < copies * in.specs.size(); ++c) {
    in.fleet.emplace_back(c % in.specs.size(), 0);
  }
  return in;
}

// ---------------------------------------------------------------------------
// The decision corpus: seeded random LTL formulas, filtered to the fragment
// whose LLL graphs stay small, as tests/test_cross_decision.cpp does.
// ---------------------------------------------------------------------------

bool lll_feasible(lll::ExprId e) {
  try {
    lll::GraphBuilder probe(kFeasibleEdges);
    probe.build(e);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

ltl::Id random_formula(ltl::Arena& arena, Rng& rng, int depth) {
  const char* atoms[] = {"p", "q", "r"};
  if (depth == 0 || rng.chance(0.25)) {
    const char* name = atoms[rng.below(3)];
    return rng.chance(0.5) ? arena.atom(name) : arena.neg_atom(name);
  }
  switch (rng.below(7)) {
    case 0:
      return arena.mk_and(random_formula(arena, rng, depth - 1),
                          random_formula(arena, rng, depth - 1));
    case 1:
      return arena.mk_or(random_formula(arena, rng, depth - 1),
                         random_formula(arena, rng, depth - 1));
    case 2:
      return arena.mk_next(random_formula(arena, rng, depth - 1));
    case 3:
      return arena.mk_always(random_formula(arena, rng, depth - 1));
    case 4:
      return arena.mk_eventually(random_formula(arena, rng, depth - 1));
    case 5:
      return arena.mk_until(random_formula(arena, rng, depth - 1),
                            random_formula(arena, rng, depth - 1));
    default:
      return arena.mk_strong_until(random_formula(arena, rng, depth - 1),
                                   random_formula(arena, rng, depth - 1));
  }
}

/// True if `id` holds a conjunction of a literal and its complement.  The
/// tableau and the LLL iteration disagree on some such formulas (e.g.
/// `[]((p /\ !p) \/ o r)`), so the corpus leaves them out until that is
/// fixed; the oracle would otherwise fail every run that draws one.
bool has_contradiction(const ltl::Arena& arena, ltl::Id id) {
  const ltl::Node& n = arena.node(id);
  const bool literal_pair = n.kind == ltl::Kind::And &&
                            (arena.node(n.a).kind == ltl::Kind::Atom ||
                             arena.node(n.a).kind == ltl::Kind::NegAtom) &&
                            arena.complement(n.a) == n.b;
  if (literal_pair) return true;
  return (n.a >= 0 && has_contradiction(arena, n.a)) || (n.b >= 0 && has_contradiction(arena, n.b));
}

struct Corpus {
  std::unique_ptr<ltl::Arena> arena;
  std::vector<std::pair<DecisionJob, DecisionJob>> pairs;  ///< (tableau, LLL) per formula
};

Corpus build_corpus(std::uint64_t seed, std::size_t count) {
  Corpus c;
  c.arena = std::make_unique<ltl::Arena>();
  Rng rng(seed ^ 0xC0FFEEULL);
  std::unordered_set<ltl::Id> seen;
  for (std::size_t tries = 0; c.pairs.size() < count && tries < 64 * count; ++tries) {
    const ltl::Id nnf = c.arena->nnf(random_formula(*c.arena, rng, 3));
    if (!seen.insert(nnf).second || has_contradiction(*c.arena, nnf)) continue;
    const lll::ExprId encoded = lll::encode_ltl(*c.arena, nnf);
    if (!lll_feasible(encoded)) continue;
    c.pairs.emplace_back(engine::tableau_sat_job(*c.arena, nnf), engine::lll_sat_job(encoded));
  }
  return c;
}

/// Pair indices per decide() batch: kFreshPairs formulas never submitted
/// before, then repeats drawn from every formula submitted so far.
std::vector<std::vector<std::size_t>> plan_batches(std::size_t formulas, std::uint64_t seed) {
  Rng rng(seed ^ 0xBA7C4ULL);
  std::vector<std::vector<std::size_t>> batches;
  for (std::size_t fresh = 0; fresh + kFreshPairs <= formulas; fresh += kFreshPairs) {
    std::vector<std::size_t> batch;
    for (std::size_t k = 0; k < kFreshPairs; ++k) batch.push_back(fresh + k);
    while (batch.size() < kBatchPairs) batch.push_back(rng.below(fresh + kFreshPairs));
    batches.push_back(std::move(batch));
  }
  return batches;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Registration {
  std::size_t spec = 0;
  std::size_t stream = 0;
  std::uint64_t start = 0;    ///< stream seq of the first state it sees
  std::uint64_t end = kOpen;  ///< stream seq at retirement
  MonitorId id = 0;
  bool fleet = false;  ///< registered at set-up; the replay re-drives these
};

class Runner {
 public:
  Runner(const Workload& w, const Inputs& in, SpanRecorder& rec, std::uint64_t seed)
      : w_(w), in_(in), rec_(rec), seed_(seed), n_(in.streams.size()) {
    next_.assign(n_, 0);
    due_.resize(n_);
    rows_.resize(n_);
    for (std::size_t s = 0; s < n_; ++s) {
      due_[s].assign(in.streams[s].size(), kUnpaced);
      rows_[s].assign(in.streams[s].size(), 0);
    }
    k_setup_ = rec_.name("setup");
    k_register_ = rec_.name("register_spec");
    k_retire_ = rec_.name("retire");
    k_flush_ = rec_.name("flush");
    k_try_append_ = rec_.name("try_append");
    k_drain_ = rec_.name("drain");
    k_decide_ = rec_.name("decide");
    k_paced_ = rec_.name("phase.paced");
    k_saturated_ = rec_.name("phase.saturated");
    k_decide_phase_ = rec_.name("phase.decide");
    k_replay_ = rec_.name("replay");
    k_pool_run_ = rec_.name("replay.ParkedPool::run");
    k_body_ = rec_.name("replay.shard_body");
    k_append_block_ = rec_.name("replay.append_block");
    k_decision_job_ = rec_.name("replay.run_decision_job");
  }

  void set_corpus(Corpus corpus) { corpus_ = std::move(corpus); }

  /// Builds the service, opens the streams, registers the fleet and
  /// flushes; for decide_corpus also builds the corpus.  Returns the wall
  /// time.  Only the last set-up (`keep`) is recorded and used; the others
  /// are destroyed after their timing ends.
  double setup(bool keep) {
    const std::uint32_t span = keep ? rec_.open(k_setup_) : SpanRecorder::kNone;
    const auto t0 = Clock::now();
    Corpus corpus;
    if (w_.corpus_in_setup) corpus = build_corpus(seed_, w_.formulas);
    engine::Options options;
    options.num_threads = w_.width;
    options.intra_decision_threads = w_.intra;
    options.queue_capacity = kQueueCapacity;
    auto svc = std::make_unique<MonitorService>(options);
    std::vector<StreamId> sids{engine::kDefaultStream};
    for (std::size_t s = 1; s < n_; ++s) sids.push_back(svc->open_stream(in_.labels[s]));
    std::vector<Registration> regs;
    for (const auto& [spec, stream] : in_.fleet) {
      const std::uint32_t tok = keep ? rec_.open(k_register_) : SpanRecorder::kNone;
      const MonitorId id = svc->register_spec(sids[stream], in_.specs[spec]);
      const double d = rec_.close(tok);
      if (tok != SpanRecorder::kNone) register_us_.push_back(d);
      regs.push_back({spec, stream, 0, kOpen, id, true});
    }
    const std::uint32_t tok = keep ? rec_.open(k_flush_) : SpanRecorder::kNone;
    svc->flush();
    rec_.close(tok);
    const double elapsed = to_s(Clock::now() - t0);
    rec_.close(span);
    if (keep) {
      svc_ = std::move(svc);
      sids_ = std::move(sids);
      regs_ = std::move(regs);
      attempted_ += regs_.size();
      if (w_.corpus_in_setup) corpus_ = std::move(corpus);
      index_of_.assign(n_, n_);
      for (std::size_t s = 0; s < n_; ++s) {
        if (sids_[s] >= index_of_.size()) index_of_.resize(sids_[s] + 1, n_);
        index_of_[sids_[s]] = s;
      }
      snap_setup_ = svc_->stats();
    }
    return elapsed;
  }

  void paced_phase(double secs) {
    const std::uint32_t phase = rec_.open(k_paced_);
    const auto t0 = Clock::now();
    const auto end = t0 + from_s(secs);
    const double period = 1.0 / w_.paced_rate;
    const std::size_t first = g_;
    std::uint64_t k = 0;
    while (!stopped_) {
      const auto now = Clock::now();
      if (now >= end || !has_next()) break;
      const auto due = t0 + from_s(period * static_cast<double>(k));
      if (due <= now) {
        maybe_churn();
        const AppendStatus st = append_next(due);
        if (st == AppendStatus::Ok) {
          lateness_ms_.push_back(to_ms(Clock::now() - due));
          ++k;
        } else if (st == AppendStatus::QueueFull) {
          back_off();
        }
        continue;
      }
      if (drain() == 0) std::this_thread::yield();
    }
    paced_states_ = g_ - first;
    settle();
    snap_paced_ = svc_->stats();
    rec_.close(phase);
  }

  void saturated_phase(double secs) {
    const std::uint32_t phase = rec_.open(k_saturated_);
    const auto t0 = Clock::now();
    const auto end = t0 + from_s(secs);
    const std::size_t rows0 = rows_drained_;
    sat_first_ = g_;
    Clock::time_point t1 = t0;
    while (!stopped_) {
      t1 = Clock::now();
      if (t1 >= end) break;
      if (!has_next()) {  // input exhausted: the window ends at its last row
        if (rows_drained_ >= g_) break;
        if (drain() == 0) std::this_thread::yield();
        continue;
      }
      maybe_churn();
      const AppendStatus st = append_next(kUnpaced);
      if (st == AppendStatus::QueueFull) {
        back_off();
      } else if (g_ % 16 == 0) {
        drain();
      }
    }
    sat_rows_ = rows_drained_ - rows0;
    sat_start_ = t0;
    sat_end_ = t1;
    sat_wall_s_ = to_s(t1 - t0);
    sat_last_ = g_;
    settle();
    snap_saturated_ = svc_->stats();
    rec_.close(phase);
  }

  /// Closed-loop decide() batches.  decide_corpus submits each planned
  /// batch once, cold.  The other workloads' probe decides its small corpus
  /// once untimed and then cycles over the same batches until the phase
  /// ends, timing decide() answered from the warm cache next to the
  /// resident fleet: a small probe has too few cold batches for a steady
  /// p99.
  void decide_phase(double secs) {
    const std::uint32_t phase = rec_.open(k_decide_phase_);
    const auto batches = plan_batches(corpus_.pairs.size(), seed_);
    const bool warm = !w_.corpus_in_setup;
    if (warm) {
      for (const auto& batch : batches) submit(batch, true, false);
    }
    const auto t0 = Clock::now();
    const auto end = t0 + from_s(secs);
    Clock::time_point t1 = t0;
    for (std::size_t b = 0; !batches.empty() && (warm || b < batches.size()); ++b) {
      if (b > 0 && Clock::now() >= end) break;
      t1 = submit(batches[b % batches.size()], !warm, true);
    }
    decide_wall_s_ = to_s(t1 - t0);
    rec_.close(phase);
  }

  /// Reads the gauges (before retirement drops them), retires every
  /// monitor, and stops the service.
  void teardown() {
    stats_ = svc_->stats();
    std::ostringstream dump;
    svc_->dump(dump);
    std::istringstream lines(dump.str());
    std::string key;
    std::uint64_t value = 0;
    while (lines >> key >> value) {
      if (ends_with(key, ".decision.hits")) decision_hits_ += value;
      if (ends_with(key, ".decision.misses")) decision_misses_ += value;
    }
    for (std::size_t r = 0; r < regs_.size(); ++r) {
      if (regs_[r].end == kOpen) retire_monitor(r);
    }
    settle();
    final_ = svc_->stats();
    threads_ = svc_->threads();
    shards_ = svc_->shards();
    svc_.reset();
  }

  /// The correctness oracle, run untimed after the RSS read: every row
  /// against standalone reference Monitors driven by per-state append(),
  /// one per distinct (spec, stream, registration seq); every decision pair
  /// for tableau/LLL agreement.
  void check() {
    using Key = std::tuple<std::size_t, std::size_t, std::uint64_t>;
    const auto key_of = [](const Registration& r) { return Key{r.spec, r.stream, r.start}; };
    std::map<Key, std::uint64_t> reach;
    for (const Registration& r : regs_) {
      std::uint64_t& until = reach[key_of(r)];
      until = std::max<std::uint64_t>(until, std::min<std::uint64_t>(r.end, next_[r.stream]));
    }
    std::map<Key, std::vector<std::uint64_t>> reference;
    for (const auto& [key, until] : reach) {
      const auto& [spec, stream, start] = key;
      Monitor m(in_.specs[spec]);
      std::vector<std::uint64_t>& digests = reference[key];
      for (std::uint64_t seq = start; seq < until; ++seq) {
        const CheckResult r = m.append(in_.streams[stream][seq]);
        digests.push_back(
            verdict_digest(r.ok ? engine::Verdict::Ok : engine::Verdict::Failed, r));
      }
    }
    std::vector<const std::vector<std::uint64_t>*> digests_of(regs_.size());
    for (std::size_t r = 0; r < regs_.size(); ++r) digests_of[r] = &reference[key_of(regs_[r])];

    std::size_t bad = bad_rows_;
    for (std::size_t s = 0; s < n_; ++s) {
      std::vector<std::size_t> mine;  // registration order, which is id order
      for (std::size_t r = 0; r < regs_.size(); ++r) {
        if (regs_[r].stream == s) mine.push_back(r);
      }
      std::vector<std::size_t> active;
      std::size_t pending = 0;
      for (std::uint64_t seq = 0; seq < next_[s]; ++seq) {
        while (pending < mine.size() && regs_[mine[pending]].start == seq) {
          active.push_back(mine[pending++]);
        }
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](std::size_t r) { return regs_[r].end <= seq; }),
                     active.end());
        std::uint64_t h = kRowSeed;
        for (const std::size_t r : active) {
          h = fold_row(h, regs_[r].id, (*digests_of[r])[seq - regs_[r].start]);
        }
        if (rows_[s][seq] != finish_row(h)) ++bad;
      }
    }
    mismatched_rows_ = bad;
    disagreements_ = disagree_.size();
    for (const std::size_t p : disagree_) {
      const DecisionJob& job = corpus_.pairs[p].first;
      std::fprintf(stderr, "e2e_bench: tableau and LLL disagree on %s\n",
                   job.arena->to_string(job.formula).c_str());
    }
  }

  /// The traced run's replay of the streaming phases: the fleet registered
  /// at set-up, partitioned by id % shards as the service does, driven
  /// through a ParkedPool of the service's width with the block sizes the
  /// service folded in each phase.  Spans around ParkedPool::run, each
  /// shard body, and each Monitor::append_block.
  void replay_monitors() {
    const std::uint32_t replay = rec_.open(k_replay_);
    engine::detail::ParkedPool pool(threads_);
    struct Member {
      std::unique_ptr<Monitor> monitor;
      std::size_t stream;
    };
    std::vector<std::vector<Member>> members(shards_);
    for (const Registration& r : regs_) {
      if (!r.fleet) continue;
      members[r.id % shards_].push_back({std::make_unique<Monitor>(in_.specs[r.spec]), r.stream});
    }
    const std::size_t paced_block = block_size(snap_setup_, snap_paced_);
    const std::size_t sat_block = block_size(snap_paced_, snap_saturated_);

    struct Call {
      Clock::time_point a, b;
      std::size_t states;
      bool failing;
    };
    std::vector<std::vector<Call>> calls(shards_);
    std::vector<std::pair<Clock::time_point, Clock::time_point>> bodies(shards_);
    std::vector<std::vector<CheckResult>> out(shards_);
    std::vector<std::vector<const State*>> block(n_);
    std::vector<std::size_t> cursor(n_, 0);
    std::vector<std::size_t> dirty;
    double run_s = 0.0, body_s = 0.0, sat_run_s = 0.0;
    for (std::size_t g = 0; g < sat_last_;) {
      const bool saturated = g >= sat_first_;
      std::size_t stop = g + (saturated ? sat_block : paced_block);
      if (!saturated) stop = std::min(stop, sat_first_);
      stop = std::min(stop, sat_last_);
      for (auto& b : block) b.clear();
      for (; g < stop; ++g) {
        const std::size_t s = order_[g];
        block[s].push_back(&in_.streams[s][cursor[s]++]);
      }
      dirty.clear();
      for (std::size_t sh = 0; sh < shards_; ++sh) {
        for (const Member& m : members[sh]) {
          if (!block[m.stream].empty()) {
            dirty.push_back(sh);
            break;
          }
        }
      }
      const auto r0 = Clock::now();
      pool.run(dirty.size(), [&](std::size_t i) {
        const std::size_t sh = dirty[i];
        const auto b0 = Clock::now();
        for (Member& m : members[sh]) {
          const std::vector<const State*>& states = block[m.stream];
          if (states.empty()) continue;
          std::vector<CheckResult>& buf = out[sh];
          if (buf.size() < states.size()) buf.resize(states.size());
          const auto a = Clock::now();
          m.monitor->append_block(states.data(), states.size(), buf.data());
          const auto b = Clock::now();
          bool failing = false;
          for (std::size_t k = 0; k < states.size(); ++k) failing = failing || !buf[k].ok;
          calls[sh].push_back({a, b, states.size(), failing});
        }
        bodies[sh] = {b0, Clock::now()};
      });
      const auto r1 = Clock::now();
      const std::uint32_t run_span = rec_.add(k_pool_run_, replay, r0, r1);
      double longest = 0.0;
      for (const std::size_t sh : dirty) {
        const double body = to_s(bodies[sh].second - bodies[sh].first);
        longest = std::max(longest, body);
        body_s += body;
        const std::uint32_t body_span =
            rec_.add(k_body_, run_span, bodies[sh].first, bodies[sh].second);
        for (const Call& c : calls[sh]) {
          rec_.add(k_append_block_, body_span, c.a, c.b);
          const double t = to_s(c.b - c.a);
          monitor_s_ += t;
          monitor_states_ += c.states;
          (c.failing ? failing_s_ : passing_s_) += t;
          (c.failing ? failing_states_ : passing_states_) += c.states;
        }
        calls[sh].clear();
      }
      const double wall = to_s(r1 - r0);
      dispatch_us_.push_back(std::max(0.0, wall - longest) * 1e6);
      run_s += wall;
      if (saturated) sat_run_s += wall;
    }
    parallel_efficiency_ = ratio(body_s, static_cast<double>(threads_) * run_s);
    // Replayed time per saturated-phase state over the service's wall time
    // per state in that phase.
    covered_frac_ = ratio(sat_run_s, static_cast<double>(sat_last_ - sat_first_)) * states_per_s();
    single_thread_rate_ = ratio(static_cast<double>(sat_last_), monitor_s_);
    std::size_t trace_bytes = 0;
    for (const auto& shard : members) {
      for (const Member& m : shard) {
        const std::vector<State>& states = m.monitor->trace().states();
        trace_bytes += states.capacity() * sizeof(State);
        for (const State& st : states) {
          trace_bytes += st.vars().capacity() * sizeof(st.vars()[0]);
        }
      }
    }
    trace_mb_ = mib(trace_bytes);
    rec_.close(replay);
  }

  /// The traced run's replay of the decide phase: run_decision_job on this
  /// thread for each distinct job, in submission order, for at most as long
  /// as the phase itself ran.
  void replay_decisions() {
    const std::uint32_t replay = rec_.open(k_replay_);
    const auto t0 = Clock::now();
    const double budget = std::max(0.5, decide_wall_s_);
    for (const std::size_t p : fresh_order_) {
      if (to_s(Clock::now() - t0) > budget) break;
      for (int k = 0; k < 2; ++k) {
        const DecisionJob& job = k == 0 ? corpus_.pairs[p].first : corpus_.pairs[p].second;
        const std::uint32_t tok = rec_.open(k_decision_job_);
        const DecisionResult r = engine::run_decision_job(job);
        const double d = rec_.close(tok);
        if (k == 0) {
          tableau_us_.push_back(d);
          tableau_nodes_ += r.graph_nodes;
        } else {
          lll_us_.push_back(d);
          lll_edges_ += r.graph_edges;
          prefix_hits_ += r.prefix_hits;
          prefix_misses_ += r.prefix_misses;
        }
        frontier_sets_ += r.frontier_sets;
      }
    }
    rec_.close(replay);
  }

  /// Saturated phase: rows drained per second, median over kSlices equal
  /// time slices of the window.
  double states_per_s() const {
    const double slice_s = sat_wall_s_ / static_cast<double>(kSlices);
    if (!(slice_s > 0.0)) return 0.0;
    std::vector<double> rows(kSlices, 0.0);
    for (const auto& [t, n] : drain_log_) {
      if (t < sat_start_ || t >= sat_end_) continue;
      const auto i = static_cast<std::size_t>(to_s(t - sat_start_) / slice_s);
      rows[std::min(i, kSlices - 1)] += static_cast<double>(n);
    }
    for (double& r : rows) r /= slice_s;
    return percentile(rows, 0.5);
  }

  /// Decide phase: jobs per second of decide() wall, median over slices of
  /// consecutive batches.
  double decide_jobs_per_s() const {
    std::vector<double> rates;
    for (const auto& s : slices(batch_ms_)) {
      double ms = 0.0;
      for (const double b : s) ms += b;
      rates.push_back(ratio(static_cast<double>(2 * kBatchPairs * s.size()), ms / 1e3));
    }
    return percentile(rates, 0.5);
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_ops_ + mismatched_rows_ + disagreements_; }

  std::vector<Metric> end_to_end(double setup_s, double rss_mb) const {
    return {
        {"setup_s", setup_s, "s"},
        {"latency_p50_ms", sliced_percentile(latency_ms_, 0.50), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  }

  /// The end-to-end figures too unsteady across seeds to carry a bound on
  /// this machine (README.md): reported with the per-layer metrics.
  std::vector<Metric> unbounded_end_to_end() const {
    return {
        {"states_per_s", states_per_s(), "states/s"},
        {"latency_p99_ms", sliced_percentile(latency_ms_, 0.99), "ms"},
        {"decide_jobs_per_s", decide_jobs_per_s(), "jobs/s"},
        {"decide_batch_p50_ms", sliced_percentile(batch_ms_, 0.50), "ms"},
        {"decide_batch_p99_ms", sliced_percentile(batch_ms_, 0.99), "ms"},
    };
  }

  std::vector<Metric> per_layer(double rss_mb) const {
    const engine::StreamStats& t = stats_.totals;
    const std::size_t monitor_states = t.verdicts;
    const std::size_t stabs = t.obligation_index_stabs;
    std::vector<Metric> out = unbounded_end_to_end();
    const std::vector<Metric> layers = {
        {"loadgen.late_p99_ms", percentile(lateness_ms_, 0.99), "ms"},
        {"loadgen.queue_full_retries", static_cast<double>(queue_full_), "count"},
        {"service.try_append_us_p50", percentile(try_append_us_, 0.50), "us"},
        {"service.try_append_us_p99", percentile(try_append_us_, 0.99), "us"},
        {"service.states_per_epoch", share(stats_.states_applied, stats_.epoch_batches), "states"},
        {"service.queue_peak", static_cast<double>(stats_.queue_peak), "count"},
        {"service.drain_us_p99", percentile(drain_us_, 0.99), "us"},
        {"service.rows_per_drain", share(rows_drained_, drain_us_.size()), "rows"},
        {"service.register_us_p99", percentile(register_us_, 0.99), "us"},
        {"service.retire_us_p99", percentile(retire_us_, 0.99), "us"},
        {"service.barrier_frac", share(phase_barriers_, phase_barriers_ + g_), "ratio"},
        {"service.retired_compactions", static_cast<double>(final_.retired_compactions), "count"},
        {"pool.dispatch_us_p50", percentile(dispatch_us_, 0.50), "us"},
        {"pool.parallel_efficiency", parallel_efficiency_, "ratio"},
        {"monitor.us_per_state", 1e6 * ratio(monitor_s_, static_cast<double>(monitor_states_)),
         "us"},
        {"monitor.single_thread_states_per_s", single_thread_rate_, "states/s"},
        {"monitor.failing_us_per_state",
         1e6 * ratio(failing_s_, static_cast<double>(failing_states_)), "us"},
        {"monitor.passing_us_per_state",
         1e6 * ratio(passing_s_, static_cast<double>(passing_states_)), "us"},
        {"obligation.touched_per_stab", share(t.obligation_index_touched, stabs), "count"},
        {"obligation.visited_per_stab", share(t.obligation_index_visited, stabs), "count"},
        {"obligation.dirtied_per_state", share(t.obligation_dirtied, monitor_states), "count"},
        {"obligation.recomputed_per_state", share(t.obligation_recomputed, monitor_states),
         "count"},
        {"obligation.entries", static_cast<double>(t.obligation_entries), "count"},
        {"obligation.mb", mib(t.obligation_bytes), "MB"},
        {"gc.sweeps", static_cast<double>(t.gc_sweeps), "count"},
        {"gc.freed", static_cast<double>(t.gc_freed), "count"},
        {"memo.hit_ratio", share(t.memo_hits, t.memo_hits + t.memo_misses), "ratio"},
        {"memo.entries", static_cast<double>(t.memo_entries), "count"},
        {"memo.mb", mib(t.memo_bytes), "MB"},
        {"trace.mb_est", trace_mb_, "MB"},
        {"memory.unaccounted_mb", rss_mb - mib(t.obligation_bytes + t.memo_bytes), "MB"},
        {"decision.cache_hit_ratio", share(decision_hits_, decision_hits_ + decision_misses_),
         "ratio"},
        {"tableau.job_us_p50", percentile(tableau_us_, 0.50), "us"},
        {"tableau.job_us_p99", percentile(tableau_us_, 0.99), "us"},
        {"tableau.nodes_per_job", share(tableau_nodes_, tableau_us_.size()), "count"},
        {"lll.job_us_p50", percentile(lll_us_, 0.50), "us"},
        {"lll.job_us_p99", percentile(lll_us_, 0.99), "us"},
        {"lll.edges_per_job", share(lll_edges_, lll_us_.size()), "count"},
        {"lll.prefix_hit_ratio", share(prefix_hits_, prefix_hits_ + prefix_misses_), "ratio"},
        {"intra.frontier_sets_per_job",
         share(frontier_sets_, tableau_us_.size() + lll_us_.size()), "count"},
        {"attribution.covered_frac", covered_frac_, "ratio"},
        {"failed_frac", share(failed(), attempted_), "ratio"},
    };
    out.insert(out.end(), layers.begin(), layers.end());
    return out;
  }

  /// The run's input properties and sample counts, one `# ` line each.
  void describe(std::FILE* out, const std::vector<double>& setups, double rss_mb) const {
    std::size_t buggy = 0;
    for (const bool b : in_.buggy) buggy += b ? 1 : 0;
    const engine::StreamStats& t = stats_.totals;
    std::fprintf(out, "# streams %zu (buggy %zu), monitors_per_stream %.4g\n", n_, buggy,
                 share(in_.fleet.size(), n_));
    std::fprintf(out, "# states_appended %zu (paced %zu, saturated %zu)\n", g_, paced_states_,
                 sat_last_ - sat_first_);
    std::fprintf(out, "# failing_verdict_share %.4f of %zu verdicts\n",
                 share(failing_verdicts_, verdicts_), verdicts_);
    std::fprintf(out, "# barrier_share %.4f (%zu register/retire while streaming)\n",
                 share(phase_barriers_, phase_barriers_ + g_), phase_barriers_);
    std::fprintf(out, "# repeat_share %.4f (%zu decide jobs, %zu formulas in corpus)\n",
                 share(repeated_jobs_, decided_jobs_), decided_jobs_, corpus_.pairs.size());
    std::fprintf(out, "# paced_rate %.6g states/s, latency samples %zu\n", w_.paced_rate,
                 latency_ms_.size());
    std::fprintf(out, "# saturated rows %zu in %.4f s\n", sat_rows_, sat_wall_s_);
    std::fprintf(out, "# decide batches %zu in %.4f s\n", batch_ms_.size(), decide_wall_s_);
    std::fprintf(out, "# setup_s reps");
    for (const double s : setups) std::fprintf(out, " %.6f", s);
    std::fprintf(out, "\n# memory peak_rss_mb %.2f accounted_mb %.2f (obligation %.2f, memo %.2f)\n",
                 rss_mb, mib(t.obligation_bytes + t.memo_bytes), mib(t.obligation_bytes),
                 mib(t.memo_bytes));
    std::fprintf(out, "# oracle mismatched_rows %zu disagreeing_pairs %zu failed_ops %zu\n",
                 mismatched_rows_, disagreements_, failed_ops_);
  }

 private:
  /// Mean states per epoch between two snapshots, at least 1.
  static std::size_t block_size(const engine::ServiceStats& a, const engine::ServiceStats& b) {
    const double mean = share(b.states_applied - a.states_applied, b.epoch_batches - a.epoch_batches);
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(mean)));
  }

  bool has_next() const {
    const std::size_t s = g_ % n_;
    return next_[s] < in_.streams[s].size();
  }

  /// One try_append of the next state in the round-robin ingest order.
  AppendStatus append_next(Clock::time_point due) {
    const std::size_t s = g_ % n_;
    const std::uint32_t tok = rec_.open(k_try_append_);
    const AppendStatus status = svc_->try_append(sids_[s], in_.streams[s][next_[s]]);
    const double d = rec_.close(tok);
    if (tok != SpanRecorder::kNone) try_append_us_.push_back(d);
    if (status == AppendStatus::Ok) {
      due_[s][next_[s]] = due;
      ++next_[s];
      ++g_;
      order_.push_back(static_cast<std::uint32_t>(s));
      ++attempted_;
    } else if (status == AppendStatus::QueueFull) {
      ++queue_full_;  // backpressure, retried: not a failure
    } else {
      ++attempted_;
      ++failed_ops_;
      stopped_ = true;
    }
    return status;
  }

  /// Drains and digests every available row; returns the row count.
  std::size_t drain() {
    const std::uint32_t tok = rec_.open(k_drain_);
    std::vector<VerdictRow> rows = svc_->drain();
    const auto now = Clock::now();
    if (rows.empty()) {
      rec_.discard(tok);
      return 0;
    }
    drain_us_.push_back(rec_.close(tok));
    drain_log_.emplace_back(now, rows.size());
    for (const VerdictRow& row : rows) {
      const std::size_t s = row.stream < index_of_.size() ? index_of_[row.stream] : n_;
      if (s >= n_ || row.seq >= next_[s] || rows_[s][row.seq] != 0) {
        ++bad_rows_;
        continue;
      }
      std::uint64_t h = kRowSeed;
      for (std::size_t i = 0; i < row.verdicts.size(); ++i) {
        const engine::Verdict kind = row.verdict_at(i);
        if (kind != engine::Verdict::Ok) ++failing_verdicts_;
        h = fold_row(h, row.verdicts[i].id, verdict_digest(kind, row.verdicts[i].result));
      }
      verdicts_ += row.verdicts.size();
      rows_[s][row.seq] = finish_row(h);
      const Clock::time_point due = due_[s][row.seq];
      if (due != kUnpaced) latency_ms_.push_back(to_ms(now - due));
    }
    rows_drained_ += rows.size();
    return rows.size();
  }

  /// One decide() call on a planned batch; returns when it ended.  `first`
  /// marks the batch's first submission, whose fresh formulas the decision
  /// replay re-runs; only `timed` calls are measured.
  Clock::time_point submit(const std::vector<std::size_t>& batch, bool first, bool timed) {
    std::vector<DecisionJob> jobs;
    for (const std::size_t p : batch) {
      jobs.push_back(corpus_.pairs[p].first);
      jobs.push_back(corpus_.pairs[p].second);
    }
    std::vector<DecisionResult> results;
    bool threw = false;
    const std::uint32_t tok = timed ? rec_.open(k_decide_) : SpanRecorder::kNone;
    const auto a = Clock::now();
    try {
      results = svc_->decide(jobs);
    } catch (const std::exception&) {
      threw = true;
    }
    const auto b = Clock::now();
    rec_.close(tok);
    attempted_ += jobs.size();
    if (timed) {
      batch_ms_.push_back(to_ms(b - a));
      decided_jobs_ += jobs.size();
      repeated_jobs_ += first ? 2 * (kBatchPairs - kFreshPairs) : jobs.size();
    }
    if (threw || results.size() != jobs.size()) {
      failed_ops_ += jobs.size();
      return b;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (results[2 * i].verdict != results[2 * i + 1].verdict) disagree_.push_back(batch[i]);
    }
    if (first) {
      fresh_order_.insert(fresh_order_.end(), batch.begin(),
                          batch.begin() + static_cast<std::ptrdiff_t>(kFreshPairs));
    }
    return b;
  }

  /// After QueueFull: wait for the next epoch's rows before retrying, so a
  /// full queue costs one retry per epoch rather than a spin on the lock.
  void back_off() {
    while (!stopped_ && drain() == 0) std::this_thread::yield();
  }

  /// flush(), then drain the rows it completed.
  void settle() {
    const std::uint32_t tok = rec_.open(k_flush_);
    svc_->flush();
    rec_.close(tok);
    drain();
  }

  /// One register+retire pair every churn_every appends, round-robin over
  /// the streams; each churned monitor lives for kChurnLive pairs.
  void maybe_churn() {
    if (w_.churn_every == 0 || g_ == 0 || g_ % w_.churn_every != 0 || churned_at_ == g_) return;
    churned_at_ = g_;
    const std::size_t s = churns_++ % n_;
    register_monitor(in_.churn_spec[s], s);
    live_churn_.push_back(regs_.size() - 1);
    ++phase_barriers_;
    if (live_churn_.size() > kChurnLive) {
      retire_monitor(live_churn_.front());
      live_churn_.pop_front();
      ++phase_barriers_;
    }
  }

  void register_monitor(std::size_t spec, std::size_t stream) {
    const std::uint32_t tok = rec_.open(k_register_);
    const MonitorId id = svc_->register_spec(sids_[stream], in_.specs[spec]);
    const double d = rec_.close(tok);
    if (tok != SpanRecorder::kNone) register_us_.push_back(d);
    regs_.push_back({spec, stream, next_[stream], kOpen, id, false});
    ++attempted_;
  }

  void retire_monitor(std::size_t r) {
    const std::uint32_t tok = rec_.open(k_retire_);
    svc_->retire(regs_[r].id);
    const double d = rec_.close(tok);
    if (tok != SpanRecorder::kNone) retire_us_.push_back(d);
    regs_[r].end = next_[regs_[r].stream];
    ++attempted_;
  }

  const Workload& w_;
  const Inputs& in_;
  SpanRecorder& rec_;
  const std::uint64_t seed_;
  const std::size_t n_;

  std::unique_ptr<MonitorService> svc_;
  std::vector<StreamId> sids_;
  std::vector<std::size_t> index_of_;  ///< StreamId -> input stream
  std::vector<Registration> regs_;
  Corpus corpus_;

  // Ingest: round-robin over the streams, stream s at state next_[s].
  std::size_t g_ = 0;  ///< states appended, all streams
  std::vector<std::size_t> next_;
  std::vector<std::uint32_t> order_;  ///< stream of each appended state
  std::vector<std::vector<Clock::time_point>> due_;
  std::vector<std::vector<std::uint64_t>> rows_;  ///< observed row digests
  std::size_t churned_at_ = 0;
  std::size_t churns_ = 0;
  std::deque<std::size_t> live_churn_;
  bool stopped_ = false;

  // Phase boundaries and service snapshots.
  std::size_t paced_states_ = 0;
  std::size_t sat_first_ = 0;
  std::size_t sat_last_ = 0;
  std::size_t sat_rows_ = 0;
  Clock::time_point sat_start_, sat_end_;
  double sat_wall_s_ = 0.0;
  std::vector<std::pair<Clock::time_point, std::size_t>> drain_log_;  ///< (when, rows)
  double decide_wall_s_ = 0.0;
  engine::ServiceStats snap_setup_, snap_paced_, snap_saturated_, stats_, final_;
  std::size_t threads_ = 1;
  std::size_t shards_ = 1;

  // Samples and counters.
  std::vector<double> latency_ms_, lateness_ms_, batch_ms_;
  std::vector<double> try_append_us_, drain_us_, register_us_, retire_us_;
  std::size_t queue_full_ = 0;
  std::size_t rows_drained_ = 0;
  std::size_t bad_rows_ = 0;
  std::size_t verdicts_ = 0;
  std::size_t failing_verdicts_ = 0;
  std::size_t phase_barriers_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ops_ = 0;
  std::size_t mismatched_rows_ = 0;
  std::size_t disagreements_ = 0;
  std::size_t decided_jobs_ = 0;
  std::size_t repeated_jobs_ = 0;
  std::vector<std::size_t> disagree_;  ///< corpus pairs whose verdicts differed
  std::vector<std::size_t> fresh_order_;
  std::uint64_t decision_hits_ = 0;
  std::uint64_t decision_misses_ = 0;

  // Replay results.
  std::vector<double> dispatch_us_;
  double parallel_efficiency_ = 0.0;
  double covered_frac_ = 0.0;
  double single_thread_rate_ = 0.0;
  double monitor_s_ = 0.0, failing_s_ = 0.0, passing_s_ = 0.0;
  std::size_t monitor_states_ = 0, failing_states_ = 0, passing_states_ = 0;
  double trace_mb_ = 0.0;
  std::vector<double> tableau_us_, lll_us_;
  std::size_t tableau_nodes_ = 0, lll_edges_ = 0, prefix_hits_ = 0, prefix_misses_ = 0;
  std::size_t frontier_sets_ = 0;

  std::uint32_t k_setup_, k_register_, k_retire_, k_flush_, k_try_append_, k_drain_, k_decide_;
  std::uint32_t k_paced_, k_saturated_, k_decide_phase_, k_replay_, k_pool_run_, k_body_;
  std::uint32_t k_append_block_, k_decision_job_;
};

void print_metrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strtol(value, nullptr, 10) != 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr || !(seconds > 0.0)) return usage();

  try {
    SpanRecorder rec(trace);
    const Inputs in = make_inputs(*w, seed);
    Runner run(*w, in, rec, seed);
    if (!w->corpus_in_setup) run.set_corpus(build_corpus(seed, w->formulas));

    std::vector<double> setups;
    const int reps = setup_reps(*w);
    for (int r = 0; r < reps; ++r) setups.push_back(run.setup(r + 1 == reps));
    run.paced_phase(seconds * w->paced_share);
    run.saturated_phase(seconds * w->saturated_share);
    run.decide_phase(seconds * w->decide_share);
    run.teardown();
    const double rss_mb = peak_rss_mb();
    run.check();
    if (trace) {
      run.replay_monitors();
      run.replay_decisions();
    }

    std::printf("# workload %s seed %llu seconds %g trace %d\n", w->name,
                static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
    run.describe(stdout, setups, rss_mb);
    if (trace) {
      for (const auto& [name, t] : rec.self_times()) {
        std::printf("# self_time %s count %llu total_ms %.3f self_ms %.3f\n", name.c_str(),
                    static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
      }
      if (!spans_path.empty() && !rec.write(spans_path)) {
        std::fprintf(stderr, "e2e_bench: cannot write spans to %s\n", spans_path.c_str());
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                run.failed() == 0 ? "true" : "false", run.attempted(), run.failed());
    print_metrics("e2e", run.end_to_end(percentile(setups, 0.5), rss_mb));
    std::printf(", ");
    print_metrics("layer", run.per_layer(rss_mb));
    std::printf("}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
