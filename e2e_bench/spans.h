// The benchmark's in-memory span recorder.
//
// A span is one timed call into a layer: its name, start, end, and the span
// that was open around it on the recording thread.  Spans are appended to a
// vector while the benchmark runs and written out once, when it ends, so
// recording one costs two steady_clock reads and a push_back.  A disabled
// recorder (the untraced run) records nothing.
//
// Spans timed on other threads (the replay's pool bodies) are measured
// there and added afterwards with add(), under an explicit parent.
//
// Self time: a span's duration minus the part of its interval that its
// children cover.  Children that ran in parallel overlap, so coverage is
// the union of their intervals, not their sum.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNone;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  struct LayerTime {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Interns a span name; call once per name, outside timed loops.
  std::uint32_t name(const std::string& text) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == text) return i;
    }
    names_.push_back(text);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Opens a span nested under the innermost open one and returns its
  /// index (kNone when disabled).
  std::uint32_t open(std::uint32_t name) {
    if (!enabled_) return kNone;
    const std::uint32_t index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? kNone : stack_.back(), ns(Clock::now()), 0});
    stack_.push_back(index);
    return index;
  }

  /// Closes span `index`, which must be the innermost open one, and
  /// returns its duration in microseconds (0 when disabled).
  double close(std::uint32_t index) {
    if (index == kNone) return 0.0;
    Span& s = spans_[index];
    s.end_ns = ns(Clock::now());
    stack_.pop_back();
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }

  /// Drops span `index` (the innermost open one, and the last opened)
  /// without keeping it: for calls that turned out to do no work, such as
  /// a drain() that returned no rows.
  void discard(std::uint32_t index) {
    if (index == kNone) return;
    stack_.pop_back();
    spans_.pop_back();
  }

  /// Records a span timed elsewhere.
  std::uint32_t add(std::uint32_t name, std::uint32_t parent, Clock::time_point start,
                    Clock::time_point end) {
    if (!enabled_) return kNone;
    spans_.push_back(Span{name, parent, ns(start), ns(end)});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  /// Count, total and self time per span name.
  std::map<std::string, LayerTime> self_times() const {
    std::vector<std::vector<std::uint32_t>> children(spans_.size());
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kNone) children[spans_[i].parent].push_back(i);
    }
    std::map<std::string, LayerTime> out;
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
      cover.clear();
      for (const std::uint32_t c : children[i]) {
        cover.emplace_back(spans_[c].start_ns, spans_[c].end_ns);
      }
      std::sort(cover.begin(), cover.end());
      std::int64_t covered = 0;
      std::int64_t lo = 0;
      std::int64_t hi = 0;
      bool any = false;
      for (const auto& [a, b] : cover) {
        if (!any || a > hi) {
          if (any) covered += hi - lo;
          lo = a;
          hi = b;
          any = true;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (any) covered += hi - lo;
      const Span& s = spans_[i];
      const std::int64_t duration = s.end_ns - s.start_ns;
      LayerTime& t = out[names_[s.name]];
      ++t.count;
      t.total_ms += static_cast<double>(duration) / 1e6;
      t.self_ms += static_cast<double>(duration - std::min(duration, covered)) / 1e6;
    }
    return out;
  }

  /// Writes every span as CSV: index, name, parent index (-1 for none),
  /// start and end in ns since the recorder was created.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "index,name,parent,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << names_[s.name] << ','
          << (s.parent == kNone ? std::int64_t{-1} : static_cast<std::int64_t>(s.parent)) << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

}  // namespace e2e
