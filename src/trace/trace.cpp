#include "trace/trace.h"

#include <atomic>

#include "util/assert.h"

namespace il {

std::uint32_t Trace::next_id() {
  static std::atomic<std::uint32_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

const State& Trace::at(std::size_t k) const {
  IL_REQUIRE(!states_.empty(), "trace must contain at least one state");
  if (k >= states_.size()) return states_.back();
  return states_[k];
}

const State& Trace::back() const {
  IL_REQUIRE(!states_.empty());
  return states_.back();
}

State& Trace::back_mut() {
  IL_REQUIRE(!states_.empty());
  id_ = next_id();  // the caller may mutate through the reference
  ++rewrites_;      // existing positions may change: not an append delta
  var_bytes_stale_ = true;
  return states_.back();
}

State& Trace::state_mut(std::size_t k) {
  IL_REQUIRE(k < states_.size());
  id_ = next_id();  // the caller may mutate through the reference
  ++rewrites_;
  var_bytes_stale_ = true;
  return states_[k];
}

void Trace::drop_front(std::size_t n) {
  IL_REQUIRE(n <= states_.size(), "drop_front past the end of the trace");
  if (n == 0) return;
  if (!var_bytes_stale_) {
    for (std::size_t k = 0; k < n; ++k) var_bytes_ -= var_bytes(states_[k]);
  }
  states_.erase(states_.begin(), states_.begin() + static_cast<std::ptrdiff_t>(n));
  dropped_ += n;
  id_ = next_id();  // positions moved: not an append delta
  ++rewrites_;
}

std::size_t Trace::bytes() const {
  if (var_bytes_stale_) {
    var_bytes_ = 0;
    for (const State& s : states_) var_bytes_ += var_bytes(s);
    var_bytes_stale_ = false;
  }
  return states_.capacity() * sizeof(State) + var_bytes_;
}

std::size_t Trace::last_index() const {
  IL_REQUIRE(!states_.empty());
  return states_.size() - 1;
}

TraceWindow TraceWindow::at_end(const Trace& trace) {
  return TraceWindow(trace, trace.dropped() + trace.size(), Trace::next_id());
}

void TraceWindow::advance(std::size_t count) {
  IL_REQUIRE(base_ + size_ + count <= trace_->dropped() + trace_->size(),
             "window advanced past its trace");
  size_ += count;
  id_ = Trace::next_id();
}

void TraceWindow::set_floor(std::size_t floor) {
  IL_REQUIRE(floor == 0 || floor < size_, "a window's floor cannot pass its last state");
  floor_ = floor;
}

std::size_t TraceWindow::last_index() const {
  IL_REQUIRE(size_ != 0);
  return size_ - 1;
}

std::string Trace::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    out += std::to_string(i) + ": " + states_[i].to_string() + "\n";
  }
  return out;
}

}  // namespace il
