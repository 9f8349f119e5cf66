// Copyright 2026 The ONEX Reproduction Authors.
// Monotonic wall-clock timing used by every experiment harness.

#ifndef ONEX_UTIL_TIMER_H_
#define ONEX_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace onex {

/// Stopwatch over std::chrono::steady_clock. Started on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction or last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed microseconds since construction or last Reset().
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

  /// Elapsed nanoseconds as an integer tick count.
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace onex

#endif  // ONEX_UTIL_TIMER_H_
