#include "distance/envelope.h"

#include <algorithm>

#include "util/monotonic_deque.h"

namespace onex {

SeriesExtrema ExtremaOf(std::span<const double> a) {
  if (a.empty()) return {};
  const auto [min_it, max_it] = std::minmax_element(a.begin(), a.end());
  return {*min_it, *max_it};
}

Envelope ComputeEnvelope(std::span<const double> series, size_t window) {
  const size_t n = series.size();
  Envelope env;
  env.lower.resize(n);
  env.upper.resize(n);
  env.extrema = ExtremaOf(series);
  if (n == 0) return env;
  window = std::min(window, n);

  // Lemire's algorithm: one max-deque and one min-deque of indices whose
  // values are kept monotonically decreasing / increasing. Each index is
  // pushed and popped at most once -> O(n) total.
  MonotonicDeque max_dq(2 * window + 2);
  MonotonicDeque min_dq(2 * window + 2);
  // Position i's window is [i - window, i + window]. We sweep the "incoming"
  // index k = i + window; outputs lag by `window`.
  for (size_t k = 0; k < n + window; ++k) {
    if (k < n) {
      while (!max_dq.Empty() && series[max_dq.Back()] <= series[k]) {
        max_dq.PopBack();
      }
      max_dq.PushBack(k);
      while (!min_dq.Empty() && series[min_dq.Back()] >= series[k]) {
        min_dq.PopBack();
      }
      min_dq.PushBack(k);
    }
    if (k >= window) {
      const size_t i = k - window;
      if (i >= n) break;
      // Evict indices that fell out of [i - window, i + window].
      while (!max_dq.Empty() &&
             max_dq.Front() + window < i) {
        max_dq.PopFront();
      }
      while (!min_dq.Empty() &&
             min_dq.Front() + window < i) {
        min_dq.PopFront();
      }
      env.upper[i] = series[max_dq.Front()];
      env.lower[i] = series[min_dq.Front()];
    }
  }
  return env;
}

}  // namespace onex
